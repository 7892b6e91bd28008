"""Command-line front end.

Subcommands: dims, chars, blocks, test, sweep, bounds. Output formats:
human-readable table (default), CSV, or JSON; CSV uses 17 significant digits
so 64-bit floats round-trip losslessly. Exit codes: 0 success, 2 validation
error, 3 resource limit, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import operator
import os
import re
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Sequence

from .errors import InvariantError, MemoryCapError, ValidationError
from .partitions import (
    Partition,
    check_dim_entropy_bound,
    dimension_record,
    enumerate_partitions,
    mn_character,
    shannon_entropy,
    type_region_bound,
    validate_probability_vector,
)
from .protocol import TestReport, exponent_series, run_test
from .states import StateSpec, build_state, spec_from_json
from .tensorops import DEFAULT_MEMORY_CAP

MEMORY_CAP_ENV = "LOCC_PURITY_MEMORY_CAP"

# every scalar field of a TestReport, in declaration order
SWEEP_COLUMNS = tuple(f.name for f in fields(TestReport) if f.name != "blocks")


@dataclass
class RunConfig:
    command: str
    d: int | None = None
    n: int | None = None
    n_max: int | None = None
    state: StateSpec | None = None
    output_format: str = "table"
    output_path: str | None = None
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP
    seed: int | None = None
    region: str | None = None
    p: tuple[float, ...] | None = None


# ---------------------------------------------------------------------------
# Region mini-language: conjunctions of inequalities over q1..qd
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^q(\d+)(<=|>=|==|=|<|>)([-+0-9.eE]+)$")
_OPS: dict[str, Callable[[float, float], bool]] = {
    "<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt,
    "=": operator.eq, "==": operator.eq,
}


def parse_region(expr: str | None, d: int) -> Callable[[tuple[float, ...]], bool]:
    """Compile e.g. 'q1<=0.6 and q2>0.05' into a predicate on type vectors."""
    if expr is None or not expr.strip():
        return lambda q: True
    terms: list[tuple[int, str, float]] = []
    for raw in re.split(r"\band\b", expr):
        compact = raw.replace(" ", "")
        m = _TERM_RE.match(compact)
        if not m:
            raise ValidationError(f"region: cannot parse term {raw.strip()!r}")
        idx = int(m.group(1))
        if not 1 <= idx <= d:
            raise ValidationError(f"region: q{idx} is out of range for d={d}")
        try:
            val = float(m.group(3))
        except ValueError as exc:
            raise ValidationError(f"region: bad number in {raw.strip()!r}") from exc
        terms.append((idx - 1, m.group(2), val))

    def predicate(q: tuple[float, ...]) -> bool:
        return all(_OPS[op](q[i], v) for i, op, v in terms)

    return predicate


# ---------------------------------------------------------------------------
# Output emission
# ---------------------------------------------------------------------------


def fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _csv_cell(v: Any) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return fmt_float(v)
    return str(v)


def _json_cell(v: Any) -> Any:
    if isinstance(v, float) and not math.isfinite(v):
        return str(v)
    return v


def _table_cell(v: Any) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def emit(
    columns: Sequence[str],
    rows: list[dict[str, Any]],
    cfg: RunConfig,
    *,
    footer: list[str] | None = None,
    extra_json: dict[str, Any] | None = None,
) -> str:
    if cfg.output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row.get(c)) for c in columns])
        return buf.getvalue()
    if cfg.output_format == "json":
        payload: dict[str, Any] = {
            "command": cfg.command,
            "columns": list(columns),
            "rows": [{c: _json_cell(row.get(c)) for c in columns} for row in rows],
        }
        if extra_json:
            payload.update(extra_json)
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    # table
    cells = [[_table_cell(row.get(c)) for c in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
        for i, col in enumerate(columns)
    ]
    lines = ["  ".join(col.ljust(w) for col, w in zip(columns, widths)).rstrip()]
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    for f in footer or []:
        lines.append(f)
    return "\n".join(lines) + "\n"


def _write_output(text: str, cfg: RunConfig) -> None:
    if cfg.output_path:
        try:
            Path(cfg.output_path).write_text(text, encoding="utf-8", newline="")
        except OSError as exc:
            raise ValidationError(f"out: cannot write {cfg.output_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_dims(cfg: RunConfig) -> str:
    n, d = cfg.n, cfg.d
    rows = []
    total_w = 0
    for lam in enumerate_partitions(n, d):
        rec = dimension_record(lam, d)
        bc = check_dim_entropy_bound(lam, n, d)
        total_w += rec.dim_w
        rows.append(
            {
                "lambda": _fmt_partition(lam, d),
                "dim_u": rec.dim_u,
                "d_lambda": rec.dim_v,
                "dim_w": rec.dim_w,
                "log_d_lambda_over_n": math.log(rec.dim_v) / n,
                "type_entropy": shannon_entropy(lam.type_vector(d)),
                "entropy_gap_bound": bc.rhs,
                "holds": bc.holds,
            }
        )
    columns = tuple(rows[0])
    footer = [f"total dim_w = {total_w} (d^n = {d**n})"]
    if total_w != d**n:  # pragma: no cover - dimension identity is exact
        raise InvariantError(f"sum of block dimensions {total_w} != {d**n}")
    return emit(columns, rows, cfg, footer=footer, extra_json={"total_dim_w": total_w})


def cmd_chars(cfg: RunConfig) -> str:
    n = cfg.n
    d = cfg.d if cfg.d is not None else n
    lams = enumerate_partitions(n, d)
    classes = enumerate_partitions(n, n)
    if cfg.output_format == "table":
        columns = ["lambda"] + [str(ct) for ct in classes]
        rows = []
        for lam in lams:
            row: dict[str, Any] = {"lambda": str(lam)}
            for ct in classes:
                row[str(ct)] = mn_character(lam, ct)
            rows.append(row)
        return emit(columns, rows, cfg)
    rows = [
        {"lambda": str(lam), "cycle_type": str(ct), "chi": mn_character(lam, ct)}
        for lam in lams
        for ct in classes
    ]
    return emit(("lambda", "cycle_type", "chi"), rows, cfg)


BLOCK_COLUMNS = ("lambda", "p_lambda", "m_lambda", "d_lambda", "dim_u", "fidelity")


def _block_rows(report: TestReport, d: int) -> list[dict[str, Any]]:
    return [
        {"lambda": _fmt_partition(b.partition, d), **{c: getattr(b, c) for c in BLOCK_COLUMNS[1:]}}
        for b in report.blocks
    ]


def cmd_blocks(cfg: RunConfig) -> str:
    report = run_test(build_state(cfg.state), cfg.d, cfg.n, cfg.memory_cap_bytes)
    rows = _block_rows(report, cfg.d)
    footer = [
        f"sum p_lambda = {_table_cell(sum(b.p_lambda for b in report.blocks))}",
        f"sum m_lambda = {_table_cell(sum(b.m_lambda for b in report.blocks))}",
    ]
    return emit(BLOCK_COLUMNS, rows, cfg, footer=footer)


def _report_row(report: TestReport) -> dict[str, Any]:
    return {c: getattr(report, c) for c in SWEEP_COLUMNS}


def cmd_test(cfg: RunConfig) -> str:
    report = run_test(build_state(cfg.state), cfg.d, cfg.n, cfg.memory_cap_bytes)
    if cfg.output_format == "table":
        lines = [f"{k} = {_table_cell(v)}" for k, v in _report_row(report).items()]
        block_table = emit(
            BLOCK_COLUMNS,
            _block_rows(report, cfg.d),
            RunConfig(command="blocks", output_format="table"),
        )
        return "\n".join(lines) + "\n\n" + block_table
    extra = {"blocks": [
        {c: _json_cell(r.get(c)) for c in BLOCK_COLUMNS} for r in _block_rows(report, cfg.d)
    ]}
    return emit(SWEEP_COLUMNS, [_report_row(report)], cfg, extra_json=extra)


def cmd_sweep(cfg: RunConfig) -> str:
    result = exponent_series(cfg.state, cfg.n_max, cfg.memory_cap_bytes)
    rows = [_report_row(r) for r in result.reports]
    footer = []
    if result.truncated_at is not None:
        # marker row: the first infeasible n with every value column empty
        rows.append({"n": result.truncated_at})
        footer.append(f"truncated by memory cap at n = {result.truncated_at}")
    return emit(
        SWEEP_COLUMNS,
        rows,
        cfg,
        footer=footer,
        extra_json={"truncated_at": result.truncated_at},
    )


def cmd_bounds(cfg: RunConfig) -> str:
    d = cfg.d
    p = cfg.p
    validate_probability_vector(p, "p")
    if len(p) != d:
        raise ValidationError(f"p: expected {d} entries, got {len(p)}")
    region = parse_region(cfg.region, d)
    rows: list[dict[str, Any]] = []
    for n in range(1, cfg.n_max + 1):
        for lam in enumerate_partitions(n, d):
            bc = check_dim_entropy_bound(lam, n, d)
            rows.append(
                {
                    "check": "dim_entropy",
                    "n": n,
                    "lambda": _fmt_partition(lam, d),
                    "lhs": bc.lhs,
                    "rhs": bc.rhs,
                    "holds": bc.holds,
                    "d_min": None,
                }
            )
    for n in range(1, cfg.n_max + 1):
        tc = type_region_bound(region, p, n, d)
        rows.append(
            {
                "check": "type_region",
                "n": n,
                "lambda": None,
                "lhs": tc.lhs,
                "rhs": tc.rhs,
                "holds": tc.holds,
                "d_min": tc.d_min,
            }
        )
    columns = ("check", "n", "lambda", "lhs", "rhs", "holds", "d_min")
    all_hold = all(r["holds"] for r in rows)
    return emit(columns, rows, cfg, footer=[f"all hold: {'yes' if all_hold else 'no'}"])


def _fmt_partition(lam: Partition, d: int) -> str:
    return "(" + ",".join(str(x) for x in lam.padded(d)) + ")"


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _load_state(arg: str, seed: int | None) -> StateSpec:
    text = arg
    if not arg.lstrip().startswith("{"):
        path = Path(arg)
        if not path.exists():
            raise ValidationError(f"state: file not found: {arg}")
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"state: cannot read {arg}: {exc}") from exc
    spec = spec_from_json(text)
    if seed is not None:
        if spec.kind not in ("random_pure", "random_mixed"):
            raise ValidationError(
                f"seed: --seed applies only to random state kinds, not {spec.kind!r}"
            )
        spec.seed = seed
    return spec


def _memory_cap(args: argparse.Namespace) -> int:
    if args.memory_cap is not None:
        cap = args.memory_cap
    elif os.environ.get(MEMORY_CAP_ENV):
        try:
            cap = int(os.environ[MEMORY_CAP_ENV])
        except ValueError as exc:
            raise ValidationError(
                f"memory-cap: bad value in ${MEMORY_CAP_ENV}: "
                f"{os.environ[MEMORY_CAP_ENV]!r}"
            ) from exc
    else:
        cap = DEFAULT_MEMORY_CAP
    if cap <= 0:
        raise ValidationError(f"memory-cap: must be positive, got {cap}")
    return cap


# the argparse tree run() parses with, built on its first call: building
# its 7 parsers takes milliseconds, and parsing leaves them unchanged
_parser: argparse.ArgumentParser | None = None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locc-purity",
        description=(
            "Purity-test numerics for n copies of a bipartite state: block "
            "dimensions, projector statistics, optimal vs. LOCC acceptance, "
            "and exponent sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, state: bool) -> None:
        p.add_argument("--format", choices=("table", "csv", "json"), default="table")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--memory-cap", type=int, default=None, metavar="BYTES")
        if state:
            p.add_argument(
                "--state", required=True, help="state-spec JSON file path or inline JSON"
            )
            p.add_argument("--seed", type=int, default=None, help="seed override for random kinds")

    p_dims = sub.add_parser("dims", help="block dimension table for (n, d)")
    p_dims.add_argument("--n", type=int, required=True)
    p_dims.add_argument("--d", type=int, required=True)
    common(p_dims, state=False)

    p_chars = sub.add_parser("chars", help="symmetric group character table")
    p_chars.add_argument("--n", type=int, required=True)
    p_chars.add_argument("--d", type=int, default=None, help="restrict rows of lambda")
    common(p_chars, state=False)

    p_blocks = sub.add_parser("blocks", help="per-block statistics of a state")
    p_blocks.add_argument("--d", type=int, required=True)
    p_blocks.add_argument("--n", type=int, required=True)
    common(p_blocks, state=True)

    p_test = sub.add_parser("test", help="full acceptance report for one n")
    p_test.add_argument("--d", type=int, required=True)
    p_test.add_argument("--n", type=int, required=True)
    common(p_test, state=True)

    p_sweep = sub.add_parser("sweep", help="acceptance/exponent series for n = 1..n_max")
    p_sweep.add_argument("--d", type=int, required=True)
    p_sweep.add_argument("--n-max", type=int, required=True)
    common(p_sweep, state=True)

    p_bounds = sub.add_parser("bounds", help="dimension-entropy and type-region bound checks")
    p_bounds.add_argument("--d", type=int, required=True)
    p_bounds.add_argument("--n-max", type=int, required=True)
    p_bounds.add_argument(
        "--p", required=True, help="comma-separated probability vector of length d"
    )
    p_bounds.add_argument(
        "--region", default=None, help="e.g. 'q1<=0.6 and q2>=0.1' (default: everything)"
    )
    common(p_bounds, state=False)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(
        command=args.command,
        output_format=args.format,
        output_path=args.out,
        memory_cap_bytes=_memory_cap(args),
    )
    for name in ("d", "n", "n_max", "region", "seed"):
        setattr(cfg, name, getattr(args, name, None))
    if getattr(args, "state", None) is not None:
        cfg.state = _load_state(args.state, cfg.seed)
        if cfg.state.d != cfg.d:
            raise ValidationError(
                f"d: --d {cfg.d} disagrees with the state spec's d = {cfg.state.d}"
            )
    if getattr(args, "p", None) is not None:
        try:
            cfg.p = tuple(float(x) for x in args.p.split(","))
        except ValueError as exc:
            raise ValidationError(f"p: cannot parse {args.p!r}") from exc
    _validate_positive(cfg)
    return cfg


def _validate_positive(cfg: RunConfig) -> None:
    for name in ("d", "n", "n_max"):
        val = getattr(cfg, name)
        if val is not None and val < 1:
            raise ValidationError(f"{name}: must be >= 1, got {val}")


_COMMANDS: dict[str, Callable[[RunConfig], str]] = {
    "dims": cmd_dims,
    "chars": cmd_chars,
    "blocks": cmd_blocks,
    "test": cmd_test,
    "sweep": cmd_sweep,
    "bounds": cmd_bounds,
}


def run(argv: Sequence[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        _write_output(_COMMANDS[cfg.command](cfg), cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryCapError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
