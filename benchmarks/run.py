"""locc-purity benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --smoke

Run from any directory; the package is imported from ``src/`` next to this
directory and nowhere else. Each workload is a closed loop with one caller:
the next operation starts when the previous one has returned. A run repeats
passes over the workload's seeded inputs for about ``--seconds`` seconds and
checks every operation's output against the benchmark's own reference values,
outside every timed interval. A failed check, an exception, a non-zero exit
code or an output that differs from the first run of the same input counts
the operation as failed; it never aborts the run.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics. With ``--trace 1`` the first half of the time runs untraced and the
second half traced, and the last line holds the per-layer metrics, per pass,
including the tracing overhead. The line before the last one is a record of
the run: environment, sample counts, tail percentile and failures. Records
and span tables are also written under ``benchmarks/out/``.

``--smoke`` runs every workload at its smallest size, untraced and traced,
checks the references and the metric names in BENCHMARK.json, and exits 0 only
if everything passed. It takes a few seconds.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before anything can load numpy. On a shared 2-core
# machine two threads made grid-small's wall_s spread 13 % between runs and
# one thread 4 %; the count is recorded in every result.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(SRC))

from tracing import DENSE, DENSE_MODULES, TRACED, Tracer, merge_summaries  # noqa: E402
from workloads import WORKLOADS, Verdict, Workload  # noqa: E402

# Set-up probes are spread over the run, one before each pass, so that their
# median is not taken in a single slow or fast stretch of the host.
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 170
TAIL_BEYOND = 10
MIB = 1024.0 * 1024.0


# ---------------------------------------------------------------------------
# Metric definitions: (name, unit). Names and units match BENCHMARK.json.
# ---------------------------------------------------------------------------

END_TO_END = {
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "ok_share": "ratio",
}

SELF_S = (
    "tensorops.trace_product", "tensorops.kron", "tensorops.symmetrizer",
    "tensorops.symmetric_basis",
    "schurweyl.ab_block_projector", "schurweyl.to_copy_major",
    "schurweyl.sym_projector_bipartite", "schurweyl.build_projector_set",
    "schurweyl.young_projector",
    "states.tensor_power", "states.build_state", "states.analyze",
    "protocol.run_test", "protocol.block_statistics", "protocol.p_opt",
    "partitions.mn_character", "partitions.schur_polynomial", "partitions.hook_dim",
    "partitions.enumerate_partitions", "partitions.type_region_bound",
    "partitions.check_dim_entropy_bound",
    "cli.run", "cli.emit",
)
CALLS = (
    "tensorops.trace_product", "tensorops.kron", "schurweyl.ab_block_projector",
    "schurweyl.build_projector_set", "states.tensor_power",
    "partitions.schur_polynomial", "partitions.complete_homogeneous",
)
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SELF_S},
    **{f"{name}.calls": "count" for name in CALLS},
    **{f"{layer}.self_s": "s" for layer in TRACED},
    "tensorops.dense_mib_computed": "MiB",
    "tensorops.cap_request_max_mib": "MiB",
    "protocol.blocks": "count",
    "protocol.blocks_dropped": "count",
    "protocol.fidelity_clamped": "count",
    "protocol.oracle_resid_max": "prob",
    "protocol.sum_m_resid_max": "prob",
    "protocol.sandwich_lo_margin_min": "prob",
    "protocol.sandwich_hi_margin_min": "prob",
    "partitions.lhs_relerr_max": "ratio",
    "partitions.holds_wrong": "count",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.dense_share": "ratio",
    "trace.dense_calls": "count",
    "trace.peak_rss_mib": "MiB",
}


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def run_pass(w: Workload, tracer: Tracer | None) -> dict[str, Any]:
    """One pass over the workload's ops in this process."""
    results = []
    t_pass = time.perf_counter()
    for op in w.ops():
        t0 = time.perf_counter()
        try:
            out, err = (tracer.root(op.call) if tracer else op.call()), None
        except Exception as exc:  # a failing op is counted, never fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        results.append([op.key, time.perf_counter() - t0, out, err])
    pass_s = time.perf_counter() - t_pass
    for r in results:
        if r[3] is None:
            try:
                r[2] = w.normalize(r[2])
            except Exception as exc:
                r[2], r[3] = None, f"unreadable output: {type(exc).__name__}: {exc}"
    return {"pass_s": pass_s, "ops": results}


def child(argv: list[str]) -> dict[str, Any]:
    """Run this script with argv in a fresh process; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"child {argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def child_flags(w: Workload) -> list[str]:
    return ["--workload", w.name, "--seed", str(w.seed)] + (["--smoke"] if w.smoke else [])


def run_pass_in_child(w: Workload, trace: bool) -> dict[str, Any]:
    t0 = time.perf_counter()
    try:
        return child(["--pass-child", *child_flags(w), "--trace", str(int(trace))])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        elapsed = time.perf_counter() - t0
        return {"pass_s": elapsed, "rss_kib": 0,
                "ops": [[op.key, elapsed, None, f"pass process failed: {exc}"] for op in w.ops()]}


class Checker:
    """Judges op outputs against the references, once per distinct output."""

    def __init__(self, w: Workload) -> None:
        self.w = w
        self.first: dict[str, str] = {}
        self.verdicts: dict[tuple[str, str], Any] = {}
        self.problems: list[str] = []

    def judge(self, key: str, out: Any, err: str | None) -> tuple[bool, Any]:
        if err is not None:
            self._note(key, err)
            return False, None
        digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
        if self.first.setdefault(key, digest) != digest:
            self._note(key, "output differs from the first run of the same input")
            return False, None
        verdict = self.verdicts.get((key, digest))
        if verdict is None:
            try:
                verdict = self.w.check(key, out)
            except Exception as exc:
                verdict = Verdict(False, [f"reference check raised {type(exc).__name__}: {exc}"])
            self.verdicts[(key, digest)] = verdict
            for problem in verdict.problems[:3]:
                self._note(key, problem)
        return verdict.ok, verdict

    def _note(self, key: str, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"{key}: {problem}")


@dataclass
class Phase:
    """What a run of back-to-back passes measured."""

    pass_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    op_best_s: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    rss_kib: int = 0
    lhs_relerr_max: float = 0.0
    holds_wrong: int = 0
    summaries: list[dict[str, Any]] = field(default_factory=list)
    span_tables: list[dict[str, Any]] = field(default_factory=list)

    def account(self, res: dict[str, Any], checker: Checker) -> None:
        self.pass_s.append(res["pass_s"])
        self.rss_kib = max(self.rss_kib, res.get("rss_kib", 0))
        if res.get("trace"):
            self.summaries.append(res["trace"])
            self.span_tables.append(res["spans"])
        for key, op_s, out, err in res["ops"]:
            self.attempted += 1
            self.op_s.append(op_s)
            self.op_best_s[key] = min(op_s, self.op_best_s.get(key, op_s))
            ok, verdict = checker.judge(key, out, err)
            self.failed += not ok
            if verdict is not None:
                self.lhs_relerr_max = max(self.lhs_relerr_max, verdict.lhs_relerr_max)
                self.holds_wrong += verdict.holds_wrong


def run_phase(w: Workload, checker: Checker, budget_s: float, trace: bool,
              before_pass: Callable[[], None] | None = None) -> Phase:
    """Passes back to back; no pass starts that would end past budget_s.

    before_pass runs outside the timed passes but inside the budget.
    """
    phase = Phase()
    tracer = None
    if trace and not w.fresh_process_per_pass:
        tracer = Tracer()
        tracer.install()
    try:
        t_start = time.perf_counter()
        while True:
            if before_pass is not None:
                before_pass()
            res = run_pass_in_child(w, trace) if w.fresh_process_per_pass else run_pass(w, tracer)
            phase.account(res, checker)
            if time.perf_counter() - t_start + max(phase.pass_s) > budget_s:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        phase.summaries.append(tracer.summary())
        phase.span_tables.append(tracer.spans())
    if not w.fresh_process_per_pass:
        phase.rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return phase


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond). With too few samples for any
    such percentile it falls back to the maximum (percentile 100, 0 beyond).
    """
    xs = sorted(samples)
    k = len(xs) - TAIL_BEYOND - 1
    if k < 0:
        return xs[-1], 100.0, 0
    return xs[k], 100.0 * (k + 1) / len(xs), TAIL_BEYOND


def end_to_end(phase: Phase, setup_s: float) -> dict[str, float]:
    """wall_s and op_p50_s are best-of-repeats; op_tail_s is over every sample.

    On a shared host whose speed drifts by up to 1.7x over tens of seconds,
    the median pass and the median op moved between runs with the share of
    the run spent slow; the fastest repeat of each is the least disturbed.
    """
    tail_s, _, _ = tail(phase.op_s)
    return {
        "wall_s": min(phase.pass_s),
        "op_p50_s": statistics.median(phase.op_best_s.values()),
        "op_tail_s": tail_s,
        "peak_rss_mib": phase.rss_kib / 1024.0,
        "setup_s": setup_s,
        "ok_share": 1.0 - phase.failed / phase.attempted,
    }


def per_layer(untraced: Phase, traced: Phase) -> dict[str, float]:
    passes = len(traced.pass_s)
    summary = merge_summaries(traced.summaries)
    funcs, counters = summary["funcs"], summary["counters"]

    def per_pass(total: float) -> float:
        """Counts repeat exactly from pass to pass, so they stay whole."""
        return int(total) // passes if total % passes == 0 else total / passes

    def self_s(names) -> float:
        return sum(funcs.get(n, (0.0, 0))[0] for n in names) / passes

    def calls(names) -> float:
        return per_pass(sum(funcs.get(n, (0.0, 0))[1] for n in names))

    def count(key) -> float:
        return per_pass(counters.get(key, 0))

    # Means, as the self times are: their share of the traced wall stays <= 1.
    traced_wall = statistics.fmean(traced.pass_s)
    untraced_wall = statistics.fmean(untraced.pass_s)
    by_layer = {layer: [n for n in funcs if n.startswith(layer + ".")] for layer in TRACED}
    out: dict[str, float] = {}
    out.update({f"{n}.self_s": self_s([n]) for n in SELF_S})
    out.update({f"{n}.calls": calls([n]) for n in CALLS})
    out.update({f"{layer}.self_s": self_s(names) for layer, names in by_layer.items()})
    out.update({
        "tensorops.dense_mib_computed": counters.get("dense_bytes", 0.0) / MIB / passes,
        "tensorops.cap_request_max_mib": counters.get("cap_request_max_bytes", 0.0) / MIB,
        "protocol.blocks": count("blocks"),
        "protocol.blocks_dropped": count("blocks_dropped"),
        "protocol.fidelity_clamped": count("fidelity_clamped"),
        "protocol.oracle_resid_max": counters.get("oracle_resid_max", 0.0),
        "protocol.sum_m_resid_max": counters.get("sum_m_resid_max", 0.0),
        "protocol.sandwich_lo_margin_min": counters.get("sandwich_lo_margin_min", 0.0),
        "protocol.sandwich_hi_margin_min": counters.get("sandwich_hi_margin_min", 0.0),
        "partitions.lhs_relerr_max": traced.lhs_relerr_max,
        "partitions.holds_wrong": per_pass(traced.holds_wrong),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.dense_share": sum(self_s(by_layer[m]) for m in DENSE_MODULES) / traced_wall,
        "trace.dense_calls": calls(sorted(DENSE)),
        "trace.peak_rss_mib": traced.rss_kib / 1024.0,
    })
    return out


def environment(w: Workload) -> dict[str, Any]:
    import numpy

    return {
        "workload": w.name,
        "seed": w.seed,
        "nproc": NPROC,
        "blas_threads": _blas_threads(numpy),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "cache_bytes": _cache_sizes(),
    }


def _blas_threads(numpy) -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, asked of the library."""
    import ctypes

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(handle, name):
                return int(getattr(handle, name)())
    return None


def _cache_sizes() -> dict[str, int | None]:
    """CPU cache sizes from glibc's sysconf (_SC_LEVEL*_CACHE_SIZE)."""
    import ctypes

    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return {}
    names = {"L1d": 188, "L2": 191, "L3": 194}
    return {k: (v if (v := libc.sysconf(code)) > 0 else None) for k, code in names.items()}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def setup_workload(w: Workload) -> None:
    w.setup()
    import locc_purity

    if Path(locc_purity.__file__).resolve().parent != (SRC / "locc_purity").resolve():
        raise SystemExit(f"error: locc_purity imported from {locc_purity.__file__}, not {SRC}")


def bench(w: Workload, seconds: float, trace: bool, probes: int) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, record)."""
    setup_samples: list[float] = []

    def setup_probe() -> None:
        if len(setup_samples) < probes:
            setup_samples.append(child(["--setup-probe", *child_flags(w)])["setup_s"])

    setup_workload(w)
    t0 = time.perf_counter()
    w.prepare_references()
    reference_s = time.perf_counter() - t0
    checker = Checker(w)
    if trace:
        untraced = run_phase(w, checker, seconds / 2, trace=False)
        measured = traced = run_phase(w, checker, seconds / 2, trace=True)
        metrics = per_layer(untraced, traced)
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
    else:
        measured = run_phase(w, checker, seconds, trace=False, before_pass=setup_probe)
        while len(setup_samples) < probes:
            setup_probe()
        metrics = end_to_end(measured, statistics.median(setup_samples))
        attempted, failed = measured.attempted, measured.failed
    units = PER_LAYER if trace else END_TO_END
    tail_s, tail_pct, beyond = tail(measured.op_s)
    record = {
        **environment(w),
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(measured.pass_s),
        "pass_s": measured.pass_s,
        "op_samples": len(measured.op_s),
        "op_inputs": len(measured.op_best_s),
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": beyond,
        "failed_share": failed / attempted,
        "setup_samples_s": setup_samples,
        "reference_s": reference_s,
        "problems": checker.problems,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, {"record": record, "span_tables": measured.span_tables}


def write_outputs(w: Workload, trace: bool, result: dict, extra: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{w.name}_seed{w.seed}_trace{int(trace)}"
    (OUT_DIR / f"BENCH_{stem}.json").write_text(
        json.dumps({**extra["record"], **result}, indent=1) + "\n", encoding="utf-8")
    if extra["span_tables"]:
        import numpy as np

        np.savez_compressed(OUT_DIR / f"spans_{stem}.npz", **{
            f"table{i}_{k}": np.asarray(v)
            for i, table in enumerate(extra["span_tables"]) for k, v in table.items()
        })


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for name in sorted({wl["name"] for wl in spec["workloads"]} - set(WORKLOADS)):
        print(f"{name}: declared in BENCHMARK.json but not defined")
        ok = False
    for name, cls in WORKLOADS.items():
        for trace in (False, True):
            t0 = time.perf_counter()
            result, extra = bench(cls(seed=0, smoke=True), 0.0, trace, probes=1)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            good = result["correct"] and emitted == declared[trace]
            ok &= good
            print(f"{name} trace={int(trace)}: {'ok' if good else 'FAILED'} "
                  f"({result['attempted']} ops, {time.perf_counter() - t0:.1f} s)")
            for problem in extra["record"]["problems"]:
                print(f"  {problem}")
            if emitted != declared[trace]:
                print(f"  metrics differ from BENCHMARK.json: {sorted(set(emitted) ^ set(declared[trace]))}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes; with no --workload, check every workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pass-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "locc_purity" / "__init__.py").is_file():
        print(f"error: no locc_purity package under {SRC}", file=sys.stderr)
        return 2
    if args.smoke and args.workload is None:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    w = WORKLOADS[args.workload](args.seed, args.smoke)

    if args.setup_probe:
        t0 = time.perf_counter()
        setup_workload(w)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    if args.pass_child:
        setup_workload(w)
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        res = run_pass(w, tracer)
        if tracer:
            tracer.uninstall()
            res["trace"] = tracer.summary()
            res["spans"] = {k: v.tolist() for k, v in tracer.spans().items()}
        res["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps(res))
        return 0

    result, extra = bench(w, args.seconds, bool(args.trace), SETUP_PROBES)
    write_outputs(w, bool(args.trace), result, extra)
    print(json.dumps(extra["record"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
