"""The benchmark's workloads: seeded inputs, one pass of fixed work, and the
reference check of every operation's output.

Inputs come from ``random.Random(seed)``, so they do not depend on the numpy
version. The package receives only the generated specs and argument lists.
Nothing here imports numpy or ``locc_purity`` at module level: ``setup`` does,
so that set-up time includes the package import.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import reference as ref

# Tolerances of the benchmark's own checks.
P_OPT_TOL = 1e-9        # |p_opt - h_n(spectrum)| and |oracle_p_opt - h_n|
SANDWICH_TOL = 1e-9     # p_opt <= p_star <= p_opt + slack
PROB_SUM_TOL = 1e-9     # sum p_lambda: = 1 for pure inputs, in [p_opt, 1] otherwise
EXPONENT_TOL = 1e-9     # exponents against -log(p)/n and -log(p1)
SLACK_TOL = 1e-12       # slack against sum p_lambda / d_lambda^2
LHS_RTOL = 1e-9         # type-region lhs against the exact value, relative
BOUND_TOL = 1e-9        # rhs, d_min and dim-entropy values, relative to max(1, |x|)


@dataclass
class Op:
    """One operation: the unit whose latency, failure and output are recorded."""

    key: str
    call: Callable[[], Any]


@dataclass
class Verdict:
    ok: bool
    problems: list[str] = field(default_factory=list)
    lhs_relerr_max: float = 0.0
    holds_wrong: int = 0


class Problems(list):
    def close(self, what: str, got: float, want: float, tol: float) -> None:
        if not abs(got - want) <= tol:
            self.append(f"{what}: got {got!r}, reference {want!r}")


def run_cli(cli_module, argv: list[str]) -> list[Any]:
    """cli.run in-process; returns [exit code, stdout, stderr]."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_module.run(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


def _check_acceptance_row(p: Problems, n: int, row: dict[str, float], h_n: float, p1: float) -> None:
    """Checks shared by sweep rows and run_test reports."""
    p.close(f"n={n} p_opt", row["p_opt"], h_n, P_OPT_TOL)
    p.close(f"n={n} oracle_p_opt", row["oracle_p_opt"], h_n, P_OPT_TOL)
    if not row["p_opt"] - SANDWICH_TOL <= row["p_star"] <= row["p_opt"] + row["slack"] + SANDWICH_TOL:
        p.append(f"n={n} sandwich: p_opt={row['p_opt']!r} p_star={row['p_star']!r} slack={row['slack']!r}")
    # slack = sum p_lambda / d_lambda^2 lies in (0, sum p_lambda] = (0, 1]
    if not 0.0 < row["slack"] <= 1.0 + PROB_SUM_TOL:
        p.append(f"n={n} slack out of (0, 1]: {row['slack']!r}")
    p.close(f"n={n} exponent_opt", row["exponent_opt"], -math.log(row["p_opt"]) / n, EXPONENT_TOL)
    p.close(f"n={n} minus_log_p1", row["minus_log_p1"], -math.log(p1), EXPONENT_TOL)


def _spectrum(states_module, spec) -> tuple[list[float], float]:
    import numpy as np

    eig = np.linalg.eigvalsh(states_module.build_state(spec))
    return [float(x) for x in eig], float(eig.max())


class Workload:
    name = ""
    fresh_process_per_pass = False

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self) -> None:
        """Import the package and build the inputs through its API."""
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def prepare_references(self) -> None:
        """Reference values; called after set-up, outside every timed interval."""

    @staticmethod
    def normalize(output: Any) -> Any:
        """A JSON-able form of an op's output, compared byte for byte across repeats."""
        return output

    def check(self, key: str, output: Any) -> Verdict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# sweep-d2-n6
# ---------------------------------------------------------------------------


class SweepD2N6(Workload):
    """locc-purity sweep --d 2 --n-max 6 --format csv on a full-rank random_mixed state.

    Each pass runs in a fresh process, as a CLI invocation would, so every
    (d, n) is computed once per process and peak RSS belongs to one sweep.
    """

    name = "sweep-d2-n6"
    fresh_process_per_pass = True

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.n_max = 2 if smoke else 6
        self.spec_json = json.dumps({"d": 2, "kind": "random_mixed", "seed": self.rng.randrange(2**32)})

    def setup(self) -> None:
        from locc_purity import cli, states

        self.cli, self.states = cli, states
        self.spec = states.spec_from_json(self.spec_json)
        self.argv = ["sweep", "--d", "2", "--n-max", str(self.n_max),
                     "--state", self.spec_json, "--format", "csv"]

    def ops(self) -> list[Op]:
        return [Op("sweep", lambda: run_cli(self.cli, self.argv))]

    def prepare_references(self) -> None:
        spectrum, self.p1 = _spectrum(self.states, self.spec)
        self.h = {n: float(ref.complete_homogeneous_exact(n, spectrum))
                  for n in range(1, self.n_max + 1)}

    def check(self, key: str, output: Any) -> Verdict:
        code, out, err = output
        if code != 0:
            return Verdict(False, [f"exit code {code}: {err.strip()[:200]}"])
        p = Problems()
        rows = list(csv.DictReader(io.StringIO(out)))
        if [int(r["n"]) for r in rows] != list(range(1, self.n_max + 1)):
            return Verdict(False, [f"rows for n={[r['n'] for r in rows]}"])
        for r in rows:
            n = int(r["n"])
            _check_acceptance_row(p, n, {k: float(v) for k, v in r.items()}, self.h[n], self.p1)
        return Verdict(not p, p)


# ---------------------------------------------------------------------------
# grid-small
# ---------------------------------------------------------------------------


class GridSmall(Workload):
    """run_test over a seeded pool of all four state kinds at cache-resident sizes."""

    name = "grid-small"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.sizes = {2: (1, 2), 3: (1,)} if smoke else {2: (1, 2, 3, 4, 5), 3: (1, 2, 3)}
        self.spec_jsons = [s for d in self.sizes for s in self._pool(d)]

    def _pool(self, d: int) -> list[str]:
        rng = self.rng
        dim = d * d
        weights = [rng.uniform(0.1, 1.0) for _ in range(d)]
        schmidt = [w / sum(weights) for w in weights[:-1]]
        schmidt.append(1.0 - sum(schmidt))
        specs = [
            {"d": d, "kind": "pure_schmidt", "schmidt": schmidt},
            {"d": d, "kind": "density_matrix", "matrix": _random_density_matrix(rng, dim)},
            {"d": d, "kind": "random_pure", "seed": rng.randrange(2**32)},
        ]
        ranks = (1, dim) if self.smoke else range(1, dim + 1)
        specs += [{"d": d, "kind": "random_mixed", "seed": rng.randrange(2**32), "rank": r}
                  for r in ranks]
        return [json.dumps(s) for s in specs]

    def setup(self) -> None:
        from locc_purity import protocol, states

        self.protocol, self.states = protocol, states
        self.specs = [states.spec_from_json(s) for s in self.spec_jsons]

    def ops(self) -> list[Op]:
        protocol, states = self.protocol, self.states

        def op(spec, n):
            # as `locc-purity test`: build the state, then one run_test
            return lambda: protocol.run_test(states.build_state(spec), spec.d, n)

        return [Op(f"{i}:n={n}", op(spec, n))
                for i, spec in enumerate(self.specs) for n in self.sizes[spec.d]]

    def prepare_references(self) -> None:
        self.ref: dict[int, tuple[float, dict[int, float]]] = {}
        for i, spec in enumerate(self.specs):
            spectrum, p1 = _spectrum(self.states, spec)
            h = {n: float(ref.complete_homogeneous_exact(n, spectrum)) for n in self.sizes[spec.d]}
            self.ref[i] = (p1, h)

    @staticmethod
    def normalize(report: Any) -> Any:
        row = {k: getattr(report, k) for k in (
            "n", "p_opt", "p_star", "slack", "oracle_p_opt",
            "exponent_opt", "exponent_star", "minus_log_p1")}
        row["blocks"] = [
            [list(b.partition.parts), b.p_lambda, b.m_lambda, b.d_lambda, b.dim_u, b.fidelity]
            for b in report.blocks
        ]
        return row

    def check(self, key: str, row: Any) -> Verdict:
        i, n = int(key.split(":")[0]), int(key.split("=")[1])
        spec = self.specs[i]
        p1, h = self.ref[i]
        p = Problems()
        if row["n"] != n:
            p.append(f"report for n={row['n']}, asked n={n}")
        _check_acceptance_row(p, n, row, h[n], p1)
        want = [list(lam) for lam in ref.partitions_at_most(n, spec.d)]
        got = [parts + [0] * (spec.d - len(parts)) for parts, *_ in row["blocks"]]
        if got != want:
            p.append(f"blocks {got}, expected partitions {want}")
        else:
            dims = [ref.hook_length_dim(lam) for lam in want]
            if [b[3] for b in row["blocks"]] != dims:
                p.append(f"d_lambda {[b[3] for b in row['blocks']]}, expected {dims}")
            p.close("slack", row["slack"],
                    sum(b[1] / dl**2 for b, dl in zip(row["blocks"], dims)), SLACK_TOL)
        # Matched blocks carry all the mass of a pure input (its Schmidt form
        # pairs the Young indices); a mixed input also has mismatched mass.
        total = sum(b[1] for b in row["blocks"])
        if spec.kind in ("pure_schmidt", "random_pure") or spec.rank == 1:
            p.close("sum p_lambda (pure input)", total, 1.0, PROB_SUM_TOL)
        elif not row["p_opt"] - PROB_SUM_TOL <= total <= 1.0 + PROB_SUM_TOL:
            p.append(f"sum p_lambda {total!r} outside [p_opt, 1]")
        return Verdict(not p, p)


def _random_density_matrix(rng: random.Random, dim: int) -> list[list[list[float]]]:
    """Full-rank G G^dagger / Tr, exactly Hermitian, as [re, im] pairs."""
    g = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)] for _ in range(dim)]
    rho = [[sum(g[i][k] * g[j][k].conjugate() for k in range(dim)) for j in range(dim)]
           for i in range(dim)]
    tr = sum(rho[i][i].real for i in range(dim))
    out = [[[0.0, 0.0]] * dim for _ in range(dim)]
    for i in range(dim):
        out[i][i] = [rho[i][i].real / tr, 0.0]
        for j in range(i + 1, dim):
            z = rho[i][j] / tr
            out[i][j] = [z.real, z.imag]
            out[j][i] = [z.real, -z.imag]
    return out


# ---------------------------------------------------------------------------
# bounds-exact
# ---------------------------------------------------------------------------

# Strata of bounds calls: (name, d, calls per pass, region threshold c in
# thousandths). p is drawn per call, in thousandths. The "skewed" strata put
# p1 far above the region q1<=c, where the seed's Jacobi-Trudi determinant
# cancels; the "balanced" strata are the control, where its Schur polynomials
# are accurate. c is fixed per stratum because the cost of a call grows with
# the number of partitions inside the region, and p does not change the cost.
# Calls are uneven between d = 2 and d = 3 so the median latency does not sit
# between the two cost modes. The d = 2 skewed region is the one ROADMAP item 2
# measured the defect on.
BOUNDS_STRATA = (
    ("d2-skewed", 2, 3, 600),
    ("d2-balanced", 2, 3, 560),
    ("d3-skewed", 3, 2, 500),
    ("d3-balanced", 3, 2, 420),
)
BOUNDS_N_MAX = 60
PERMILLE = 1000


def _draw_p(rng: random.Random, stratum: str) -> tuple[int, ...]:
    """A probability vector in thousandths, non-increasing, for one stratum."""
    if stratum == "d2-skewed":
        k1 = rng.randint(850, 950)
        return (k1, PERMILLE - k1)
    if stratum == "d2-balanced":
        k1 = rng.randint(500, 580)
        return (k1, PERMILLE - k1)
    if stratum == "d3-skewed":
        k1 = rng.randint(700, 800)
        k3 = rng.randint(30, 80)
        return (k1, PERMILLE - k1 - k3, k3)
    k3 = rng.randint(290, 330)
    k2 = rng.randint(k3, (PERMILLE - k3) // 2)
    return (PERMILLE - k2 - k3, k2, k3)


class BoundsExact(Workload):
    """locc-purity bounds for d = 2 and 3 at n_max = 60 on seeded p and q1<=c regions.

    Not declared in BENCHMARK.json: every skewed call fails its check until
    the Schur polynomials are fixed (ROADMAP item 2), and a declared workload
    must run without failures. Run it by name to measure that defect.
    """

    name = "bounds-exact"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.n_max = 6 if smoke else BOUNDS_N_MAX
        self.cases: list[tuple[str, tuple[int, ...], int]] = []
        for stratum, _, count, c in BOUNDS_STRATA:
            for _ in range(1 if smoke else count):
                self.cases.append((stratum, _draw_p(self.rng, stratum), c))

    def setup(self) -> None:
        from locc_purity import cli

        self.cli = cli
        self.argvs = []
        parser = cli.build_parser()
        for _, ks, c in self.cases:
            argv = ["bounds", "--d", str(len(ks)), "--n-max", str(self.n_max),
                    "--p", ",".join(f"{k / PERMILLE:.3f}" for k in ks),
                    "--region", f"q1<={c / PERMILLE:.3f}", "--format", "csv"]
            parser.parse_args(argv)
            self.argvs.append(argv)

    def ops(self) -> list[Op]:
        return [Op(f"{i}:{stratum}", lambda argv=argv: run_cli(self.cli, argv))
                for i, ((stratum, _, _), argv) in enumerate(zip(self.cases, self.argvs))]

    def prepare_references(self) -> None:
        self.schur = {ks: ref.schur_table(ks, self.n_max) for _, ks, _ in self.cases}
        self.hook: dict[tuple[int, ...], int] = {}
        for d in {len(ks) for _, ks, _ in self.cases}:
            for n in range(1, self.n_max + 1):
                for lam in ref.partitions_at_most(n, d):
                    self.hook[lam] = ref.hook_length_dim(lam)

    def check(self, key: str, output: Any) -> Verdict:
        code, out, err = output
        if code != 0:
            return Verdict(False, [f"exit code {code}: {err.strip()[:200]}"])
        _, ks, c = self.cases[int(key.split(":")[0])]
        d = len(ks)
        p_float = [float(f"{k / PERMILLE:.3f}") for k in ks]
        c_float = float(f"{c / PERMILLE:.3f}")
        table = self.schur[ks]
        v = Verdict(True)
        problems = Problems()
        rows = list(csv.DictReader(io.StringIO(out)))
        dim_rows = [r for r in rows if r["check"] == "dim_entropy"]
        type_rows = [r for r in rows if r["check"] == "type_region"]
        want_lams = [(n, lam) for n in range(1, self.n_max + 1) for lam in ref.partitions_at_most(n, d)]
        got_lams = [(int(r["n"]), tuple(int(x) for x in r["lambda"][1:-1].split(","))) for r in dim_rows]
        if got_lams != want_lams:
            problems.append("dim_entropy rows do not list every (n, lambda)")
        else:
            for (n, lam), r in zip(want_lams, dim_rows):
                q = [x / n for x in lam]
                lhs = abs(math.log(self.hook[lam]) / n - ref.shannon_entropy(q))
                rhs = (d * d + 2 * d) / (2 * n) * math.log(n + d)
                problems.close(f"n={n} {lam} dim lhs", float(r["lhs"]), lhs, BOUND_TOL * max(1.0, lhs))
                problems.close(f"n={n} {lam} dim rhs", float(r["rhs"]), rhs, BOUND_TOL * max(1.0, rhs))
                if abs(lhs - rhs) > BOUND_TOL * max(1.0, rhs) and (r["holds"] == "true") != (lhs <= rhs):
                    problems.append(f"n={n} {lam} dim holds={r['holds']}")
                    v.holds_wrong += 1
        if [int(r["n"]) for r in type_rows] != list(range(1, self.n_max + 1)):
            problems.append("type_region rows do not list every n")
            type_rows = []
        for r in type_rows:
            n = int(r["n"])
            members = [lam for lam in ref.partitions_at_most(n, d) if lam[0] / n <= c_float]
            exact = sum((self.hook[lam] * table[lam] for lam in members), 0)
            exact_lhs = Fraction(exact, PERMILLE**n)
            lhs = float(r["lhs"])
            if exact_lhs:
                relerr = float(abs(Fraction(lhs) - exact_lhs) / exact_lhs)
            else:
                relerr = 0.0 if lhs == 0.0 else math.inf
            v.lhs_relerr_max = max(v.lhs_relerr_max, relerr)
            if relerr > LHS_RTOL:
                problems.append(f"n={n} type lhs {lhs!r}, exact {float(exact_lhs)!r} (relerr {relerr:.3g})")
            d_min = min((ref.kl_divergence([x / n for x in lam], p_float) for lam in members),
                        default=math.inf)
            rhs = (n + 1) ** (d * (d + 1) / 2) * math.exp(-n * d_min)
            got_d_min = float(r["d_min"])
            if math.isfinite(d_min) or math.isfinite(got_d_min):
                problems.close(f"n={n} d_min", got_d_min, d_min, BOUND_TOL * max(1.0, d_min))
            problems.close(f"n={n} type rhs", float(r["rhs"]), rhs, BOUND_TOL * max(rhs, 1e-300))
            borderline = abs(exact_lhs - Fraction(rhs)) <= BOUND_TOL * Fraction(rhs)
            if not borderline and (r["holds"] == "true") != (exact_lhs <= Fraction(rhs)):
                problems.append(f"n={n} type holds={r['holds']}, exact lhs {float(exact_lhs)!r} vs rhs {rhs!r}")
                v.holds_wrong += 1
        v.ok = not problems
        v.problems = problems
        return v


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (SweepD2N6, GridSmall, BoundsExact)
}
