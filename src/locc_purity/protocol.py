"""Acceptance probabilities of the purity test: globally optimal vs. LOCC.

The globally optimal one-sided test accepts with probability
Tr(rho^{tensor n} Pi_n), Pi_n the symmetric-subspace projector on the doubled
chain. The LOCC protocol measures the Young index on each chain, rejects on
mismatch, and runs the maximally-entangled-state test on the matched block;
its acceptance is a Tsuda-weighted sum over blocks. Per-block quantities:

  p_lambda = Tr(rho^{tensor n} Q_lambda),   Q_lambda = P_lambda^A x P_lambda^B
  m_lambda = Tr(rho^{tensor n} Q_lambda Pi_n Q_lambda)

with the block fidelity m_lambda / p_lambda. On the symmetric subspace
Schur-Weyl duality pairs the lambda block of chain A with that of chain B,
so Q_lambda Pi_n Q_lambda = (P_lambda^A x I) Pi_n, and with Pi_n = V V^T

  p_opt = Tr Gamma,   m_lambda = Tr(Gamma V^T (P_lambda x I) V),

Gamma = V^T rho^{tensor n} V = Sym^n(rho) being R x R, R = C(d^2+n-1, n).
Three independent routes to the optimal acceptance (Tr Gamma, sum of
m_lambda, complete homogeneous polynomial of the spectrum) must agree.
One pass per n (_n_copy_pass) takes them all from rho itself; no array in it
has (d^2)^n rows. The dense operators in tensorops, states and schurweyl
remain as test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvariantError, MemoryCapError, ValidationError
from .partitions import Partition, complete_homogeneous, enumerate_partitions, hook_dim, weyl_dim
from .schurweyl import build_projector_set, projector_set_memory_entries
from .states import StateSpec, analyze, build_state
from .tensorops import (
    DEFAULT_MEMORY_CAP,
    _digit_table,
    _radix_weights,
    check_memory_cap,
    multiset_rank,
    multiset_table,
    symmetric_power,
    symmetric_power_memory_entries,
)

ORACLE_TOL = 1e-8
SANDWICH_TOL = 1e-9
# Below this mass a block is treated as unpopulated: its fidelity is
# undefined (None) and it contributes nothing to the LOCC acceptance.
ZERO_BLOCK_TOL = 1e-14


@dataclass
class BlockStats:
    """Per-Young-index outcome statistics for the n-copy measurement."""

    partition: Partition
    p_lambda: float
    m_lambda: float
    d_lambda: int
    dim_u: int
    fidelity: float | None


@dataclass
class TestReport:
    n: int
    p_opt: float
    p_star: float
    slack: float
    oracle_p_opt: float
    exponent_opt: float
    exponent_star: float
    minus_log_p1: float
    blocks: list[BlockStats]


@dataclass
class SweepResult:
    reports: list[TestReport]
    truncated_at: int | None


def tsuda_acceptance(fidelity: float, d: int) -> float:
    """Acceptance probability of the LOCC maximally-entangled-state test:
    (F + 1/d^2) / (1 + 1/d^2)."""
    if not 0.0 <= fidelity <= 1.0 + 1e-12:
        raise ValidationError(f"fidelity must lie in [0, 1], got {fidelity}")
    if d < 1:
        raise ValidationError(f"need d >= 1, got {d}")
    c = 1.0 / (d * d)
    return (min(fidelity, 1.0) + c) / (1.0 + c)


def _acceptance_exponent(p: float, n: int) -> float:
    if p >= 1.0:
        return 0.0
    if p <= 0.0:
        return math.inf
    return -math.log(p) / n


def pass_memory_entries(d: int, n: int) -> int:
    """Complex entries live at the peak of one n-copy pass, the figure the
    memory cap is checked against: the cached overlap table (d^n x R index
    and weight) plus the largest stage -- the table's sort, symmetric_power,
    the projector build next to Y, or the block loop (projector set, Y, one
    gathered projector and _block_mass's three d^{2n} complex
    intermediates). Real and int64 entries count half."""
    table = d**n * math.comb(d * d + n - 1, n)
    chain = d ** (2 * n)
    projectors = -(-len(enumerate_partitions(n, d)) * chain // 2)
    return table + max(
        -(-n * table // 2),
        symmetric_power_memory_entries(d * d, n),
        projector_set_memory_entries(d, n) + table,
        projectors + table + 3 * chain,
    )


@lru_cache(maxsize=None)
def _overlap_table(d: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The state-independent tables of every m_lambda; cached read-only.

    Multiset gamma, a column of Gamma, has the chain-major representative
    (a_gamma, b_gamma) that holds its sorted modes a d + b in copies 1..n.
    Returns a_gamma; cols[a, gamma], the multiset of (a, b_gamma); and
    weight = s[cols] / s[gamma], s the entries 1 / sqrt(#arrangements) of
    the symmetric basis columns.
    """
    reps = multiset_table(d * d, n)
    modes = _digit_table(d, n)[:, None, :] * d + reps % d
    modes.sort(axis=2)
    cols = multiset_rank(d * d, modes)
    factorial = np.array([math.factorial(i) for i in range(n + 1)], dtype=float)
    occupation = (reps[:, :, None] == np.arange(d * d)).sum(axis=1)
    scale = 1.0 / np.sqrt(factorial[n] / factorial[occupation].prod(axis=1))
    tables = (reps // d @ _radix_weights(d, n), cols, scale[cols] / scale)
    for t in tables:
        t.setflags(write=False)
    return tables


def _block_mass(rho: np.ndarray, p: np.ndarray, d: int, n: int) -> float:
    """p_lambda = Tr(rho^{tensor n} (P tensor P))
    = sum P[a', a] P[b', b] prod_i rho[a_i b_i, a'_i b'_i].

    P is viewed as a tensor with legs (b'_1..b'_n, b_1..b_n). Each step
    contracts one copy of rho into legs (b'_i, b_i) and leaves (a'_i, a_i)
    in their place; a Frobenius product with P closes the trace. No
    intermediate has more than d^{2n} entries.
    """
    rho4 = rho.reshape(d, d, d, d)  # [a, b, a', b']
    t = p.reshape((d,) * (2 * n))
    for i in range(n):
        t = np.tensordot(rho4, t, axes=([3, 1], [i, n + i]))
        t = np.moveaxis(t, (0, 1), (n + i, i))
    return float(np.einsum("ij,ij->", p, t.reshape(p.shape)).real)


def _n_copy_pass(
    rho: np.ndarray, d: int, n: int, memory_cap: int | None
) -> tuple[list[BlockStats], float]:
    """The block statistics and the direct optimal acceptance Tr Re Gamma.

    m_lambda = Tr(Gamma E_lambda), E_lambda = V^T (P_lambda x I) V real
    symmetric, so only Re Gamma enters. V^T M is constant over the rows of
    one multiset when M commutes with every copy permutation, so one
    representative (a_gamma, b_gamma) per column gives all of E_lambda:

      m_lambda = sum_{a, gamma} P_lambda[a, a_gamma] Y[a, gamma],
      Y[a, gamma] = weight[a, gamma] Re Gamma[cols[a, gamma], gamma]

    (see _overlap_table). The memory cap is checked once, before any work,
    against pass_memory_entries.
    """
    if rho.shape != (d * d, d * d):
        raise ValidationError(f"expected a {d * d} x {d * d} matrix, got {rho.shape}")
    check_memory_cap(pass_memory_entries(d, n), memory_cap, f"{n}-copy pass (d={d})")
    reps, cols, weight = _overlap_table(d, n)
    gamma = symmetric_power(rho, n, memory_cap).real
    opt = float(np.trace(gamma))
    y = weight * gamma[cols, np.arange(cols.shape[1])]
    del gamma
    chain = build_projector_set(d, n, memory_cap)

    out: list[BlockStats] = []
    for lam in enumerate_partitions(n, d):
        p = chain.projectors[lam]
        m_lam = float(np.vdot(p[:, reps], y))
        p_lam = _block_mass(rho, p, d, n)
        fid = m_lam / p_lam if p_lam > ZERO_BLOCK_TOL else None
        out.append(BlockStats(lam, p_lam, m_lam, hook_dim(lam), weyl_dim(lam, d), fid))
    return out, opt


def _check_oracle(direct: float, oracle: float, d: int, n: int) -> None:
    if abs(direct - oracle) > ORACLE_TOL:
        raise InvariantError(
            f"optimal acceptance disagrees with its polynomial oracle: "
            f"trace {direct!r} vs h_n {oracle!r} (n={n}, d={d})"
        )


def block_statistics(
    rho: np.ndarray, d: int, n: int, memory_cap: int | None = DEFAULT_MEMORY_CAP
) -> list[BlockStats]:
    """p_lambda and m_lambda for every Young index, from the n-copy pass."""
    return _n_copy_pass(rho, d, n, memory_cap)[0]


def p_opt(
    rho: np.ndarray, d: int, n: int, memory_cap: int | None = DEFAULT_MEMORY_CAP
) -> float:
    """Acceptance probability of the globally optimal test, Tr(rho^n Pi_n),
    taken as Tr Gamma, Gamma = Sym^n(rho) on the symmetric subspace.

    Cross-checked on every call against the complete homogeneous polynomial
    of the single-copy spectrum; disagreement is an InvariantError.
    """
    direct = _n_copy_pass(rho, d, n, memory_cap)[1]
    _check_oracle(direct, complete_homogeneous(n, np.linalg.eigvalsh(rho)), d, n)
    return direct


def p_star(blocks: list[BlockStats]) -> float:
    """LOCC protocol acceptance: Tsuda-weighted sum over populated blocks.

    Mismatched Young-index outcomes reject, so only matched-block mass enters.
    """
    total = 0.0
    for b in blocks:
        if b.fidelity is None:
            continue
        # fidelity is clamped to [0, 1]: float noise on a barely-populated
        # block must not trip the Tsuda domain check
        fid = min(max(b.fidelity, 0.0), 1.0)
        total += b.p_lambda * tsuda_acceptance(fid, b.d_lambda)
    return total


def slack_bound(blocks: list[BlockStats]) -> float:
    """Upper bound on the LOCC excess: sum of p_lambda / d_lambda^2."""
    return sum(b.p_lambda / b.d_lambda**2 for b in blocks)


def run_test(
    rho: np.ndarray, d: int, n: int, memory_cap: int | None = DEFAULT_MEMORY_CAP
) -> TestReport:
    """Full per-n report, with the three-way optimal-acceptance agreement and
    the sandwich inequality enforced."""
    analysis = analyze(rho, d)
    blocks, opt = _n_copy_pass(rho, d, n, memory_cap)
    oracle = complete_homogeneous(n, analysis.spectrum)
    _check_oracle(opt, oracle, d, n)
    sum_m = sum(b.m_lambda for b in blocks)
    if abs(opt - sum_m) > ORACLE_TOL:
        raise InvariantError(
            f"sum of block overlaps {sum_m!r} disagrees with the optimal "
            f"acceptance {opt!r} (n={n}, d={d})"
        )
    star = p_star(blocks)
    slack = slack_bound(blocks)
    if not (opt - SANDWICH_TOL <= star <= opt + slack + SANDWICH_TOL):
        raise InvariantError(
            f"sandwich violated: p_opt={opt!r}, p_star={star!r}, slack={slack!r}"
        )
    # pure inputs have p1 = 1 exactly; do not let float eigenvalues leak a
    # spurious 1e-16 reference exponent
    minus_log_p1 = 0.0 if analysis.is_pure or analysis.p1 >= 1.0 else -math.log(analysis.p1)
    return TestReport(
        n=n,
        p_opt=opt,
        p_star=star,
        slack=slack,
        oracle_p_opt=oracle,
        exponent_opt=_acceptance_exponent(opt, n),
        exponent_star=_acceptance_exponent(star, n),
        minus_log_p1=minus_log_p1,
        blocks=blocks,
    )


def exponent_series(
    spec: StateSpec, n_max: int, memory_cap: int | None = DEFAULT_MEMORY_CAP
) -> SweepResult:
    """Reports for n = 1..n_max; truncates at the first n over the memory cap."""
    if n_max < 1:
        raise ValidationError(f"need n_max >= 1, got {n_max}")
    rho = build_state(spec)
    d = spec.d
    reports: list[TestReport] = []
    for n in range(1, n_max + 1):
        try:
            reports.append(run_test(rho, d, n, memory_cap))
        except MemoryCapError:
            return SweepResult(reports=reports, truncated_at=n)
    return SweepResult(reports=reports, truncated_at=None)
