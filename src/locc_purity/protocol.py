"""Acceptance probabilities of the purity test: globally optimal vs. LOCC.

The globally optimal one-sided test accepts with probability
Tr(rho^{tensor n} Pi_n), Pi_n the symmetric-subspace projector on the doubled
chain. The LOCC protocol measures the Young index on each chain, rejects on
mismatch, and runs the maximally-entangled-state test on the matched block;
its acceptance is a Tsuda-weighted sum over blocks. Per-block quantities:

  p_lambda = Tr(rho^{tensor n} Q_lambda),   Q_lambda = P_lambda^A x P_lambda^B
  m_lambda = Tr(rho^{tensor n} Q_lambda Pi_n Q_lambda)

with the block fidelity m_lambda / p_lambda. Three independent routes to the
optimal acceptance (direct trace, sum of m_lambda, complete homogeneous
polynomial of the spectrum) are required to agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, MemoryCapError, ValidationError
from .partitions import Partition, complete_homogeneous, enumerate_partitions, hook_dim, weyl_dim
from .schurweyl import ab_block_projector, build_projector_set
from .states import StateSpec, analyze, build_state, tensor_power
from .tensorops import DEFAULT_MEMORY_CAP, check_memory_cap, symmetric_basis, trace_product

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


def _overlap(rho_n: np.ndarray, w: np.ndarray) -> float:
    """Tr(W^dagger rho_n W) for a tall matrix W."""
    return float(np.real(np.sum(w.conj() * (rho_n @ w))))


def _n_copy_pass(
    rho: np.ndarray, d: int, n: int, memory_cap: int | None
) -> tuple[list[BlockStats], float]:
    """Every dense per-n quantity from one rho^{tensor n}, one chain projector
    set and one symmetric basis V (Pi_n = V V^dagger): the block statistics
    and the direct optimal acceptance Tr(V^dagger rho^{tensor n} V).

    m_lambda is contracted through V as well, which avoids any dim^3 product
    on the doubled chain.
    """
    dim = (d * d) ** n
    check_memory_cap(dim * dim, memory_cap, f"{n}-copy block statistics (dim {dim})")
    rho_n = tensor_power(rho, n, memory_cap)
    chain = build_projector_set(d, n, memory_cap)
    v = symmetric_basis(d * d, n, memory_cap)

    out: list[BlockStats] = []
    for lam in enumerate_partitions(n, d):
        q = ab_block_projector(
            chain.projectors[lam], chain.projectors[lam], d, n, memory_cap
        )
        p_lam = trace_product(rho_n, q).real
        m_lam = _overlap(rho_n, q @ v)
        d_lam = hook_dim(lam)
        fid = m_lam / p_lam if p_lam > ZERO_BLOCK_TOL else None
        out.append(
            BlockStats(
                partition=lam,
                p_lambda=p_lam,
                m_lambda=m_lam,
                d_lambda=d_lam,
                dim_u=weyl_dim(lam, d),
                fidelity=fid,
            )
        )
    return out, _overlap(rho_n, v)


def _check_oracle(direct: float, oracle: float, d: int, n: int) -> None:
    if abs(direct - oracle) > ORACLE_TOL:
        raise InvariantError(
            f"optimal acceptance disagrees with its polynomial oracle: "
            f"trace {direct!r} vs h_n {oracle!r} (n={n}, d={d})"
        )


def block_statistics(
    rho: np.ndarray, d: int, n: int, memory_cap: int | None = DEFAULT_MEMORY_CAP
) -> list[BlockStats]:
    """p_lambda and m_lambda for every Young index, from the dense operators."""
    return _n_copy_pass(rho, d, n, memory_cap)[0]


def p_opt(
    rho: np.ndarray, d: int, n: int, memory_cap: int | None = DEFAULT_MEMORY_CAP
) -> float:
    """Acceptance probability of the globally optimal test, Tr(rho^n Pi_n),
    taken as Tr(V^dagger rho^n V) over the symmetric basis V.

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
