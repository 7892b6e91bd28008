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
so Q_lambda Pi_n Q_lambda = (P_lambda^A x I) Pi_n and

  m_lambda = Tr(P_lambda G),   G = Tr_B(rho^{tensor n} Pi_n),

one partial trace over chain B that serves every block. Three independent
routes to the optimal acceptance (direct trace, sum of m_lambda, complete
homogeneous polynomial of the spectrum) are required to agree.

All of them are computed matrix-free, from rho itself, in one pass per n
(_n_copy_pass): rho^{tensor n} is applied one copy at a time to the
symmetric basis V (Pi_n = V V^T), G is contracted once from V and
W = rho^{tensor n} V, and p_lambda contracts P_lambda with one copy of rho
at a time. No array in the pass is larger than (d^2)^n x C(d^2+n-1, n); no
(d^2)^n x (d^2)^n operator is built. The dense operators in tensorops,
states and schurweyl remain as test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, MemoryCapError, ValidationError
from .partitions import Partition, complete_homogeneous, enumerate_partitions, hook_dim, weyl_dim
from .schurweyl import build_projector_set, copy_to_chain_columns
from .states import StateSpec, analyze, build_state
from .tensorops import DEFAULT_MEMORY_CAP, check_memory_cap, symmetric_basis

ORACLE_TOL = 1e-8
SANDWICH_TOL = 1e-9
# Below this mass a block is treated as unpopulated: its fidelity is
# undefined (None) and it contributes nothing to the LOCC acceptance.
ZERO_BLOCK_TOL = 1e-14
# Complex arrays of shape ((d^2)^n, R) live at the peak of one n-copy pass
# (see _n_copy_pass); tests/test_protocol.py checks it against tracemalloc.
PASS_LIVE_ARRAYS = 3


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
    memory cap is checked against: PASS_LIVE_ARRAYS arrays of (d^2)^n x R,
    R = C(d^2+n-1, n) the rank of the symmetric basis, plus the chain
    projector set (one real d^n x d^n matrix per Young index, half a complex
    entry per entry)."""
    rank = math.comb(d * d + n - 1, n)
    blocks = len(enumerate_partitions(n, d))
    return PASS_LIVE_ARRAYS * (d * d) ** n * rank + -(-blocks * d ** (2 * n) // 2)


def _apply_per_copy(op: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """op^{tensor n} @ cols for cols of shape (k^n, R), one copy at a time.

    Each step applies op to the leading copy axis and rotates that axis to
    the last copy position, so after n steps the order is restored.
    """
    k, rank = op.shape[0], cols.shape[1]
    x = cols
    for _ in range(n):
        x = op @ x.reshape(k, -1, rank).transpose(1, 0, 2)
    return x.reshape(k**n, rank)


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
    """Every per-n quantity from rho itself, one chain projector set and one
    symmetric basis V (Pi_n = V V^dagger): the block statistics and the
    direct optimal acceptance Tr(V^dagger rho^{tensor n} V).

    Matrix-free: no (d^2)^n x (d^2)^n operator is built. W = rho^{tensor n} V
    is applied copy by copy. V and every P_lambda are real (built from
    permutation matrices), so only Re W enters p_opt = Re Tr(V^dagger W) and
    the partial trace G = Re Tr_B(W V^T) = Re Tr_B(rho^{tensor n} Pi_n), one
    d^n x d^n product of the chain-major views of Re W and V over chain B
    and the columns. Each block then costs m_lambda = Tr(P_lambda G) and the
    copy-by-copy contraction of p_lambda from P_lambda and rho.

    The memory cap is checked once, before any work, against
    pass_memory_entries: PASS_LIVE_ARRAYS = 3 complex arrays of (d^2)^n x R
    entries plus the chain projectors. The peak is in the first step of W,
    where the real V, its complex cast and the step's output are live (2.5
    such arrays); the chain-major V and Re W take 1 and are freed once G is
    formed, so no block works on the doubled chain.
    """
    if rho.shape != (d * d, d * d):
        raise ValidationError(f"expected a {d * d} x {d * d} matrix, got {rho.shape}")
    check_memory_cap(
        pass_memory_entries(d, n), memory_cap, f"{n}-copy pass (d={d})"
    )
    chain = build_projector_set(d, n, memory_cap)
    v = symmetric_basis(d * d, n, memory_cap)
    w = _apply_per_copy(rho, v, n)
    v_chain = copy_to_chain_columns(v, d, n)
    w_chain = copy_to_chain_columns(w.real, d, n)
    del v, w
    opt = float(np.vdot(v_chain, w_chain))
    g = w_chain.reshape(d**n, -1) @ v_chain.reshape(d**n, -1).T
    del v_chain, w_chain

    out: list[BlockStats] = []
    for lam in enumerate_partitions(n, d):
        p = chain.projectors[lam]
        m_lam = float(np.vdot(p, g))
        p_lam = _block_mass(rho, p, d, n)
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
