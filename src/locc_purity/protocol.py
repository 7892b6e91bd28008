"""Acceptance probabilities of the purity test: globally optimal vs. LOCC.

The globally optimal one-sided test accepts with probability
Tr(rho^{tensor n} Pi_n), Pi_n the symmetric-subspace projector on the doubled
chain. The LOCC protocol measures the Young index on each chain, rejects on
mismatch, and runs the maximally-entangled-state test on the matched block;
its acceptance is a Tsuda-weighted sum over blocks. Per-block quantities:

  p_lambda = Tr(rho^{tensor n} Q_lambda),   Q_lambda = P_lambda^A x P_lambda^B
  m_lambda = Tr(rho^{tensor n} Q_lambda Pi_n Q_lambda)

with the block fidelity m_lambda / p_lambda. All of them live on the
symmetric subspace Sym^n(C^d x C^d), R = C(d^2+n-1, n), in its multiset
basis V (Pi_n = V V^T, modes a d + b). There Schur-Weyl duality pairs the
lambda block of chain A with that of chain B, Q_lambda Pi_n Q_lambda =
(P_lambda^A x I) Pi_n, and vec(P_lambda) read as n pairs (a', a) is
symmetric too, so

  p_opt = Tr Gamma,   m_lambda = Tr(Gamma E_lambda),   E_lambda = V^T (P_lambda x I) V,
  p_lambda = v_lambda^T Gamma^R v_lambda,   v_lambda = V^T vec(P_lambda) = E_lambda phi,

with Gamma = Sym^n(rho), Gamma^R = Sym^n(rho^R) of the realigned state
rho^R[(a'a), (b'b)] = rho[ab, a'b'] (Chen-Wu) and phi = V^T vec(I).
E_lambda is the lambda isotypic projector of the Cauchy-Howe decomposition
Sym^n(A x B) = (+)_lambda S_lambda(A) x S_lambda(B): it keeps the multisets
of A letters and of B letters, so it is block diagonal over small weight
sectors, and the pass reads only the sector-diagonal entries of Gamma and
v_lambda^T Gamma^R v_lambda. Both are one contraction of the last step of
symmetric_power with G_{n-1}, Gamma_{n-1} in the monomial frame
C Gamma_{n-1} C^{-1}, C = diag(1 / sqrt(alpha!)), so one pass per n
(_n_copy_pass) forms G_{n-1} of rho and of rho^R and nothing of size d^n; its
state-independent tables (_pass_tables) are built once per (d, n) on first
use. run_test is the one entry into the pass, and each of its calls checks
Gamma's trace against the complete homogeneous polynomial h_n of the
spectrum, that the E_lambda resolve the identity by sum m_lambda = Tr Gamma
(both sides read the same Gamma), Gamma^R by phi^T Gamma^R phi =
(Tr rho)^n, and the sandwich inequality. The chain projectors P_lambda are test oracles
only (tests/oracles.py), as are the dense operators left in tensorops and
states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvariantError, MemoryCapError, ValidationError
from .partitions import (
    Partition,
    class_sum_keys,
    complete_homogeneous,
    enumerate_partitions,
    hook_dim,
    weyl_dim,
)
from .states import StateSpec, analyze, build_state
from .tensorops import (
    DEFAULT_MEMORY_CAP,
    _monomial_power,
    _power_step,
    _root_factorials,
    check_memory_cap,
    cycle_moves_memory_entries,
    multiset_cycle_moves,
    multiset_occupation,
    multiset_rank,
    multiset_table,
    symmetric_power_memory_entries,
)

ORACLE_TOL = 1e-8
SANDWICH_TOL = 1e-9
TRACE_TOL = 1e-8  # relative, on tr E_lambda (see _check_projector_trace)
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


def _sector_pair_bound(d: int, n: int) -> int:
    """An upper bound on the same-sector pairs of Sym^n(C^d x C^d), from
    the letter counts alone: the A weight mu holds T = prod_a f(mu_a) rows,
    f(m) = C(m + d - 1, d - 1), and a sector of it at most T / max_a f(mu_a)
    (the other rows of the d x d count table fix the last). Within 1.25x of
    the count for d = 2 and 2.1x for d = 3 up to n = 7, but 10.7x at
    (8, 3) (1964992 against 183744 pairs): the bound, not the count, decides
    how early the memory cap refuses a large d."""
    total = 0
    for lam in enumerate_partitions(n, d):
        parts = lam.parts + (0,) * (d - len(lam.parts))
        f = [math.comb(m + d - 1, d - 1) for m in parts]
        arrangements = math.factorial(d)
        for m in set(parts):
            arrangements //= math.factorial(parts.count(m))
        total += arrangements * math.prod(f) ** 2 // max(f)
    return total


# the report's Python objects and the small arrays of the pass, which
# decide the peak at the smallest sizes (32 KiB)
_REPORT_ENTRIES = 2048


@lru_cache(maxsize=None)
def pass_memory_entries(d: int, n: int) -> int:
    """Complex entries live at the peak of one n-copy pass, the figure the
    memory cap is checked against: the cached tables (_pass_tables) plus
    the largest of their build, G_{n-1}(rho^R) next to Gamma_n(rho) on the
    pairs, the gather of those next to G_{n-1}(rho), and the p_lambda
    product next to G_{n-1}(rho^R). G is the monomial frame of the power
    (see _pass_tables), as large as Gamma; the similarity rides in the
    tables, with one cached sqrt(alpha!) column. Real and int64 entries
    count half; the same-sector pairs are bounded by _sector_pair_bound, and
    the live (pair, slot) entries of the last step by min(n, d^2) per pair.
    The cached tables are E_lambda and the three live-entry tables on the
    pairs, the diagonal pairs, W and Z. The build holds the pairs next to
    K t_2 + t_3 and the mode moves, the eigenvectors of one sector size, the
    index tables of the last step, or every v_lambda and the gather into W."""
    k, lams = d * d, len(enumerate_partitions(n, d))
    rank, prev = math.comb(k + n - 1, n), math.comb(k + n - 2, n - 1)
    pairs, slots = _sector_pair_bound(d, n), min(n, k)
    tables = pairs * (3 * slots + lams) + 2 * k * prev * (lams + 1) + rank
    # multiset_table and _power_step (beta' and the row slots) at every level
    for m in range(1, n + 1):
        tables += math.comb(k + m - 1, m) * (m + min(m, k) + 1)
    moves = cycle_moves_memory_entries(d, n)
    lift = rank * (lams + 1) // 2 + k * prev * (lams + 1)
    build = pairs + max(2 * slots * pairs, moves, (lams + 2) * pairs // 2, lift)
    power = symmetric_power_memory_entries(k, n - 1) + pairs // 2 if n > 1 else 0
    gather = prev * prev + 2 * pairs * slots
    product = prev * prev + 3 * k * prev * (lams + 1)
    return -(-tables // 2) + max(build, power, gather, product) + _REPORT_ENTRIES


@dataclass(frozen=True)
class _PassTables:
    """The state-independent tables of one n-copy pass; see _pass_tables."""

    partitions: tuple[Partition, ...]
    d_lambda: tuple[int, ...]  # hook_dim of each
    dim_u: tuple[int, ...]  # weyl_dim of each
    e: np.ndarray  # (L, P): E_lambda[alpha, beta] sqrt(alpha!) / sqrt(beta!)
    diag: np.ndarray  # the pairs (alpha, alpha)
    # one entry per live slot (alpha - e_j, j), j a distinct letter of alpha
    pair_of: np.ndarray  # G_n[pair] sums, over the entries of the pair,
    gamma_at: np.ndarray  # G_{n-1}.flat[gamma_at]
    op_at: np.ndarray  # times op.flat[op_at]
    lift_v: np.ndarray  # (R_{n-1}, L + 1, d^2): W
    drop_v: np.ndarray  # (R_{n-1} (L + 1), d^2): Z


def _weight_sectors(d: int, n: int) -> list[np.ndarray]:
    """The weight sectors of Sym^n(C^d x C^d), grouped by size.

    Row alpha's occupation of the modes a d + b, read as a d x d table,
    has its A weight as the row sums and its B weight as the column sums;
    it lies in the sector of the two. Returns, per sector size s, the
    (#sectors, s) array of member rows, each sector's in increasing order.
    """
    occupation = multiset_occupation(d * d, n).reshape(-1, d, d)
    key = multiset_rank(occupation.sum(axis=2)) * math.comb(d + n - 1, n)
    key += multiset_rank(occupation.sum(axis=1))
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1], [True])))
    size = first[1:] - first[:-1]
    by_size = np.argsort(size, kind="stable")
    first, size = first[by_size], size[by_size]
    cut = np.flatnonzero(np.concatenate(([True], size[1:] != size[:-1], [True])))
    return [order[first[i:j, None] + np.arange(size[i])] for i, j in zip(cut[:-1], cut[1:])]


def _isotypic_sectors(
    d: int, n: int
) -> tuple[tuple[Partition, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Every E_lambda = V^T (P_lambda x I) V on the weight sectors.

    E_lambda keeps the A and B weights, so it is block diagonal over the
    sectors. A = K t_2 + t_3, t_k chain A's k-cycle class sum on Sym^n
    (multiset_cycle_moves, symmetrised by _root_factorials), acts on the
    lambda isotypic component as the integer key of class_sum_keys; one
    batched eigh per sector size labels every eigenvector with the key
    within 0.5 of its eigenvalue, and one contraction gives every
    E_lambda = U U^T over its label. Returns the Young indices, the pairs (alpha, beta) sector by
    sector, E on them (L, P), and the diagonal pairs. A move out of its
    sector, an eigenvalue off every key, or tr E_lambda away from
    weyl_dim(lambda, d)^2 (_check_projector_trace) is an InvariantError.
    """
    groups = _weight_sectors(d, n)
    fact = _root_factorials(d * d, n)
    rank = len(fact)
    start, pos, size = (np.empty(rank, dtype=np.int64) for _ in range(3))
    alpha, beta = [], []
    total = 0
    for rows in groups:
        count, s = rows.shape
        start[rows] = np.arange(total, total + count * s * s, s * s)[:, None]
        pos[rows], size[rows] = np.arange(s), s
        alpha.append(np.repeat(rows, s))
        beta.append(np.repeat(rows[:, None, :], s, axis=1).ravel())
        total += count * s * s
    pairs = np.stack([np.concatenate(alpha), np.concatenate(beta)])

    # A[beta, alpha] lands in pair start + pos[beta] s + pos[alpha]
    spread, key = class_sum_keys(d, n)
    col, row, weight = multiset_cycle_moves(d, n, {2: spread, 3: 1})
    if (start[row] != start[col]).any():
        raise InvariantError(f"a cycle move left its weight sector (d={d}, n={n})")
    at = start[col] + pos[row] * size[col] + pos[col]
    a = np.bincount(at, weight * fact[row] / fact[col], total)
    del col, row, weight, at  # not alive next to eigh

    keys = np.array(list(key.values()))[:, None, None]
    e = np.empty((len(keys), total))
    total = 0
    for rows in groups:
        count, s = rows.shape
        block = slice(total, total + count * s * s)
        eigval, u = np.linalg.eigh(a[block].reshape(count, s, s))
        label = np.abs(eigval - keys) < 0.5  # (L, count, s)
        out = e[:, block].reshape(len(keys), count, s, s)
        np.matmul(u * label[:, :, None, :], u.transpose(0, 2, 1), out=out)
        total += count * s * s
    diag = np.flatnonzero(pairs[0] == pairs[1])
    traces = e[:, diag].sum(axis=1)
    # every labelled eigenvector adds 1 to the trace of its E_lambda
    placed = round(float(traces.sum()))
    if placed < rank:
        raise InvariantError(
            f"{rank - placed} eigenvalues of K t_2 + t_3 lie off every Young key (d={d}, n={n})"
        )
    for lam, tr in zip(key, traces):
        _check_projector_trace(lam, float(tr), d, n)
    return tuple(key), pairs, e, diag


def _check_projector_trace(lam: Partition, trace: float, d: int, n: int) -> None:
    """tr E_lambda must be weyl_dim(lambda, d)^2. A mislabelled eigenvector
    moves the trace by a whole 1, while the float error grows with the
    trace, so the bound is TRACE_TOL weyl_dim(lambda, d)^2: at most 7.7e-4
    at every size the default memory cap admits ((23, 2) has the largest)."""
    expected = weyl_dim(lam, d) ** 2
    if abs(trace - expected) > TRACE_TOL * expected:
        raise InvariantError(f"tr E_{lam} = {trace!r}, expected {expected} (d={d}, n={n})")


@lru_cache(maxsize=None)
def _pass_tables(d: int, n: int) -> _PassTables:
    """The state-independent tables of the n-copy pass; built on first use,
    cached read-only.

    On top of _isotypic_sectors: v_lambda = E_lambda phi, phi = V^T vec(I)
    holding sqrt(N_gamma) = sqrt(n!) / sqrt(gamma!) on the multisets of
    diagonal modes (a, a), and the last step of the monomial-frame power
    (see _power_step) cut down to what the pass reads of Gamma_n. The pass
    holds G_{n-1} = C Gamma_{n-1} C^{-1}, C = diag(1 / sqrt(alpha!)) (see
    symmetric_power); the similarity rides in these tables, which the pass
    multiplies anyway:

      G_n[alpha, beta] = sum G_{n-1}.flat[gamma_at] op.flat[op_at],

    over the live slots (alpha - e_j, j) of each same-sector pair, j
    running over the distinct letters of alpha, and
    Gamma_n[alpha, beta] = G_n[alpha, beta] sqrt(alpha!) / sqrt(beta!), a
    factor e takes on; and

      v^T Gamma_n v = sum W o Re(G_{n-1} Y),  Y = Z op^T,
      W[alpha', j] = sqrt(alpha!) v[alpha],  alpha = alpha' + e_j,
      Z[beta', f] = v[beta] / sqrt(beta!),  beta = beta' + e_f, f its smallest mode:

    letter last, so that Y and G_{n-1} Y, over every v and letter at once,
    are two matrix products.
    """
    k = d * d
    fact, prev = _root_factorials(k, n), math.comb(k + n - 2, n - 1)
    partitions, pairs, e, diag = _isotypic_sectors(d, n)
    reps = multiset_table(k, n)
    # a d + b = b - a mod d + 1: the diagonal modes are the multiples of d + 1
    phi = np.where((reps % (d + 1) == 0).all(axis=1), math.sqrt(math.factorial(n)) / fact, 0.0)
    v = np.stack(
        [np.bincount(pairs[0], row * phi[pairs[1]], len(phi)) for row in e] + [phi], axis=1
    )
    prime, low, rows = _power_step(k, n)
    live = np.nonzero(rows < k * prev)
    gathered = rows[live]  # every slot (alpha', j) once, from alpha = live[0]
    lift_v = np.zeros((prev, v.shape[1], k))
    lift_v[gathered // k, :, gathered % k] = fact[live[0], None] * v[live[0]]
    drop_v = np.zeros_like(lift_v)
    drop_v[prime, :, low] = v / fact[:, None]
    del v, live, gathered  # not alive next to the live-slot tables
    alpha, beta = pairs
    e *= fact[alpha] / fact[beta]
    step = rows[alpha]
    live = step < k * prev
    pair_of = np.repeat(np.arange(len(alpha)), live.sum(axis=1))
    step = step[live]
    beta = beta[pair_of]
    tables = _PassTables(
        partitions=partitions,
        d_lambda=tuple(hook_dim(lam) for lam in partitions),
        dim_u=tuple(weyl_dim(lam, d) for lam in partitions),
        e=e,
        diag=diag,
        pair_of=pair_of,
        gamma_at=step // k * prev + prime[beta],
        op_at=step % k * k + low[beta],
        lift_v=lift_v,
        drop_v=drop_v.reshape(-1, k),
    )
    for value in vars(tables).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return tables


def _previous_level(op: np.ndarray, n: int) -> np.ndarray:
    """G_{n-1}, Sym^{n-1}(op) in the monomial frame (see _pass_tables), with
    G_0 = [[1]]; capped by the pass."""
    return _monomial_power(op, n - 1) if n > 1 else np.ones((1, 1))


def _n_copy_pass(
    rho: np.ndarray, d: int, n: int, memory_cap: int | None
) -> tuple[list[BlockStats], float, float]:
    """The block statistics, the direct optimal acceptance Tr Re Gamma and
    phi^T Gamma^R phi, which must equal (Tr rho)^n, of a d^2 x d^2 rho
    (run_test checks its shape).

    Only G_{n-1} of rho and of rho^R are formed, in the monomial frame;
    their last step, and the similarity back to Gamma_n, are taken through
    the tables of _pass_tables. vals holds Re G_n on the same-sector pairs,
    one sum over live slots each, so p_opt sums its diagonal pairs, where
    G and Gamma agree, and m_lambda = sum e_lambda vals (E_lambda is real
    symmetric; e carries the similarity). The memory cap is checked once,
    before any work, against pass_memory_entries.
    """
    check_memory_cap(pass_memory_entries(d, n), memory_cap, f"{n}-copy pass (d={d})")
    t = _pass_tables(d, n)
    gamma = _previous_level(rho, n)
    terms = (gamma.ravel()[t.gamma_at] * rho.ravel()[t.op_at]).real
    vals = np.bincount(t.pair_of, terms, t.e.shape[1])
    del gamma, terms
    rho_r = rho.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)
    gamma = _previous_level(rho_r, n)
    y = (t.drop_v @ rho_r.T).reshape(len(gamma), -1)
    mass = np.einsum("alj,alj->l", t.lift_v, (gamma @ y).real.reshape(t.lift_v.shape))
    del gamma
    m = t.e @ vals
    out = []
    for lam, d_lam, dim_u, p_lam, m_lam in zip(
        t.partitions, t.d_lambda, t.dim_u, mass.tolist(), m.tolist()
    ):
        fid = m_lam / p_lam if p_lam > ZERO_BLOCK_TOL else None
        out.append(BlockStats(lam, p_lam, m_lam, d_lam, dim_u, fid))
    return out, float(vals[t.diag].sum()), float(mass[-1])


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
    """Full per-n report, the one checked entry into the n-copy pass: a
    failure of any check named in the module docstring is an InvariantError."""
    analysis = analyze(rho, d)
    blocks, opt, phi_mass = _n_copy_pass(rho, d, n, memory_cap)
    oracle = float(complete_homogeneous(n, analysis.spectrum))
    if abs(opt - oracle) > ORACLE_TOL:
        raise InvariantError(
            f"optimal acceptance disagrees with its polynomial oracle: "
            f"trace {opt!r} vs h_n {oracle!r} (n={n}, d={d})"
        )
    sum_m = sum(b.m_lambda for b in blocks)
    if abs(opt - sum_m) > ORACLE_TOL:
        raise InvariantError(
            f"sum of block overlaps {sum_m!r} disagrees with the optimal "
            f"acceptance {opt!r} (n={n}, d={d})"
        )
    trace_n = float(np.trace(rho).real) ** n
    if abs(phi_mass - trace_n) > ORACLE_TOL:
        raise InvariantError(
            f"realigned mass phi^T Gamma^R phi = {phi_mass!r} disagrees with "
            f"(Tr rho)^n = {trace_n!r} (n={n}, d={d})"
        )
    star = p_star(blocks)
    slack = slack_bound(blocks)
    if not (opt - SANDWICH_TOL <= star <= opt + slack + SANDWICH_TOL):
        raise InvariantError(
            f"sandwich violated: p_opt={opt!r}, p_star={star!r}, slack={slack!r}"
        )
    # pure inputs accept with probability 1 exactly, in both tests; do not
    # let float rounding leak a spurious 1e-16 exponent
    pure = analysis.is_pure
    minus_log_p1 = 0.0 if pure or analysis.p1 >= 1.0 else -math.log(analysis.p1)
    return TestReport(
        n=n,
        p_opt=opt,
        p_star=star,
        slack=slack,
        oracle_p_opt=oracle,
        exponent_opt=0.0 if pure else _acceptance_exponent(opt, n),
        exponent_star=0.0 if pure else _acceptance_exponent(star, n),
        minus_log_p1=minus_log_p1,
        blocks=blocks,
    )


def block_statistics(
    rho: np.ndarray, d: int, n: int, memory_cap: int | None = DEFAULT_MEMORY_CAP
) -> list[BlockStats]:
    """p_lambda and m_lambda for every Young index: run_test's blocks, with
    all of its checks."""
    return run_test(rho, d, n, memory_cap).blocks


def p_opt(
    rho: np.ndarray, d: int, n: int, memory_cap: int | None = DEFAULT_MEMORY_CAP
) -> float:
    """Acceptance probability of the globally optimal test, Tr(rho^n Pi_n),
    taken as Tr Gamma, Gamma = Sym^n(rho) on the symmetric subspace:
    run_test's p_opt, with all of its checks."""
    return run_test(rho, d, n, memory_cap).p_opt


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
