"""Slow, direct reference implementations that the tests compare against.

Not a test module itself (pytest collects only ``test_*.py``); the tests in
this directory import it by name.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from locc_purity.errors import InvariantError, ValidationError
from locc_purity.partitions import (
    Partition,
    class_sum_keys,
    enumerate_partitions,
    hook_dim,
    weyl_dim,
)
from locc_purity.tensorops import (
    DEFAULT_MEMORY_CAP,
    _digit_table,
    _radix_weights,
    check_memory_cap,
    kron,
    multiset_rank,
    multiset_table,
    perm_operator,
    permuted_basis_index,
    trace_product,
)

CROSS_BLOCK_TOL = 1e-8
BLOCK_TRACE_TOL = 1e-6
PROJECTOR_TOL = 1e-10
TRACE_TOL = 1e-8
SNAP_TOL = 1e-3  # largest distance of (n!/d_lambda) P_lambda from its integers

# (local_dim, n) at which the vectorized class sums, projectors and symmetric
# basis are compared entry for entry with the loops below
ORACLE_CASES = [(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 5)] + [
    (4, n) for n in range(1, 4)
]


def frobenius(a):
    return float(np.linalg.norm(a))


def is_hermitian(a, tol=1e-10):
    return frobenius(a - a.conj().T) <= tol * max(1.0, frobenius(a))


def is_projector(a, tol=1e-10):
    if not is_hermitian(a, tol):
        return False
    return frobenius(a @ a - a) <= tol * max(1.0, frobenius(a))


# ---------------------------------------------------------------------------
# The chain projectors P_lambda on (C^d)^{tensor n}
# ---------------------------------------------------------------------------


def k_cycles(n, k):
    """Every k-cycle of S_n once, as its points in cycle order from the
    smallest: a (#cycles, k) table, with no rows when k > n."""
    cycles = [c for c in itertools.permutations(range(n), k) if c[0] == min(c)]
    return np.array(cycles, dtype=np.int64).reshape(-1, k)


def cycle_class_sum(local_dim, n, k, memory_cap=DEFAULT_MEMORY_CAP):
    """T_k = sum of U(sigma) over the k-cycles sigma of S_n, a real
    (local_dim^n, local_dim^n) matrix with integer entries; zero when k > n.

    The cycle c_0 -> c_1 -> ... -> c_0 adds digit_{c_j} * (w[c_{j+1}] - w[c_j])
    to a basis index: one gather of the digit table over the cycles gives
    every image, and one bincount drops them into the matrix. The memory cap
    covers the int64 counts and their float copy.
    """
    if local_dim < 1 or n < 1 or k < 2:
        raise ValidationError(f"need local_dim, n >= 1 and k >= 2, got {local_dim}, {n}, {k}")
    dim = local_dim**n
    check_memory_cap(dim * dim, memory_cap, f"{k}-cycle class sum of dimension {dim}")
    if k > n:
        return np.zeros((dim, dim))
    cycles = k_cycles(n, k)
    weights = _radix_weights(local_dim, n)
    step = weights[cycles[:, (np.arange(k) + 1) % k]] - weights[cycles]
    x = np.arange(dim)[:, None]
    images = x + np.einsum("xcj,cj->xc", _digit_table(local_dim, n)[:, cycles], step)
    counts = np.bincount((images * dim + x).ravel(), minlength=dim * dim)
    return counts.reshape(dim, dim).astype(float)


def build_projector_set(d, n):
    """Every P_lambda on (C^d)^{tensor n}, keyed by its Young index in
    enumerate_partitions order, from one eigh; verified before it returns.

    A = K T_2 + T_3 acts on the lambda block as an integer key (see
    partitions.class_sum_keys), and P_lambda = U U^T over the eigenvalues
    within 0.5 of the key. (n!/d_lambda) P_lambda is the integer matrix
    sum_sigma chi_lambda(sigma) U(sigma): rounding to it (at most SNAP_TOL
    away) and scaling by d_lambda/n! gives the exact class sum's every entry.
    """
    spread, key = class_sum_keys(d, n)
    a = cycle_class_sum(d, n, 2, None)
    a *= spread
    a += cycle_class_sum(d, n, 3, None)
    eigval, u = np.linalg.eigh(a)
    del a
    total = math.factorial(n)
    projectors = {}
    for lam in key:
        block = u[:, np.abs(eigval - key[lam]) < 0.5]
        d_lam = hook_dim(lam)
        p = block @ block.T
        p *= total // d_lam
        snapped = np.rint(p)
        p -= snapped
        resid = float(np.abs(p, out=p).max())
        if resid > SNAP_TOL:
            raise InvariantError(
                f"(n!/d_lambda) P_{lam} is {resid!r} from an integer matrix (d={d}, n={n})"
            )
        snapped *= d_lam / total
        projectors[lam] = snapped
    _verify_projector_set(d, n, projectors)
    return projectors


def _verify_projector_set(d, n, projectors):
    dim = d**n
    parts = list(projectors)
    total = np.zeros((dim, dim))
    for lam, p in projectors.items():
        if not is_projector(p, PROJECTOR_TOL):
            raise InvariantError(f"P_{lam} (d={d}, n={n}) is not a projector")
        expected = weyl_dim(lam, d) * hook_dim(lam)
        tr = float(np.trace(p))
        if abs(tr - expected) > TRACE_TOL:
            raise InvariantError(f"trace(P_{lam}) = {tr!r}, expected {expected} (d={d}, n={n})")
        total += p
    if frobenius(total - np.eye(dim)) > PROJECTOR_TOL * max(1.0, math.sqrt(dim)):
        raise InvariantError(f"sum of projectors is not the identity (d={d}, n={n})")
    for i, lam in enumerate(parts):
        for mu in parts[i + 1 :]:
            if frobenius(projectors[lam] @ projectors[mu]) > PROJECTOR_TOL:
                raise InvariantError(f"P_{lam} P_{mu} != 0 (d={d}, n={n})")


# ---------------------------------------------------------------------------
# The doubled chain: chain-major (A_1 .. A_n B_1 .. B_n) and copy-major
# (A_1 B_1 .. A_n B_n) layouts, and the blocks P_lambda^A x P_mu^B
# ---------------------------------------------------------------------------


def chain_interleave_permutation(n):
    """Factor permutation sending chain-major to copy-major order.

    Position i < n (A_i) goes to 2i; position n+i (B_i) goes to 2i+1. Feeding
    this to perm_operator over 2n factors of dimension d yields the unitary C
    with C |a_1..a_n b_1..b_n> = |a_1 b_1 ... a_n b_n>.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    return tuple(2 * i for i in range(n)) + tuple(2 * i + 1 for i in range(n))


def chain_to_copy_index(d, n):
    """Basis-index image pi of the chain-to-copy unitary: C e_x = e_pi[x]."""
    return permuted_basis_index(chain_interleave_permutation(n), d)


def to_copy_major(op_chain, d, n):
    """Conjugate a chain-major operator into copy-major layout: equals
    C @ op_chain @ C.conj().T, as an index shuffle."""
    dim = (d * d) ** n
    if op_chain.shape != (dim, dim):
        raise ValidationError(
            f"operator shape {op_chain.shape} does not match (d^2)^n = {dim}"
        )
    inv = np.argsort(chain_to_copy_index(d, n))
    return op_chain[np.ix_(inv, inv)]


def ab_block_projector(p_a, p_b, d, n):
    """P_A tensor P_B on the doubled chain, in copy-major layout."""
    return to_copy_major(kron(p_a, p_b), d, n)


def chain_to_copy_operator(d, n):
    """Dense chain-to-copy unitary C, for checking the index shuffles."""
    return perm_operator(chain_interleave_permutation(n), d)


def cycle_type(sigma):
    """Cycle lengths of the permutation sigma, non-increasing."""
    seen = [False] * len(sigma)
    lengths = []
    for start in range(len(sigma)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = sigma[k]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def class_sum_loop(local_dim, n, weight, scale):
    """(scale / n!) * sum_sigma weight(cycle type of sigma) U(sigma), one
    permutation at a time."""
    dim = local_dim**n
    acc = np.zeros((dim, dim), dtype=float)
    x = np.arange(dim)
    for sig in itertools.permutations(range(n)):
        acc[permuted_basis_index(sig, local_dim), x] += weight(cycle_type(sig))
    acc *= scale / math.factorial(n)
    return acc.astype(complex)


def symmetric_basis_loop(local_dim, n):
    """Symmetric basis filled one arrangement of each multiset at a time."""
    weights = local_dim ** np.arange(n - 1, -1, -1)
    v = np.zeros((local_dim**n, math.comb(local_dim + n - 1, n)))
    for col, multiset in enumerate(itertools.combinations_with_replacement(range(local_dim), n)):
        arrangements = set(itertools.permutations(multiset))
        amp = 1.0 / math.sqrt(len(arrangements))
        for arr in arrangements:
            v[int(np.dot(arr, weights)), col] = amp
    return v


def multiset_cycle_images(d, n, cycles):
    """Chain A's cycle moves on Sym^n(C^d x C^d), one cycle at a time.

    Row alpha of multiset_table(d^2, n) holds the sorted modes a d + b of
    its representative. Entry [alpha, c] is the multiset of that
    representative after cycle c (a row of tensorops.k_cycles) moves its A
    letters a and keeps its B letters b, so that chain A's k-cycle class
    sum restricted to Sym^n is

      t_k[beta, alpha] = (sqrt(beta!) / sqrt(alpha!)) #{c : images[alpha, c] = beta},

    sqrt(alpha!) from tensorops._root_factorials.
    """
    reps = multiset_table(d * d, n)
    a = reps // d
    k = cycles.shape[1]
    moved = np.repeat(a[:, None, :], len(cycles), axis=1)
    moved[:, np.arange(len(cycles))[:, None], cycles[:, (np.arange(k) + 1) % k]] = a[:, cycles]
    moved *= d
    moved += (reps % d)[:, None, :]
    return multiset_rank((moved[..., None] == np.arange(d * d)).sum(axis=2))


@lru_cache(maxsize=None)
def _schur_branch(parts, xs):
    if not parts:
        return Fraction(1)
    k = len(parts)
    inner = (range(parts[i + 1], parts[i] + 1) for i in range(k - 1))
    return sum(
        (xs[k - 1] ** (sum(parts) - sum(mu)) * _schur_branch(mu, xs[: k - 1])
         for mu in itertools.product(*inner)),
        Fraction(0),
    )


def schur_exact(lam, p):
    """s_lambda(p) in exact rational arithmetic (the floats of p taken
    exactly), by the branching rule over interlacing partitions."""
    return _schur_branch(lam.padded(len(p)), tuple(Fraction(x) for x in p))


@lru_cache(maxsize=None)
def skew_tableaux(outer, inner):
    """f^{outer/inner}, the standard Young tableaux of the skew shape (both
    shapes padded to one length; 0 unless inner lies inside outer): the sum
    over the corners of outer whose removal keeps it around inner, with
    f^{inner/inner} = 1."""
    if any(i > o for i, o in zip(inner, outer)):
        return 0
    if outer == inner:
        return 1
    total = 0
    for i, row in enumerate(outer):
        if row > inner[i] and (i + 1 == len(outer) or outer[i + 1] < row):
            total += skew_tableaux(outer[:i] + (row - 1,) + outer[i + 1 :], inner)
    return total


def werner_block_masses(a, b, d, n):
    """p_{lambda mu} = Tr(rho^{tensor n} (P_lambda^A x P_mu^B)) of the Werner
    state rho = a I + b F, F the swap of A and B, over the lambda and mu of
    enumerate_partitions(n, d), exactly in Fractions (a and b taken
    exactly); p_lambda is the diagonal.

    rho^{tensor n} = sum_S a^{n-|S|} b^{|S|} F_S over the copy subsets S,
    Tr[(X_A x Y_B) F_S] = Tr_S[Tr_{S^c} X Tr_{S^c} Y], and the branching
    rule Tr_{n-s} P_lambda = sum_{nu |- s} c_lambda(nu) P_nu,
    c_lambda(nu) = dim U_lambda f^{lambda/nu} / dim U_nu, give

      p_{lambda mu} = sum_s C(n, s) a^{n-s} b^s
                      sum_{nu |- s} c_lambda(nu) c_mu(nu) d_nu dim U_nu.
    """
    a, b = Fraction(a), Fraction(b)
    lams = enumerate_partitions(n, d)
    out = [[Fraction(0)] * len(lams) for _ in lams]
    for s in range(n + 1):
        weight = math.comb(n, s) * a ** (n - s) * b**s
        for nu in enumerate_partitions(s, d):
            dim_nu = weyl_dim(nu, d)
            c = [
                Fraction(weyl_dim(lam, d) * skew_tableaux(lam.padded(d), nu.padded(d)), dim_nu)
                for lam in lams
            ]
            scale = weight * hook_dim(nu) * dim_nu
            for i, ci in enumerate(c):
                for j, cj in enumerate(c):
                    out[i][j] += scale * ci * cj
    return out


@dataclass
class BlockStructureReport:
    d: int
    n: int
    block_traces: dict[Partition, float]
    expected_traces: dict[Partition, int]
    max_commutator: float
    max_cross_block: float
    trace_total: float
    expected_total: int
    ok: bool


def verify_block_structure(d, n, set_a, set_b, pi):
    """Check the matched-block decomposition of the symmetric projector pi
    on the doubled chain, from the chain projectors set_a and set_b.

    (a) pi commutes with every matched P_lambda^A tensor P_lambda^B;
    (b) mismatched products (P_lambda^A tensor P_mu^B) pi vanish;
    (c) trace(pi (P_lambda^A tensor P_lambda^B)) = (dim U_lambda)^2, summing
        to C(d^2+n-1, n).
    """
    parts = enumerate_partitions(n, d)
    if list(set_a) != parts or list(set_b) != parts:
        raise ValidationError(f"projector sets are not indexed by the partitions of {n}")
    dim = (d * d) ** n
    if pi.shape != (dim, dim):
        raise ValidationError(f"pi has shape {pi.shape}, expected {(dim, dim)}")

    max_comm = 0.0
    traces: dict[Partition, float] = {}
    expected: dict[Partition, int] = {}
    for lam in parts:
        q = ab_block_projector(set_a[lam], set_b[lam], d, n)
        max_comm = max(max_comm, frobenius(pi @ q - q @ pi))
        traces[lam] = trace_product(pi, q).real
        expected[lam] = weyl_dim(lam, d) ** 2

    max_cross = 0.0
    for lam in parts:
        for mu in parts:
            if lam != mu:
                q_mismatch = ab_block_projector(set_a[lam], set_b[mu], d, n)
                max_cross = max(max_cross, frobenius(q_mismatch @ pi))

    total = sum(traces.values())
    expected_total = math.comb(d * d + n - 1, n)
    ok = (
        max_comm <= CROSS_BLOCK_TOL
        and max_cross <= CROSS_BLOCK_TOL
        and all(abs(traces[lam] - expected[lam]) <= BLOCK_TRACE_TOL for lam in parts)
        and abs(total - expected_total) <= BLOCK_TRACE_TOL * max(1, len(parts))
    )
    return BlockStructureReport(
        d=d,
        n=n,
        block_traces=traces,
        expected_traces=expected,
        max_commutator=max_comm,
        max_cross_block=max_cross,
        trace_total=total,
        expected_total=expected_total,
        ok=ok,
    )
