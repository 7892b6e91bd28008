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

from locc_purity.errors import ValidationError
from locc_purity.partitions import Partition, weyl_dim
from locc_purity.schurweyl import (
    IsotypicProjectorSet,
    ab_block_projector,
    chain_interleave_permutation,
)
from locc_purity.tensorops import (
    DEFAULT_MEMORY_CAP,
    frobenius,
    multiset_rank,
    multiset_table,
    perm_operator,
    permuted_basis_index,
    trace_product,
)

CROSS_BLOCK_TOL = 1e-8
BLOCK_TRACE_TOL = 1e-6

# (local_dim, n) at which the vectorized class sums, projectors and symmetric
# basis are compared entry for entry with the loops below
ORACLE_CASES = [(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 5)] + [
    (4, n) for n in range(1, 4)
]


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

      t_k[beta, alpha] = sqrt(N_alpha / N_beta) #{c : images[alpha, c] = beta},

    N from multiset_arrangements.
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


def verify_block_structure(
    set_a: IsotypicProjectorSet,
    set_b: IsotypicProjectorSet,
    pi: np.ndarray,
    memory_cap: int | None = DEFAULT_MEMORY_CAP,
) -> BlockStructureReport:
    """Check the matched-block decomposition of the symmetric projector.

    (a) pi commutes with every matched P_lambda^A tensor P_lambda^B;
    (b) mismatched products (P_lambda^A tensor P_mu^B) pi vanish;
    (c) trace(pi (P_lambda^A tensor P_lambda^B)) = (dim U_lambda)^2, summing
        to C(d^2+n-1, n).
    """
    if set_a.d != set_b.d or set_a.n != set_b.n:
        raise ValidationError("projector sets have mismatched d or n")
    d, n = set_a.d, set_a.n
    dim = (d * d) ** n
    if pi.shape != (dim, dim):
        raise ValidationError(f"pi has shape {pi.shape}, expected {(dim, dim)}")

    parts = set_a.partitions
    blocks = {
        lam: ab_block_projector(set_a.projectors[lam], set_b.projectors[lam], d, n, memory_cap)
        for lam in parts
    }

    max_comm = 0.0
    traces: dict[Partition, float] = {}
    expected: dict[Partition, int] = {}
    for lam, q in blocks.items():
        max_comm = max(max_comm, frobenius(pi @ q - q @ pi))
        traces[lam] = trace_product(pi, q).real
        expected[lam] = weyl_dim(lam, d) ** 2

    max_cross = 0.0
    for lam in parts:
        for mu in parts:
            if lam == mu:
                continue
            q_mismatch = ab_block_projector(
                set_a.projectors[lam], set_b.projectors[mu], d, n, memory_cap
            )
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
