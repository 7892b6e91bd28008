"""Dense operator arithmetic on tensor-product spaces.

Index convention: basis states of (C^k)^{tensor n} carry mixed-radix digit
strings (i_1, ..., i_n), most significant digit first, so the flat basis
index is sum_m i_m * k^(n-m). Copy permutations act on digit positions.

Every permutation class-sum operator (the symmetrizer, the isotypic
projectors) is a weighted sum of the integer class sums C_mu that one
vectorized pass over the n! permutations builds (class_sums), and is real;
the symmetric basis is filled from the sorted digit rows of the basis
indices. Neither loops in Python over permutations or basis indices.

Every dense allocation is gated by a memory cap (default 2 GiB); exceeding
it raises MemoryCapError with the computed estimate instead of crashing.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import MemoryCapError, ValidationError
from .partitions import enumerate_partitions

DEFAULT_MEMORY_CAP = 2 * 1024**3
_COMPLEX_BYTES = 16


def check_memory_cap(
    n_entries: int, memory_cap: int | None, what: str = "dense operator"
) -> None:
    """Raise MemoryCapError if n_entries complex values exceed the cap."""
    if memory_cap is None:
        return
    needed = _COMPLEX_BYTES * n_entries
    if needed > memory_cap:
        raise MemoryCapError(
            f"{what} needs an estimated {needed} bytes "
            f"({n_entries} complex entries), exceeding the memory cap of "
            f"{memory_cap} bytes"
        )


def kron(
    a: np.ndarray, b: np.ndarray, memory_cap: int | None = DEFAULT_MEMORY_CAP
) -> np.ndarray:
    """Kronecker product with a pre-allocation cap check.

    A dense test oracle, off the protocol path.
    """
    dim = a.shape[0] * b.shape[0]
    check_memory_cap(dim * dim, memory_cap, f"Kronecker product of dimension {dim}")
    return np.kron(a, b)


def _validate_permutation(sigma: Sequence[int]) -> tuple[int, ...]:
    sig = tuple(int(s) for s in sigma)
    if sorted(sig) != list(range(len(sig))):
        raise ValidationError(f"not a permutation of 0..{len(sig) - 1}: {sig}")
    return sig


def _digits(local_dim: int, n: int) -> np.ndarray:
    """(local_dim^n, n) table of mixed-radix digits, most significant first."""
    idx = np.arange(local_dim**n)[:, None]
    return idx // _radix_weights(local_dim, n) % local_dim


@lru_cache(maxsize=None)
def _digit_table(local_dim: int, n: int) -> np.ndarray:
    """_digits, cached read-only for the permutation index gathers."""
    table = _digits(local_dim, n)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _radix_weights(local_dim: int, n: int) -> np.ndarray:
    w = local_dim ** np.arange(n - 1, -1, -1, dtype=np.int64)
    w.setflags(write=False)
    return w


def permuted_basis_index(sigma: Sequence[int], local_dim: int) -> np.ndarray:
    """Image of each basis index under the factor permutation sigma.

    Entry y[x] is the index whose digit at position m equals x's digit at
    position sigma^{-1}(m); i.e. the operator maps e_x to e_{y[x]}.
    """
    sig = _validate_permutation(sigma)
    n = len(sig)
    sig_inv = np.argsort(np.asarray(sig))
    digits = _digit_table(local_dim, n)
    return digits[:, sig_inv] @ _radix_weights(local_dim, n)


def perm_operator(
    sigma: Sequence[int],
    local_dim: int,
    memory_cap: int | None = DEFAULT_MEMORY_CAP,
) -> np.ndarray:
    """Unitary permuting the tensor factors of (C^local_dim)^{tensor n}.

    Maps |i_1 ... i_n> to |i_{sigma^{-1}(1)} ... i_{sigma^{-1}(n)}>, so that
    perm_operator(sigma) @ perm_operator(tau) == perm_operator(sigma o tau).
    """
    if local_dim < 1:
        raise ValidationError(f"need local_dim >= 1, got {local_dim}")
    sig = _validate_permutation(sigma)
    n = len(sig)
    dim = local_dim**n
    check_memory_cap(dim * dim, memory_cap, f"permutation operator of dimension {dim}")
    y = permuted_basis_index(sig, local_dim)
    op = np.zeros((dim, dim), dtype=complex)
    op[y, np.arange(dim)] = 1.0
    return op


def _cycle_codes(sig: np.ndarray) -> np.ndarray:
    """sum over points i of (n+1)^(length of i's cycle - 1), per row of sig."""
    rows, n = sig.shape
    row = np.arange(rows)[:, None]
    length = np.zeros((rows, n), dtype=np.int64)
    at = sig
    for steps in range(1, n + 1):
        length[(at == np.arange(n)) & (length == 0)] = steps
        at = sig[row, at]
    return ((n + 1) ** (length - 1)).sum(axis=1)


def class_sums_memory_entries(local_dim: int, n: int) -> int:
    """Complex-entry equivalent of class_sums' live set, the figure its memory
    cap is checked against: three int64 arrays of (number of cycle types) x
    local_dim^2n entries (see class_sums)."""
    k = len(enumerate_partitions(n, n))
    return -(-3 * k * local_dim ** (2 * n) // 2)


def class_sums(
    local_dim: int, n: int, memory_cap: int | None = DEFAULT_MEMORY_CAP
) -> dict[tuple[int, ...], np.ndarray]:
    """Integer class sums C_mu = sum over sigma of cycle type mu of U(sigma),
    one (local_dim^n, local_dim^n) int64 matrix per cycle type of S_n.

    Keys are cycle types as non-increasing tuples of cycle lengths, in
    enumerate_partitions(n, n) order. One vectorized pass over the n!
    permutations, a chunk at a time: each chunk's basis-index images are one
    product of the digit table with the permuted radix weights, and one
    bincount drops them into the bucket of their cycle type. The memory cap
    is checked once, before any work, against the live set: the
    accumulators, one chunk's bincount of the same size, and one index chunk
    (float and int64 copies), which is chunked to never exceed the
    accumulators.
    """
    if local_dim < 1 or n < 1:
        raise ValidationError(f"need local_dim >= 1 and n >= 1, got {local_dim}, {n}")
    dim = local_dim**n
    types = [lam.parts for lam in enumerate_partitions(n, n)]
    k = len(types)
    check_memory_cap(
        class_sums_memory_entries(local_dim, n),
        memory_cap,
        f"permutation class sums of dimension {dim}",
    )
    # A permutation's code is the base-(n+1) histogram of the cycle length of
    # each point: a cycle of length l puts l points at digit l - 1.
    codes = np.array([sum(l * (n + 1) ** (l - 1) for l in mu) for mu in types])
    by_code = np.argsort(codes)
    # e_x -> e_y with y = sum_i digit_i(x) * w[sigma(i)]; the extra column
    # of ones carries the flat offset of x and of the cycle type's bucket.
    weights = _radix_weights(local_dim, n)
    digits = np.ones((dim, n + 1))  # float is exact: every flat index is below 2^53
    digits[:, :n] = _digit_table(local_dim, n)
    total = math.factorial(n)
    # the index block, float and int64 copies of (dim, chunk), stays within
    # the k * dim^2 int64 accumulators
    chunk = max(1, k * dim // 2)
    perms = itertools.permutations(range(n))
    acc = np.zeros(k * dim * dim, dtype=np.int64)
    for start in range(0, total, chunk):
        rows = min(chunk, total - start)
        sig = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(perms, rows)),
            dtype=np.int64,
            count=rows * n,
        ).reshape(rows, n)
        type_of = by_code[np.searchsorted(codes, _cycle_codes(sig), sorter=by_code)]
        cols = np.empty((n + 1, rows))
        cols[:n] = (dim * weights[sig] + weights).T
        cols[n] = type_of * dim * dim
        flat = (digits @ cols).astype(np.int64)
        acc += np.bincount(flat.ravel(), minlength=acc.size)
    return dict(zip(types, acc.reshape(k, dim, dim)))


def combine_class_sums(
    sums: dict[tuple[int, ...], np.ndarray],
    weight: Callable[[tuple[int, ...]], float],
    scale: float,
) -> np.ndarray:
    """(scale / n!) * sum_mu weight(mu) C_mu over the class sums of S_n, as
    a real matrix: every permutation operator is real.

    weight receives the cycle type as a non-increasing tuple of cycle
    lengths. With integer weights the sum is exact, so the result equals the
    per permutation accumulation entry for entry.
    """
    n = sum(next(iter(sums)))  # every key is a cycle type of n points
    acc = np.asarray(sum(weight(mu) * c for mu, c in sums.items()), dtype=float)
    acc *= scale / math.factorial(n)
    return acc


def symmetrizer(
    local_dim: int, n: int, memory_cap: int | None = DEFAULT_MEMORY_CAP
) -> np.ndarray:
    """Projector onto the symmetric subspace: the average of all n! copy
    permutations. Trace equals C(local_dim + n - 1, n).

    A dense test oracle, off the protocol path; symmetric_basis factors it
    at far lower cost. class_sums checks the memory cap on an estimate
    larger than this output.
    """
    return combine_class_sums(class_sums(local_dim, n, memory_cap), lambda _: 1.0, 1.0)


def symmetric_basis(
    local_dim: int, n: int, memory_cap: int | None = DEFAULT_MEMORY_CAP
) -> np.ndarray:
    """Orthonormal basis of the symmetric subspace, one column per multiset.

    Columns V[:, k] satisfy V @ V.T == symmetrizer(local_dim, n); the
    low-rank factor makes traces against the symmetric projector cheap. The
    entries are real. Column k belongs to the k-th multiset in
    combinations_with_replacement order and holds 1/sqrt(#arrangements) on
    every arrangement of it.

    Each basis index's digits, sorted, name its multiset; their radix codes
    order the multisets lexicographically, which is the
    combinations_with_replacement order, so np.unique gives each index's
    column and each multiset's arrangement count in one pass.
    """
    if local_dim < 1 or n < 1:
        raise ValidationError(f"need local_dim >= 1 and n >= 1, got {local_dim}, {n}")
    dim = local_dim**n
    rank = math.comb(local_dim + n - 1, n)
    check_memory_cap(dim * rank, memory_cap, f"symmetric basis ({dim} x {rank})")
    # a temporary digit table: (local_dim^n, n) is too large to cache
    codes = np.sort(_digits(local_dim, n), axis=1) @ _radix_weights(local_dim, n)
    _, col, count = np.unique(codes, return_inverse=True, return_counts=True)
    col = col.reshape(dim)
    v = np.zeros((dim, rank))
    v[np.arange(dim), col] = (1.0 / np.sqrt(count))[col]
    return v


# ---------------------------------------------------------------------------
# Small checks shared by projector-building code and tests
# ---------------------------------------------------------------------------


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def is_hermitian(a: np.ndarray, tol: float = 1e-10) -> bool:
    return frobenius(a - a.conj().T) <= tol * max(1.0, frobenius(a))


def is_projector(a: np.ndarray, tol: float = 1e-10) -> bool:
    if not is_hermitian(a, tol):
        return False
    return frobenius(a @ a - a) <= tol * max(1.0, frobenius(a))


def trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """Tr(a @ b) without forming the product or any temporary.

    A dense test oracle, off the protocol path.
    """
    return complex(np.einsum("ij,ji->", a, b))
