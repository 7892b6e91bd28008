"""Dense operator arithmetic on tensor-product spaces.

Index convention: basis states of (C^k)^{tensor n} carry mixed-radix digit
strings (i_1, ..., i_n), most significant digit first, so the flat basis
index is sum_m i_m * k^(n-m). Copy permutations act on digit positions.

No code here visits the n! permutations. The k-cycle class sums T_k, from
which schurweyl takes the isotypic projectors, are one gather over the
O(n^k) cycles; the symmetrizer and the symmetric basis are filled from the
sorted digit rows of the basis indices. All of them are real.

Every dense allocation is gated by a memory cap (default 2 GiB); exceeding
it raises MemoryCapError with the computed estimate instead of crashing.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import MemoryCapError, ValidationError

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


def cycle_class_sum(
    local_dim: int, n: int, k: int, memory_cap: int | None = DEFAULT_MEMORY_CAP
) -> np.ndarray:
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
    # every k-cycle once, as its points in cycle order from the smallest
    cycles = np.array([c for c in itertools.permutations(range(n), k) if c[0] == min(c)])
    weights = _radix_weights(local_dim, n)
    step = weights[cycles[:, (np.arange(k) + 1) % k]] - weights[cycles]
    x = np.arange(dim)[:, None]
    images = x + np.einsum("xcj,cj->xc", _digit_table(local_dim, n)[:, cycles], step)
    counts = np.bincount((images * dim + x).ravel(), minlength=dim * dim)
    return counts.reshape(dim, dim).astype(float)


def _multisets(local_dim: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The multiset column of every basis index, and the number of
    arrangements of every multiset, in combinations_with_replacement order.

    Each basis index's digits, sorted, name its multiset; their radix codes
    order the multisets lexicographically, which is the
    combinations_with_replacement order, so np.unique gives both in one pass.
    """
    # a temporary digit table: (local_dim^n, n) is too large to cache
    codes = np.sort(_digits(local_dim, n), axis=1) @ _radix_weights(local_dim, n)
    _, col, count = np.unique(codes, return_inverse=True, return_counts=True)
    return col.reshape(local_dim**n), count


def symmetrizer(
    local_dim: int, n: int, memory_cap: int | None = DEFAULT_MEMORY_CAP
) -> np.ndarray:
    """Projector onto the symmetric subspace: the average of all n! copy
    permutations. Trace equals C(local_dim + n - 1, n).

    Entry (y, x) is (n! // count) * (1/n!) where x and y are arrangements
    of one multiset that has count of them, and 0 elsewhere. A dense test
    oracle, off the protocol path; symmetric_basis factors it at far lower
    cost.
    """
    if local_dim < 1 or n < 1:
        raise ValidationError(f"need local_dim >= 1 and n >= 1, got {local_dim}, {n}")
    dim = local_dim**n
    check_memory_cap(dim * dim, memory_cap, f"symmetrizer of dimension {dim}")
    col, count = _multisets(local_dim, n)
    total = math.factorial(n)
    entry = (total // count) * (1.0 / total)
    return np.where(col[:, None] == col, entry[col], 0.0)


def symmetric_basis(
    local_dim: int, n: int, memory_cap: int | None = DEFAULT_MEMORY_CAP
) -> np.ndarray:
    """Orthonormal basis of the symmetric subspace, one column per multiset.

    Columns V[:, k] satisfy V @ V.T == symmetrizer(local_dim, n); the
    low-rank factor makes traces against the symmetric projector cheap. The
    entries are real. Column k belongs to the k-th multiset in
    combinations_with_replacement order and holds 1/sqrt(#arrangements) on
    every arrangement of it.
    """
    if local_dim < 1 or n < 1:
        raise ValidationError(f"need local_dim >= 1 and n >= 1, got {local_dim}, {n}")
    dim = local_dim**n
    rank = math.comb(local_dim + n - 1, n)
    check_memory_cap(dim * rank, memory_cap, f"symmetric basis ({dim} x {rank})")
    col, count = _multisets(local_dim, n)
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
