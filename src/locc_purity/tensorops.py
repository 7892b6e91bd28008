"""Dense complex operator arithmetic on tensor-product spaces.

Index convention: basis states of (C^k)^{tensor n} carry mixed-radix digit
strings (i_1, ..., i_n), most significant digit first, so the flat basis
index is sum_m i_m * k^(n-m). Copy permutations act on digit positions.

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

DEFAULT_MEMORY_CAP = 2 * 1024**3
_COMPLEX_BYTES = 16


def dense_matrix_bytes(dim: int) -> int:
    """Bytes needed for one dim x dim complex128 matrix."""
    return _COMPLEX_BYTES * dim * dim


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


@lru_cache(maxsize=None)
def _digit_table(local_dim: int, n: int) -> np.ndarray:
    """(local_dim^n, n) table of mixed-radix digits, most significant first."""
    dim = local_dim**n
    idx = np.arange(dim)
    table = np.empty((dim, n), dtype=np.int64)
    for pos in range(n - 1, -1, -1):
        table[:, pos] = idx % local_dim
        idx = idx // local_dim
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


def _cycle_type(sigma: tuple[int, ...]) -> tuple[int, ...]:
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


def class_sum(
    local_dim: int,
    n: int,
    weight: Callable[[tuple[int, ...]], float],
    scale: float,
    memory_cap: int | None = DEFAULT_MEMORY_CAP,
) -> np.ndarray:
    """(scale / n!) * sum_sigma weight(cycle type of sigma) U(sigma) over all
    n! copy permutations of (C^local_dim)^{tensor n}, as a dense matrix.

    weight receives the cycle type as a non-increasing tuple of cycle lengths.
    Every dense class-sum operator (symmetrizer, isotypic projectors) is built
    here.
    """
    if local_dim < 1 or n < 1:
        raise ValidationError(f"need local_dim >= 1 and n >= 1, got {local_dim}, {n}")
    dim = local_dim**n
    check_memory_cap(dim * dim, memory_cap, f"permutation class sum of dimension {dim}")
    acc = np.zeros((dim, dim), dtype=float)
    x = np.arange(dim)
    for sig in itertools.permutations(range(n)):
        acc[permuted_basis_index(sig, local_dim), x] += weight(_cycle_type(sig))
    acc *= scale / math.factorial(n)
    return acc.astype(complex)


def symmetrizer(
    local_dim: int, n: int, memory_cap: int | None = DEFAULT_MEMORY_CAP
) -> np.ndarray:
    """Projector onto the symmetric subspace: the average of all n! copy
    permutations. Trace equals C(local_dim + n - 1, n).

    A dense test oracle, off the protocol path; symmetric_basis factors it
    at far lower cost.
    """
    return class_sum(local_dim, n, lambda _: 1.0, 1.0, memory_cap)


def symmetric_basis(
    local_dim: int, n: int, memory_cap: int | None = DEFAULT_MEMORY_CAP
) -> np.ndarray:
    """Orthonormal basis of the symmetric subspace, one column per multiset.

    Columns V[:, k] satisfy V @ V.T == symmetrizer(local_dim, n); the
    low-rank factor makes traces against the symmetric projector cheap. The
    entries are real.
    """
    if local_dim < 1 or n < 1:
        raise ValidationError(f"need local_dim >= 1 and n >= 1, got {local_dim}, {n}")
    dim = local_dim**n
    rank = math.comb(local_dim + n - 1, n)
    check_memory_cap(dim * rank, memory_cap, f"symmetric basis ({dim} x {rank})")
    weights = _radix_weights(local_dim, n)
    v = np.zeros((dim, rank))
    for col, multiset in enumerate(itertools.combinations_with_replacement(range(local_dim), n)):
        arrangements = set(itertools.permutations(multiset))
        amp = 1.0 / math.sqrt(len(arrangements))
        for arr in arrangements:
            v[int(np.dot(arr, weights)), col] = amp
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
