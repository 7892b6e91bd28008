"""Dense operator arithmetic on tensor-product spaces.

Index convention: basis states of (C^k)^{tensor n} carry mixed-radix digit
strings (i_1, ..., i_n), most significant digit first, so the flat basis
index is sum_m i_m * k^(n-m). Copy permutations act on digit positions.

No code here visits the n! permutations. The symmetrizer and the symmetric
basis are filled from the letter counts of the basis indices, which
multiset_rank turns into rows of multiset_table, exactly in int64. They,
kron, perm_operator and trace_product are test oracles, off the protocol
path; the chain class sums T_k are one too, in tests/oracles.py. On the
protocol path, symmetric_power gives op^{tensor n} on the symmetric
subspace as an R x R matrix, R = C(k+n-1, n), by a recursion over
multiset tables: per block of rows of a level, one gather of the previous
level's columns and one of op's, one row per distinct letter (at most k),
their product and one sum; a row with fewer letters reads a zero row. The
recursion runs in the monomial frame G = C Gamma C^{-1},
C = diag(1 / sqrt(alpha!)), where an entry is a permanent of op over
alpha!, so no level scales a row or a column; the protocol contracts G
itself and symmetric_power applies C once at the end. multiset_cycle_moves
gives chain A's k-cycle class sums on Sym^n(C^d x C^d) as moves of its
occupied modes, at most min(n, d^2) per multiset, with no cycle and no sort
of the n letters.

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


def _multisets(local_dim: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The multiset column of every basis index (the rank of its digits'
    occupation) and the number of arrangements of every multiset."""
    col = multiset_rank((_digits(local_dim, n)[:, :, None] == np.arange(local_dim)).sum(axis=1))
    return col, np.bincount(col)


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


@lru_cache(maxsize=None)
def multiset_table(k: int, m: int) -> np.ndarray:
    """The m-multisets of range(k) as sorted rows, in the column order of
    symmetric_basis(k, m); cached read-only. The rows with first letter a
    are a placed before the last C(k - a + m - 2, m - 1) rows of level
    m - 1, the ones whose letters are all >= a."""
    table = np.zeros((1, 0), dtype=np.int64)
    if m:
        prev = multiset_table(k, m - 1)
        tail = [math.comb(k - a + m - 2, m - 1) for a in range(k)]
        at = np.concatenate([np.arange(len(prev) - t, len(prev)) for t in tail])
        table = np.column_stack([np.repeat(np.arange(k), tail), prev[at]])
    table.setflags(write=False)
    return table


def multiset_rank(occupation: np.ndarray) -> np.ndarray:
    """The row of multiset_table(k, m) with each occupation (last axis k):
    sum_{c < k-1} C(r_c + k - c - 2, k - c - 1), r_c the letters after c, in
    the combinatorial number system (Knuth, TAOCP 7.2.1.3). Every term is at
    most the row count, so int64 is exact wherever it holds C(k + m - 1, m)."""
    k = occupation.shape[-1]
    after = occupation[..., 1:].sum(axis=-1)  # r_0
    top = int(after.max(initial=0))
    rank = np.zeros_like(after)
    for c in range(k - 1):
        term = [math.comb(r + k - c - 2, k - c - 1) for r in range(top + 1)]
        rank += np.array(term, dtype=np.int64)[after]
        after -= occupation[..., c + 1]
    return rank


def multiset_occupation(k: int, m: int) -> np.ndarray:
    """(R, k): how often each letter occurs in each row of multiset_table(k, m)."""
    table = multiset_table(k, m)
    at = table + k * np.arange(len(table))[:, None]
    return np.bincount(at.ravel(), minlength=len(table) * k).reshape(len(table), k)


@lru_cache(maxsize=None)
def _rotation_classes(s: int, ks: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Index tables over the rotation classes of k-tuples t of range(s) for
    every k in ks, one row per tuple entry i, padded to w = max(ks) rows;
    cached read-only. The classes are the necklaces, each as its smallest
    rotation, in lexicographic order, found among the s^k tuples (k <= 3 on
    the protocol path). Returns the falling factors
    t_i w + #{j < i : t_j = t_i} (s w, a factor 1, when padded), the slot
    pairs t_{i-1} s + t_i (0, a copy keeping its letter, when padded), k
    over each class size, and the index of its k in ks."""
    width = max(ks)
    rows = []
    for kind, k in enumerate(ks):
        for t in itertools.product(range(s), repeat=k):
            rotations = {t[i:] + t[:i] for i in range(k)}
            if t != min(rotations):
                continue
            pad = width - k
            rows += [x * width + t[:i].count(x) for i, x in enumerate(t)] + [s * width] * pad
            rows += [t[i - 1] * s + x for i, x in enumerate(t)] + [0] * pad
            rows += [k // len(rotations), kind]
    table = np.array(rows).reshape(-1, 2 * width + 2).T
    table.setflags(write=False)
    return table[:width], table[width:-2], table[-2], table[-1]


def cycle_moves_memory_entries(d: int, n: int) -> int:
    """Complex entries live at the peak of multiset_cycle_moves(d, n, {2: .,
    3: .}) and of a scatter that reads its moves a few times over: the
    occupation, slot and target tables, grids over the classes of 2- and
    3-tuples of the slots, and at most one move per cycle of a multiset's
    copies, each with the occupation of its beta and the index temporaries
    of its hand-ons and its rank."""
    modes, s = d * d, min(n, d * d)
    rank = math.comb(modes + n - 1, n)
    classes = (s * (s + 1) // 2, (s**3 + 2 * s) // 3)
    # the w > 0: one per 2- and per 3-necklace of each alpha's occupied modes
    kept = (modes * (modes + 1) // 2) * math.comb(modes + n - 3, n - 2) if n > 1 else 0
    kept += (modes**3 + 2 * modes) // 3 * math.comb(modes + n - 4, n - 3) if n > 2 else 0
    return (rank * (2 * modes + 4 * s * s + 2 * sum(classes)) + kept * (modes + 9)) // 2


def multiset_cycle_moves(
    d: int, n: int, coefficients: dict[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """t = sum_k coefficients[k] t_k, t_k chain A's k-cycle class sum on
    Sym^n(C^d x C^d), as moves of the modes m = a d + b of multiset_table.

    A k-cycle of copies carrying m_0 .. m_{k-1} hands each A letter on, so
    it sends alpha to beta = alpha - sum_i e_{m_i} + sum_i e_{(a_{i-1}, b_i)};
    a rotation of the tuple changes neither beta nor the number of cycles,
    which over one tuple tau per rotation class of alpha's occupied modes
    (at most min(n, d^2) slots) is w(tau) = (class size / k)
    prod_i (alpha_{m_i} - #{j < i : m_j = m_i}). Returns (alpha, beta, c_k w)
    over the w > 0, and t[beta, alpha] = (sqrt(beta!) / sqrt(alpha!)) sum c_k w,
    sqrt(alpha!) from _root_factorials. Each kept move's beta is formed as an
    occupation and found by multiset_rank.
    """
    modes = d * d
    occupation = multiset_occupation(modes, n)
    rank, s = len(occupation), min(n, modes)
    slot = np.argsort(occupation == 0, axis=1)[:, :s]  # the occupied modes first
    count = occupation[np.arange(rank)[:, None], slot]
    # the mode of the copy at slot q once it takes the A letter of slot p
    target = ((slot // d * d)[:, :, None] + slot[:, None, :] % d).reshape(rank, s * s)
    factor_at, step, fold, kind = _rotation_classes(s, tuple(coefficients))
    falling = np.ones((rank, s * len(step) + 1))
    falling[:, :-1] = (count[:, :, None] - np.arange(len(step))).reshape(rank, -1)
    weight = falling[:, factor_at[0]]
    for i in range(1, len(step)):
        weight *= falling[:, factor_at[i]]
    weight /= fold
    weight *= np.array(list(coefficients.values()))[kind]
    at = np.flatnonzero(weight)
    alpha, tau = np.divmod(at, len(fold))
    beta = occupation[alpha]
    flat, row = beta.ravel(), np.arange(0, beta.size, modes)  # flat is a view
    for pair in step:
        pair = pair[tau]
        flat[row + target[alpha, pair]] += 1
        flat[row + slot[alpha, pair % s]] -= 1
    return alpha, multiset_rank(beta), weight.ravel()[at]


@lru_cache(maxsize=None)
def _power_step(k: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index tables of step m of the monomial-frame power on k modes (see
    symmetric_power); cached read-only.

    Column beta is a^dagger_f |beta'>, f its smallest mode and
    beta' = beta - e_f, so G_m[alpha, beta] sums G_{m-1}[alpha', beta']
    op[j, f] over the slots (alpha', j) = (alpha - e_j, j) of row alpha, j
    running over the distinct letters of its multiset, smallest first. A
    slot holds alpha' k + j. Every (alpha', j) is a slot of exactly one
    alpha, ranked from the occupation alpha' + e_j, at the slot that counts
    the distinct letters of alpha' below j. A multiset has at most min(m, k)
    distinct letters; a dead slot left over holds k R_{m-1}, which names
    alpha' = R_{m-1}: the zero row of _column_gather. Returns beta' and f of every column, and the
    (R_m, min(m, k)) row slots.
    """
    prev, cur = multiset_occupation(k, m - 1), multiset_table(k, m)
    up = multiset_rank((prev[:, None, :] + np.eye(k, dtype=np.int64)).reshape(-1, k))
    below = np.cumsum(prev > 0, axis=1) - (prev > 0)
    rows = np.full((len(cur), min(m, k)), len(prev) * k)
    rows[up, below.ravel()] = np.arange(len(up))
    tables = (rows[:, 0] // k, cur[:, 0], rows)
    for t in tables:
        t.setflags(write=False)
    return tables


@lru_cache(maxsize=None)
def _root_factorials(k: int, m: int) -> np.ndarray:
    """sqrt(alpha!) = sqrt(prod_j alpha_j!) for every row alpha of
    multiset_table(k, m), the similarity of the monomial frame; cached
    read-only. Each factorial is exact or correctly rounded; m! must be a
    float, so m is at most 170, and a larger m is a ValidationError."""
    if m > 170:
        raise ValidationError(
            f"n = {m}: the monomial frame takes sqrt(alpha!) from n! as a float, "
            f"which overflows past n = 170"
        )
    factorial = np.array([math.factorial(i) for i in range(m + 1)], dtype=float)
    root = np.sqrt(factorial[multiset_occupation(k, m)].prod(axis=1))
    root.setflags(write=False)
    return root


# entries of one gather of a block of rows in _power_level: its two
# gathers, 256 KiB of complex values each, stay in a core's L2 cache. On a
# 2-core Xeon VM with 4 MiB of L2 per core, 8000 entries took 12-16 %
# longer at (4, 15) and (9, 5).
_GATHER_BLOCK = 16384


def level_memory_entries(k: int, m: int, rank: int) -> int:
    """Complex entries live at the peak of a _power_level of rank rows and
    columns at level m: the column gather and the op columns, next to either
    G_{m-1} or the output and one block (two gathers and their indices)."""
    prev, slots = math.comb(k + m - 2, m - 1), min(m, k)
    rows = min(rank, max(1, _GATHER_BLOCK // (slots * rank)))
    return (prev + 1 + k) * rank + max(prev * prev, rank * rank + rows * slots * (2 * rank + 1))


def _column_gather(gamma: np.ndarray, prime: np.ndarray) -> np.ndarray:
    """The columns prime of G_{m-1} over one zero row, for _power_level."""
    cols = np.zeros((len(gamma) + 1, len(prime)), dtype=gamma.dtype)
    # mode="clip" (prime is in range): a "raise" take into out= copies via a buffer
    np.take(gamma, prime, axis=1, out=cols[:-1], mode="clip")
    return cols


def _power_level(cols: np.ndarray, op: np.ndarray, low: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """G_m on the rows of the slots rows and the columns of the modes low
    (see _power_step), from the _column_gather of G_{m-1} there: per block
    of rows one gather of it and one of the op columns by the slots, their
    product, and one sum over the slots; a dead slot reads the zero row."""
    k = op.shape[0]
    ops, size = op.take(low, axis=1), max(1, _GATHER_BLOCK // (rows.shape[1] * len(low)))
    out = np.empty((len(rows), len(low)), dtype=cols.dtype)
    for a in range(0, len(rows), size):
        src, letter = np.divmod(rows[a : a + size], k)
        terms = cols.take(src, axis=0)  # take: less call overhead than cols[src]
        terms *= ops.take(letter, axis=0)
        np.add.reduce(terms, axis=1, out=out[a : a + size])
    return out


def _monomial_power(op: np.ndarray, n: int) -> np.ndarray:
    """G_n = C Sym^n(op) C^{-1}, C = diag(1 / sqrt(alpha!)), in op's dtype
    (G_0 = [[1]]); unchecked and uncapped (see symmetric_power). One
    _power_level per level, on every row and column."""
    k, dtype = op.shape[0], np.result_type(op, float)
    gamma = np.array(op, dtype=dtype) if n else np.ones((1, 1), dtype)
    for m in range(2, n + 1):
        prime, low, rows = _power_step(k, m)
        cols = _column_gather(gamma, prime)
        del gamma  # not alive next to G_m
        gamma = _power_level(cols, op, low, rows)
        del cols  # not alive next to the next level's column gather
    return gamma


def symmetric_power(
    op: np.ndarray, n: int, memory_cap: int | None = DEFAULT_MEMORY_CAP
) -> np.ndarray:
    """Gamma = V^T op^{tensor n} V = Sym^n(op), V = symmetric_basis(k, n):
    R x R, R = C(k + n - 1, n), with no k^n-sized array.

    The recursion runs in the monomial frame G = C Gamma C^{-1},
    C = diag(1 / sqrt(alpha!)): on the unnormalised monomials of the
    symmetric subspace, G[alpha, beta] = per(op[a(alpha), b(beta)]) / alpha!
    with a(alpha) the letters of alpha (Bhatia, Matrix Analysis, ch. I), and
    expanding the permanent along the column of f, the smallest mode of
    beta, gives from G_1 = op

      G_m[alpha, beta] = sum_j op[j, f] G_{m-1}[alpha - e_j, beta - e_f]

    with no square root (_monomial_power). The similarity
    Gamma[alpha, beta] = G[alpha, beta] sqrt(alpha!) / sqrt(beta!) is
    applied once, in place, at the end.
    """
    if op.ndim != 2 or op.shape[0] != op.shape[1] or n < 1:
        raise ValidationError(f"need a square matrix and n >= 1, got {op.shape}, {n}")
    k = op.shape[0]
    entries = level_memory_entries(k, n, math.comb(k + n - 1, n))
    check_memory_cap(entries, memory_cap, f"symmetric power (k={k}, n={n})")
    gamma = _monomial_power(op, n)
    root = _root_factorials(k, n)
    gamma *= root[:, None]
    gamma /= root
    return gamma


def trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """Tr(a @ b) without forming the product or any temporary.

    A dense test oracle, off the protocol path.
    """
    return complex(np.einsum("ij,ji->", a, b))
