"""Isotypic block projectors on copy chains and the doubled-chain symmetric
subspace projector.

The chain projectors P_lambda are the spectral projectors of the 2- and
3-cycle class sums, rounded onto their exact class-sum formula; they are
test oracles. Only their integer keys (class_sum_keys) are on the protocol
path, which takes the isotypic projectors on the symmetric subspace
instead (protocol._pass_tables).

Two index layouts appear on the doubled chain of n copies of a bipartite
system with local dimension d:

* chain-major: (A_1 ... A_n B_1 ... B_n) -- the natural layout for operators
  of the form X_A tensor X_B built from single-chain projectors;
* copy-major:  (A_1 B_1 A_2 B_2 ... A_n B_n) -- the layout in which each
  copy is one factor of dimension d^2, used for rho^{tensor n} and for the
  symmetric projector.

The translation between the two is a permutation of 2n tensor factors. The
dense doubled-chain operators and the reorder between the layouts are test
oracles: the protocol never builds a (d^2)^n-sized array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantError, ValidationError
from .partitions import Partition, enumerate_partitions, hook_dim, weyl_dim
from .tensorops import (
    DEFAULT_MEMORY_CAP,
    check_memory_cap,
    cycle_class_sum,
    frobenius,
    is_projector,
    kron,
    permuted_basis_index,
    symmetrizer,
)

PROJECTOR_TOL = 1e-10
TRACE_TOL = 1e-8
SNAP_TOL = 1e-3  # largest distance of (n!/d_lambda) P_lambda from its integers


def young_projector(
    lam: Partition, d: int, n: int, memory_cap: int | None = DEFAULT_MEMORY_CAP
) -> np.ndarray:
    """Central idempotent (d_lambda / n!) sum_sigma chi_lambda(sigma) U(sigma)
    projecting (C^d)^{tensor n} onto the lambda block, from the unverified
    build_projector_set: always an orthogonal projector, unlike row/column
    Young symmetrizers."""
    if lam.n != n:
        raise ValidationError(f"{lam} is not a partition of {n}")
    if lam.rows > d:
        raise ValidationError(f"{lam} has more than {d} rows")
    return build_projector_set(d, n, memory_cap, verify=False).projectors[lam]


@dataclass
class IsotypicProjectorSet:
    """The complete family {P_lambda} on one chain (C^d)^{tensor n}."""

    d: int
    n: int
    projectors: dict[Partition, np.ndarray] = field(repr=False)

    @property
    def partitions(self) -> list[Partition]:
        return list(self.projectors)


def _verify_projector_set(s: IsotypicProjectorSet) -> None:
    dim = s.d**s.n
    parts = s.partitions
    total = np.zeros((dim, dim))
    for lam, p in s.projectors.items():
        if not is_projector(p, PROJECTOR_TOL):
            raise InvariantError(f"P_{lam} (d={s.d}, n={s.n}) is not a projector")
        expected = weyl_dim(lam, s.d) * hook_dim(lam)
        tr = float(np.trace(p))
        if abs(tr - expected) > TRACE_TOL:
            raise InvariantError(
                f"trace(P_{lam}) = {tr!r}, expected {expected} (d={s.d}, n={s.n})"
            )
        total += p
    if frobenius(total - np.eye(dim)) > PROJECTOR_TOL * max(1.0, math.sqrt(dim)):
        raise InvariantError(f"sum of projectors is not the identity (d={s.d}, n={s.n})")
    for i, lam in enumerate(parts):
        for mu in parts[i + 1 :]:
            if frobenius(s.projectors[lam] @ s.projectors[mu]) > PROJECTOR_TOL:
                raise InvariantError(f"P_{lam} P_{mu} != 0 (d={s.d}, n={s.n})")


def central_characters(lam: Partition) -> tuple[int, int]:
    """(omega_2, omega_3): omega_k = |C_k| chi_lambda(C_k) / d_lambda is the
    integer by which the k-cycle class sum acts on the lambda block.

    The Jucys-Murphy elements act on the Young basis by the contents c = j - i
    of the boxes (Okounkov-Vershik), and their power sums are the class
    sums: T_2 = sum_i X_i and sum_i X_i^2 = C(n, 2) + T_3, so omega_2 = sum c
    and omega_3 = sum c^2 - C(n, 2).
    """
    contents = [j - i for i, row in enumerate(lam.parts) for j in range(row)]
    return sum(contents), sum(c * c for c in contents) - math.comb(lam.n, 2)


def class_sum_keys(d: int, n: int) -> tuple[int, dict[Partition, int]]:
    """(K, key): A = K T_2 + T_3, K = 2 max |omega_3| + 1, acts on the
    lambda block as the integer key[lambda] = K omega_2 + omega_3, for every
    Young index with at most d rows. Distinct (omega_2, omega_3) give keys at
    least 1 apart; if two Young indices share a key, InvariantError."""
    omega = {lam: central_characters(lam) for lam in enumerate_partitions(n, d)}
    spread = 2 * max(abs(w3) for _, w3 in omega.values()) + 1
    key = {lam: spread * w2 + w3 for lam, (w2, w3) in omega.items()}
    if len(set(key.values())) < len(key):
        raise InvariantError(
            f"the 2- and 3-cycle central characters do not separate the Young "
            f"indices (d={d}, n={n})"
        )
    return spread, key


def projector_set_memory_entries(d: int, n: int) -> int:
    """Complex-entry equivalent of build_projector_set's live set, the figure
    its memory cap is checked against: one real d^n x d^n matrix per Young
    index and four more (T_2 and T_3, or A and U), which also cover eigh's
    untraced LAPACK copy of A and workspace."""
    blocks = len(enumerate_partitions(n, d))
    return -(-(4 + blocks) * d ** (2 * n) // 2)


def _spectral_projectors(d: int, n: int) -> dict[Partition, np.ndarray]:
    """Every P_lambda on (C^d)^{tensor n} from one eigh.

    A = K T_2 + T_3 acts on the lambda block as an integer key (see
    class_sum_keys), and P_lambda = U U^T over the eigenvalues within 0.5 of
    the key. (n!/d_lambda) P_lambda is the integer matrix sum_sigma
    chi_lambda(sigma) U(sigma): rounding to it (at most SNAP_TOL away) and
    scaling by d_lambda/n! gives the exact class sum's every entry.
    """
    spread, key = class_sum_keys(d, n)
    a = cycle_class_sum(d, n, 2, None)
    a *= spread
    a += cycle_class_sum(d, n, 3, None)
    eigval, u = np.linalg.eigh(a)
    del a
    total = math.factorial(n)
    projs = {}
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
        projs[lam] = snapped
    return projs


def build_projector_set(
    d: int,
    n: int,
    memory_cap: int | None = DEFAULT_MEMORY_CAP,
    verify: bool = True,
) -> IsotypicProjectorSet:
    """All isotypic projectors for (C^d)^{tensor n}, verified at build time,
    from one eigendecomposition of the 2- and 3-cycle class sums. The memory
    cap is checked once, up front, against projector_set_memory_entries.
    """
    check_memory_cap(
        projector_set_memory_entries(d, n),
        memory_cap,
        f"isotypic projector set (d={d}, n={n})",
    )
    out = IsotypicProjectorSet(d=d, n=n, projectors=_spectral_projectors(d, n))
    if verify:
        _verify_projector_set(out)
    return out


def sym_projector_bipartite(
    d: int, n: int, memory_cap: int | None = DEFAULT_MEMORY_CAP
) -> np.ndarray:
    """Symmetric-subspace projector on (C^{d^2})^{tensor n}, copy-major layout.

    Each permuted factor is one whole copy A_i B_i; trace = C(d^2+n-1, n).
    A dense test oracle, off the protocol path: the protocol works on the
    symmetric subspace itself (tensorops.symmetric_power).
    """
    return symmetrizer(d * d, n, memory_cap)


# ---------------------------------------------------------------------------
# Chain-major <-> copy-major reordering
# ---------------------------------------------------------------------------


def chain_interleave_permutation(n: int) -> tuple[int, ...]:
    """Factor permutation sending chain-major to copy-major order.

    Position i < n (A_i) goes to 2i; position n+i (B_i) goes to 2i+1. Feeding
    this to perm_operator over 2n factors of dimension d yields the unitary C
    with C |a_1..a_n b_1..b_n> = |a_1 b_1 ... a_n b_n>.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    return tuple(2 * i for i in range(n)) + tuple(2 * i + 1 for i in range(n))


def chain_to_copy_index(d: int, n: int) -> np.ndarray:
    """Basis-index image pi of the chain-to-copy unitary: C e_x = e_pi[x]."""
    return permuted_basis_index(chain_interleave_permutation(n), d)


def to_copy_major(op_chain: np.ndarray, d: int, n: int) -> np.ndarray:
    """Conjugate a chain-major operator into copy-major layout.

    Equals C @ op_chain @ C.conj().T but implemented as an index shuffle.
    A dense test oracle, off the protocol path.
    """
    dim = (d * d) ** n
    if op_chain.shape != (dim, dim):
        raise ValidationError(
            f"operator shape {op_chain.shape} does not match (d^2)^n = {dim}"
        )
    inv = np.argsort(chain_to_copy_index(d, n))
    return op_chain[np.ix_(inv, inv)]


def ab_block_projector(
    p_a: np.ndarray, p_b: np.ndarray, d: int, n: int,
    memory_cap: int | None = DEFAULT_MEMORY_CAP,
) -> np.ndarray:
    """P_A tensor P_B on the doubled chain, returned in copy-major layout.

    A dense test oracle, off the protocol path: the protocol takes each
    block's overlap on the symmetric subspace (see protocol).
    """
    return to_copy_major(kron(p_a, p_b, memory_cap), d, n)
