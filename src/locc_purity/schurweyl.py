"""Isotypic block projectors on copy chains and the doubled-chain symmetric
subspace projector.

Two index layouts appear on the doubled chain of n copies of a bipartite
system with local dimension d:

* chain-major: (A_1 ... A_n B_1 ... B_n) -- the natural layout for operators
  of the form X_A tensor X_B built from single-chain projectors;
* copy-major:  (A_1 B_1 A_2 B_2 ... A_n B_n) -- the layout in which each
  copy is one factor of dimension d^2, used for rho^{tensor n} and for the
  symmetric projector.

The translation between the two is a permutation of 2n tensor factors and is
exposed as a first-class, tested operation: getting it wrong transposes
blocks silently, so nothing here reorders indices ad hoc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantError, ValidationError
from .partitions import Partition, enumerate_partitions, hook_dim, mn_character, weyl_dim
from .tensorops import (
    DEFAULT_MEMORY_CAP,
    class_sums,
    combine_class_sums,
    frobenius,
    is_projector,
    kron,
    perm_operator,
    permuted_basis_index,
    symmetrizer,
)

PROJECTOR_TOL = 1e-10
TRACE_TOL = 1e-8


def _isotypic_projector(lam: Partition, sums: dict[tuple[int, ...], np.ndarray]) -> np.ndarray:
    """(d_lambda / n!) * sum_mu chi_lambda(mu) C_mu over the class sums C_mu."""
    chi = {ct.parts: mn_character(lam, ct) for ct in enumerate_partitions(lam.n, lam.n)}
    return combine_class_sums(sums, chi.__getitem__, hook_dim(lam))


def young_projector(
    lam: Partition, d: int, n: int, memory_cap: int | None = DEFAULT_MEMORY_CAP
) -> np.ndarray:
    """Central idempotent projecting (C^d)^{tensor n} onto the lambda block.

    Built as (d_lambda / n!) * sum_sigma chi_lambda(sigma) U(sigma), taken
    class by class from the integer class sums: always an orthogonal
    projector, unlike row/column Young symmetrizers.
    """
    if lam.n != n:
        raise ValidationError(f"{lam} is not a partition of {n}")
    if lam.rows > d:
        raise ValidationError(f"{lam} has more than {d} rows")
    return _isotypic_projector(lam, class_sums(d, n, memory_cap))


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


def build_projector_set(
    d: int,
    n: int,
    memory_cap: int | None = DEFAULT_MEMORY_CAP,
    verify: bool = True,
) -> IsotypicProjectorSet:
    """All isotypic projectors for (C^d)^{tensor n}, verified at build time.

    One pass over the n! permutations (class_sums) serves every P_lambda.
    """
    sums = class_sums(d, n, memory_cap)
    projs = {lam: _isotypic_projector(lam, sums) for lam in enumerate_partitions(n, d)}
    out = IsotypicProjectorSet(d=d, n=n, projectors=projs)
    if verify:
        _verify_projector_set(out)
    return out


def sym_projector_bipartite(
    d: int, n: int, memory_cap: int | None = DEFAULT_MEMORY_CAP
) -> np.ndarray:
    """Symmetric-subspace projector on (C^{d^2})^{tensor n}, copy-major layout.

    Each permuted factor is one whole copy A_i B_i; trace = C(d^2+n-1, n).
    A dense test oracle, off the protocol path: the protocol contracts
    through symmetric_basis.
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


def copy_to_chain_columns(cols: np.ndarray, d: int, n: int) -> np.ndarray:
    """Rows of a copy-major column block, reordered into chain-major layout.

    cols has shape ((d^2)^n, k). The result has shape (d^n, d^n, k), and
    entry [a, b, j] is the amplitude of |a_1..a_n>_A |b_1..b_n>_B in column
    j: the gather cols[chain_to_copy_index(d, n)], done as one transpose of
    the 2n digit axes. Contracting two such blocks over b and j gives a
    partial trace over chain B.
    """
    dim = (d * d) ** n
    if cols.ndim != 2 or cols.shape[0] != dim:
        raise ValidationError(
            f"column block shape {cols.shape} does not match (d^2)^n = {dim} rows"
        )
    k = cols.shape[1]
    digits = cols.reshape((d,) * (2 * n) + (k,))
    return digits.transpose(chain_interleave_permutation(n) + (2 * n,)).reshape(
        d**n, d**n, k
    )


def chain_to_copy_operator(
    d: int, n: int, memory_cap: int | None = DEFAULT_MEMORY_CAP
) -> np.ndarray:
    """Dense chain-to-copy unitary (for verification; prefer to_copy_major)."""
    return perm_operator(chain_interleave_permutation(n), d, memory_cap)


def to_copy_major(op_chain: np.ndarray, d: int, n: int) -> np.ndarray:
    """Conjugate a chain-major operator into copy-major layout.

    Equals C @ op_chain @ C.conj().T but implemented as an index shuffle.
    A dense test oracle, off the protocol path (copy_to_chain_columns
    reorders column blocks for the protocol).
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
    block's overlap from the partial trace over chain B (see protocol).
    """
    return to_copy_major(kron(p_a, p_b, memory_cap), d, n)
