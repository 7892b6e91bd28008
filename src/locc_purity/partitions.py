"""Young-index combinatorics.

Partition enumeration, unitary/symmetric-group irrep dimensions, symmetric
group characters and the central characters that key the Young indices,
Schur and complete homogeneous polynomials, entropies, and the
dimension/type-class bounds used by the acceptance-probability analysis.

All combinatorial quantities (dimensions, characters) are exact Python
integers; floats enter only at the probability layer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .errors import InvariantError, ValidationError

PROB_SUM_TOL = 1e-12


class Partition:
    """A non-increasing tuple of non-negative integers; trailing zeros dropped.

    Hashable and usable as a dict key. ``Partition((3, 0)) == Partition((3,))``.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        ps = [int(p) for p in parts]
        if any(p < 0 for p in ps):
            raise ValidationError(f"partition parts must be non-negative: {tuple(ps)}")
        if any(a < b for a, b in zip(ps, ps[1:])):
            raise ValidationError(f"partition parts must be non-increasing: {tuple(ps)}")
        while ps and ps[-1] == 0:
            ps.pop()
        self.parts = tuple(ps)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def rows(self) -> int:
        return len(self.parts)

    def padded(self, d: int) -> tuple[int, ...]:
        """Parts padded with zeros to length d (requires rows <= d)."""
        if self.rows > d:
            raise ValidationError(f"partition {self.parts} has more than {d} rows")
        return self.parts + (0,) * (d - self.rows)

    def type_vector(self, d: int) -> tuple[float, ...]:
        """The normalized type lambda/n as a length-d probability vector."""
        if self.n == 0:
            raise ValidationError("type vector undefined for the empty partition")
        return tuple(p / self.n for p in self.padded(d))

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self == Partition(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition{self.parts}"

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class DimensionRecord:
    """dim U_lambda, d_lambda = dim V_lambda, and their product dim W_lambda."""

    dim_u: int
    dim_v: int
    dim_w: int


def enumerate_partitions(n: int, d: int) -> list[Partition]:
    """All partitions of n into at most d parts, lexicographically decreasing."""
    if n < 0 or d < 1:
        raise ValidationError(f"need n >= 0 and d >= 1, got n={n}, d={d}")

    out: list[Partition] = []

    def descend(remaining: int, max_part: int, slots: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(Partition(prefix))
            return
        if slots == 0:
            return
        # smallest admissible first part: ceil(remaining / slots)
        lo = -(-remaining // slots)
        for first in range(min(remaining, max_part), lo - 1, -1):
            descend(remaining - first, first, slots - 1, prefix + [first])

    descend(n, n if n else 1, d, [])
    return out


def _ells(lam: Partition, d: int) -> list[int]:
    """The strictly decreasing sequence lambda_i + d - i, i = 1..d."""
    padded = lam.padded(d)
    return [padded[i] + d - 1 - i for i in range(d)]


def weyl_dim(lam: Partition, d: int) -> int:
    """Dimension of the SU(d) irrep with highest weight lambda, exact integer."""
    if d < 1:
        raise ValidationError(f"need d >= 1, got {d}")
    ls = _ells(lam, d)
    num = 1
    for i in range(d):
        for j in range(i + 1, d):
            num *= ls[i] - ls[j]
    den = 1
    for k in range(1, d):
        den *= math.factorial(k)
    dim, rem = divmod(num, den)
    if rem or dim <= 0:  # pragma: no cover - the formula always divides
        raise InvariantError(f"weyl_dim({lam}, {d}) is not a positive integer")
    return dim


def hook_dim(lam: Partition) -> int:
    """Dimension of the S_n irrep labeled by lambda, exact integer.

    Evaluated as n! * prod_{i<j}(l_i - l_j) / prod_i l_i! with l_i taken over
    the nonzero rows; agrees with the hook length formula.
    """
    r = lam.rows
    if r == 0:
        return 1
    ls = _ells(lam, r)
    num = math.factorial(lam.n)
    for i in range(r):
        for j in range(i + 1, r):
            num *= ls[i] - ls[j]
    den = 1
    for l in ls:
        den *= math.factorial(l)
    dim, rem = divmod(num, den)
    if rem or dim <= 0:  # pragma: no cover
        raise InvariantError(f"hook_dim({lam}) is not a positive integer")
    return dim


def dimension_record(lam: Partition, d: int) -> DimensionRecord:
    u = weyl_dim(lam, d)
    v = hook_dim(lam)
    return DimensionRecord(dim_u=u, dim_v=v, dim_w=u * v)


# ---------------------------------------------------------------------------
# Symmetric group characters (Murnaghan-Nakayama via beta-sets)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if not mu:
        return 1
    if all(c == 1 for c in mu):
        return hook_dim(Partition(lam))
    k = mu[0]
    rest = mu[1:]
    r = len(lam)
    beta = [lam[i] + r - 1 - i for i in range(r)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        crossed = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((beta_set - {b}) | {nb}, reverse=True)
        new_lam = tuple(new_beta[i] - (r - 1 - i) for i in range(r))
        trimmed = tuple(p for p in new_lam if p)
        total += (-1) ** crossed * _character(trimmed, rest)
    return total


def mn_character(lam: Partition, cycle_type: Partition) -> int:
    """Irreducible character chi_lambda on the class with the given cycle type."""
    if lam.n != cycle_type.n:
        raise ValidationError(
            f"weight mismatch: lambda sums to {lam.n}, cycle type to {cycle_type.n}"
        )
    return _character(lam.parts, cycle_type.parts)


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


# ---------------------------------------------------------------------------
# Symmetric polynomials
# ---------------------------------------------------------------------------


def complete_homogeneous(n: int, mu: Sequence[float]) -> float:
    """h_n(mu): sum over all degree-n monomials with non-decreasing indices.

    Computed by the variable-at-a-time recurrence; all terms are non-negative
    for non-negative inputs, so there is no cancellation.
    """
    if n < 0:
        raise ValidationError(f"need n >= 0, got {n}")
    h = [0.0] * (n + 1)
    h[0] = 1.0
    for x in mu:
        for k in range(1, n + 1):
            h[k] += x * h[k - 1]
    return h[n]


def _schur_branching(xs: tuple[float, ...]) -> Callable[[tuple[int, ...]], float]:
    """s_mu(x_1..x_k), k = len(mu), by the branching rule, memoized for the
    life of the returned function, so every lambda of one p shares it."""

    @lru_cache(maxsize=None)
    def branch(parts: tuple[int, ...]) -> float:
        if not parts:
            return 1.0
        k = len(parts)
        size = sum(parts)
        inner = (range(parts[i + 1], parts[i] + 1) for i in range(k - 1))
        return sum(
            xs[k - 1] ** (size - sum(mu)) * branch(mu) for mu in itertools.product(*inner)
        )

    return branch


def schur_polynomial(lam: Partition, p: Sequence[float]) -> float:
    """Schur polynomial s_lambda(p) by the branching rule

        s_lambda(x_1..x_k) = sum_mu x_k^{|lambda| - |mu|} s_mu(x_1..x_{k-1})

    over the mu that interlace lambda, lambda_1 >= mu_1 >= lambda_2 >= ...
    >= mu_{k-1} >= lambda_k, memoized per call (Macdonald I.5). Every term
    of a non-negative input is non-negative, so nothing cancels: an
    exponentially small value keeps its relative accuracy, and repeated
    entries need no special case.
    """
    m = len(p)
    if lam.rows > m:
        raise ValidationError(f"partition {lam} has more rows than variables ({m})")
    return _schur_branching(tuple(float(x) for x in p))(lam.padded(m))


# ---------------------------------------------------------------------------
# Entropies and the type-class bounds
# ---------------------------------------------------------------------------


def validate_probability_vector(q: Sequence[float], name: str = "q") -> None:
    if not all(math.isfinite(x) for x in q):
        raise ValidationError(f"{name} has non-finite entries: {tuple(q)}")
    if any(x < -PROB_SUM_TOL for x in q):
        raise ValidationError(f"{name} has negative entries: {tuple(q)}")
    if abs(sum(q) - 1.0) > PROB_SUM_TOL:
        raise ValidationError(f"{name} does not sum to 1: sum={sum(q)!r}")


def shannon_entropy(q: Sequence[float]) -> float:
    """Entropy in nats; 0 log 0 = 0."""
    validate_probability_vector(q)
    return -sum(x * math.log(x) for x in q if x > 0.0) + 0.0


def kl_divergence(q: Sequence[float], p: Sequence[float]) -> float:
    """Relative entropy D(q||p) in nats; +inf where q charges a p-null entry."""
    validate_probability_vector(q, "q")
    validate_probability_vector(p, "p")
    if len(q) != len(p):
        raise ValidationError(f"length mismatch: {len(q)} vs {len(p)}")
    total = 0.0
    for qi, pi in zip(q, p):
        if qi <= 0.0:
            continue
        if pi <= 0.0:
            return math.inf
        total += qi * (math.log(qi) - math.log(pi))
    return total


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float
    holds: bool


def check_dim_entropy_bound(lam: Partition, n: int, d: int) -> BoundCheck:
    """Check |log(d_lambda)/n - H(lambda/n)| <= (d^2+2d)/(2n) * log(n+d)."""
    if lam.n != n:
        raise ValidationError(f"partition {lam} is not a partition of {n}")
    lhs = abs(math.log(hook_dim(lam)) / n - shannon_entropy(lam.type_vector(d)))
    rhs = (d * d + 2 * d) / (2 * n) * math.log(n + d)
    return BoundCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs)


@dataclass(frozen=True)
class TypeRegionCheck:
    lhs: float
    rhs: float
    holds: bool
    d_min: float
    n_members: int


RegionPredicate = Callable[[tuple[float, ...]], bool]


def type_region_bound(
    region: RegionPredicate, p: Sequence[float], n: int, d: int
) -> TypeRegionCheck:
    """Mass of the Young-index types inside a region vs. its large-deviation cap.

    lhs sums d_lambda * s_lambda(p) over partitions whose normalized type
    lambda/n satisfies the region predicate; rhs is
    (n+1)^(d(d+1)/2) * exp(-n * min D(q||p)) with the minimum taken over the
    region's normalized Young indices (the same finite grid as the lhs).
    Every lambda takes s_lambda(p) from one branching memo. s_lambda is
    homogeneous of degree n, so the memo runs on 2^t p, t making the largest
    p_i at most 1 and above 1/2, and each term is d_lambda 2^{-tn} times
    s_lambda(2^t p): the scale is exact, so nothing changes where s_lambda(p)
    was a normal float, and at p = (1/2, 1/2) it no longer underflows from
    n = 1075 on. A d_lambda too large for a float multiplies s_lambda as an
    exact integer ratio, rounded once.
    """
    validate_probability_vector(p, "p")
    if len(p) != d:
        raise ValidationError(f"p must have length d={d}, got {len(p)}")
    mantissa, exponent = math.frexp(max(float(x) for x in p))
    t = (mantissa == 0.5) - exponent
    schur = _schur_branching(tuple(math.ldexp(float(x), t) for x in p))
    lhs = 0.0
    d_min = math.inf
    members = 0
    for lam in enumerate_partitions(n, d):
        q = lam.type_vector(d)
        if not region(q):
            continue
        members += 1
        d_lam, s_lam = hook_dim(lam), schur(lam.padded(d))
        try:
            lhs += math.ldexp(d_lam, -t * n) * s_lam
        except OverflowError:  # d_lambda is past the float range, d_lambda s_lambda is not
            num, den = s_lam.as_integer_ratio()
            lhs += d_lam * num / (den << t * n)
        d_min = min(d_min, kl_divergence(q, p))
    rhs = (n + 1) ** (d * (d + 1) / 2) * math.exp(-n * d_min)
    return TypeRegionCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs, d_min=d_min, n_members=members)
