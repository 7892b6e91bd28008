"""Young-index combinatorics against independent oracles.

Oracles used here and nowhere in the library: brute-force partition
enumeration, semistandard-tableau counting/monomial sums, hook-length
products over the diagram, multiset sums for complete homogeneous
polynomials, and character orthogonality.
"""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from locc_purity.errors import ValidationError
from locc_purity.partitions import (
    Partition,
    check_dim_entropy_bound,
    complete_homogeneous,
    dimension_record,
    enumerate_partitions,
    hook_dim,
    kl_divergence,
    mn_character,
    schur_polynomial,
    shannon_entropy,
    type_region_bound,
    weyl_dim,
)

from oracles import schur_exact

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def brute_partitions(n, d):
    """All partitions of n with at most d parts, by filtering tuples."""
    found = set()
    for parts in itertools.product(range(n + 1), repeat=d):
        if sum(parts) == n and all(a >= b for a, b in zip(parts, parts[1:])):
            found.add(tuple(p for p in parts if p))
    return found


def ssyt_fillings(shape, d):
    """All semistandard fillings of the diagram with entries in 1..d."""
    cells = [(r, c) for r, row_len in enumerate(shape) for c in range(row_len)]

    def fill(idx, grid):
        if idx == len(cells):
            yield {k: v for k, v in grid.items()}
            return
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, grid[(r, c - 1)])  # rows weakly increase
        if r > 0:
            lo = max(lo, grid[(r - 1, c)] + 1)  # columns strictly increase
        for v in range(lo, d + 1):
            grid[(r, c)] = v
            yield from fill(idx + 1, grid)
            del grid[(r, c)]

    yield from fill(0, {})


def ssyt_count(shape, d):
    return sum(1 for _ in ssyt_fillings(shape, d))


def ssyt_monomial_sum(shape, x):
    """Schur polynomial as the tableau-generating sum of monomials."""
    total = 0.0
    for grid in ssyt_fillings(shape, len(x)):
        term = 1.0
        for v in grid.values():
            term *= x[v - 1]
        total += term
    return total


def hook_product_dim(shape):
    """S_n dimension via hook lengths read off the diagram."""
    conj = [sum(1 for row in shape if row > c) for c in range(shape[0])] if shape else []
    prod = 1
    for r, row_len in enumerate(shape):
        for c in range(row_len):
            prod *= (row_len - c) + (conj[c] - r) - 1
    return math.factorial(sum(shape)) // prod


def standard_tableau_count(shape):
    """Count standard fillings directly (distinct entries 1..n)."""
    n = sum(shape)
    cells = [(r, c) for r, row_len in enumerate(shape) for c in range(row_len)]
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        grid = dict(zip(cells, perm))
        ok = all(
            (c == 0 or grid[(r, c - 1)] < grid[(r, c)])
            and (r == 0 or grid[(r - 1, c)] < grid[(r, c)])
            for r, c in cells
        )
        count += ok
    return count


def class_size(cycle_type):
    """Size of the S_n conjugacy class with the given cycle type."""
    n = sum(cycle_type)
    z = 1
    for k, mult in ((k, list(cycle_type).count(k)) for k in set(cycle_type)):
        z *= k**mult * math.factorial(mult)
    return math.factorial(n) // z


partitions_of = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.sampled_from(enumerate_partitions(n, n))
)


# ---------------------------------------------------------------------------
# Partition type and enumeration
# ---------------------------------------------------------------------------


def test_partition_normalizes_trailing_zeros():
    assert Partition((3, 0)) == Partition((3,))
    assert Partition((3, 0)).parts == (3,)
    assert Partition(()).n == 0


def test_partition_rejects_bad_input():
    with pytest.raises(ValidationError):
        Partition((1, 2))
    with pytest.raises(ValidationError):
        Partition((2, -1))


def test_partition_padding_and_type_vector():
    lam = Partition((2, 1))
    assert lam.padded(3) == (2, 1, 0)
    assert lam.type_vector(3) == (2 / 3, 1 / 3, 0.0)
    with pytest.raises(ValidationError):
        lam.padded(1)


def test_enumerate_known_lists():
    assert enumerate_partitions(1, 3) == [Partition((1,))]
    assert enumerate_partitions(3, 2) == [Partition((3,)), Partition((2, 1))]
    assert enumerate_partitions(4, 2) == [
        Partition((4,)),
        Partition((3, 1)),
        Partition((2, 2)),
    ]
    assert enumerate_partitions(0, 2) == [Partition(())]


def test_enumerate_order_is_lex_decreasing():
    for n in range(1, 9):
        for d in (2, 3, 4):
            seq = [p.padded(d) for p in enumerate_partitions(n, d)]
            assert seq == sorted(seq, reverse=True)
            assert len(seq) == len(set(seq))


def test_enumerate_matches_brute_force():
    for n in range(0, 9):
        for d in (1, 2, 3, 4):
            got = {p.parts for p in enumerate_partitions(n, d)}
            assert got == brute_partitions(n, d)


def test_enumerate_rejects_bad_args():
    with pytest.raises(ValidationError):
        enumerate_partitions(-1, 2)
    with pytest.raises(ValidationError):
        enumerate_partitions(3, 0)


# ---------------------------------------------------------------------------
# Dimensions
# ---------------------------------------------------------------------------


def test_weyl_dim_known_values():
    assert weyl_dim(Partition((1,)), 3) == 3
    assert weyl_dim(Partition((2, 1)), 2) == 2
    for n in range(1, 11):
        assert weyl_dim(Partition((n,)), 2) == n + 1


def test_weyl_dim_counts_semistandard_tableaux():
    for n in range(1, 7):
        for d in (2, 3):
            for lam in enumerate_partitions(n, d):
                assert weyl_dim(lam, d) == ssyt_count(lam.parts, d)


def test_weyl_dim_two_formulations_agree():
    # numerator via l_i - l_j vs. via lambda_i - lambda_j - i + j
    for n in range(1, 11):
        for d in (2, 3, 4):
            for lam in enumerate_partitions(n, d):
                padded = lam.padded(d)
                num = 1
                for i in range(d):
                    for j in range(i + 1, d):
                        num *= padded[i] - padded[j] - (i + 1) + (j + 1)
                den = 1
                for k in range(1, d):
                    den *= math.factorial(k)
                assert weyl_dim(lam, d) * den == num


def test_hook_dim_known_values():
    for n in range(1, 9):
        assert hook_dim(Partition((n,))) == 1
    assert hook_dim(Partition((2, 1))) == 2
    assert hook_dim(Partition((1, 1))) == 1
    assert hook_dim(Partition(())) == 1


def test_hook_dim_matches_hook_product():
    for n in range(1, 9):
        for lam in enumerate_partitions(n, n):
            assert hook_dim(lam) == hook_product_dim(lam.parts)


def test_hook_dim_counts_standard_tableaux():
    for n in range(1, 7):
        for lam in enumerate_partitions(n, n):
            assert hook_dim(lam) == standard_tableau_count(lam.parts)


def test_hook_dim_squares_sum_to_factorial():
    for n in range(1, 9):
        total = sum(hook_dim(lam) ** 2 for lam in enumerate_partitions(n, n))
        assert total == math.factorial(n)


def test_dimension_identity_exact():
    # sum over lambda of dim_u * dim_v recovers d^n exactly
    for d in (2, 3):
        for n in range(1, 9):
            total = sum(
                weyl_dim(lam, d) * hook_dim(lam) for lam in enumerate_partitions(n, d)
            )
            assert total == d**n


def test_dimension_record():
    rec = dimension_record(Partition((2, 1)), 2)
    assert (rec.dim_u, rec.dim_v, rec.dim_w) == (2, 2, 4)


def test_weyl_dim_log_growth_bound():
    for d in (2, 3, 4):
        for n in range(2, 51):
            for lam in enumerate_partitions(n, d):
                assert math.log(weyl_dim(lam, d)) <= d * d * math.log(n)


def test_weyl_squares_count_symmetric_subspace_with_polynomial_cap():
    # sum of dim_u^2 equals the stars-and-bars dimension of the doubled-chain
    # symmetric subspace, which in turn is at most (n+1)^(d^2)
    for d in (2, 3):
        for n in range(1, 21):
            total = sum(weyl_dim(lam, d) ** 2 for lam in enumerate_partitions(n, d))
            assert total == math.comb(d * d + n - 1, n)
            assert total <= (n + 1) ** (d * d)


# ---------------------------------------------------------------------------
# Characters
# ---------------------------------------------------------------------------


def test_character_at_identity_is_dimension():
    for n in range(1, 8):
        ident = Partition((1,) * n)
        for lam in enumerate_partitions(n, n):
            assert mn_character(lam, ident) == hook_dim(lam)


def test_character_known_small_values():
    assert mn_character(Partition((1, 1)), Partition((2,))) == -1
    assert mn_character(Partition((2, 1)), Partition((3,))) == -1


S3_TABLE = {
    # classes: (1,1,1), (2,1), (3)
    (3,): (1, 1, 1),
    (2, 1): (2, 0, -1),
    (1, 1, 1): (1, -1, 1),
}

S4_TABLE = {
    # classes: (1,1,1,1), (2,1,1), (2,2), (3,1), (4)
    (4,): (1, 1, 1, 1, 1),
    (3, 1): (3, 1, -1, 0, -1),
    (2, 2): (2, 0, 2, -1, 0),
    (2, 1, 1): (3, -1, -1, 0, 1),
    (1, 1, 1, 1): (1, -1, 1, 1, -1),
}


@pytest.mark.parametrize(
    "table,classes",
    [
        (S3_TABLE, [(1, 1, 1), (2, 1), (3,)]),
        (S4_TABLE, [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]),
    ],
)
def test_character_tables(table, classes):
    for lam, values in table.items():
        for ct, expected in zip(classes, values):
            assert mn_character(Partition(lam), Partition(ct)) == expected


def test_character_first_orthogonality():
    # sum over classes of |class| chi_lam chi_mu = n! delta_{lam mu}
    for n in range(1, 7):
        lams = enumerate_partitions(n, n)
        classes = enumerate_partitions(n, n)
        for lam in lams:
            for mu in lams:
                total = sum(
                    class_size(ct.parts)
                    * mn_character(lam, ct)
                    * mn_character(mu, ct)
                    for ct in classes
                )
                assert total == (math.factorial(n) if lam == mu else 0)


def test_character_weight_mismatch_rejected():
    with pytest.raises(ValidationError):
        mn_character(Partition((2, 1)), Partition((2, 2)))


@given(lam=partitions_of)
def test_character_bounded_by_dimension(lam):
    n = lam.n
    for ct in enumerate_partitions(n, n):
        assert abs(mn_character(lam, ct)) <= hook_dim(lam)


# ---------------------------------------------------------------------------
# Symmetric polynomials
# ---------------------------------------------------------------------------


def test_complete_homogeneous_known_values():
    assert complete_homogeneous(0, [0.3, 0.7]) == 1.0
    assert complete_homogeneous(2, [0.25] * 4) == pytest.approx(10 / 16, abs=1e-15)
    for n in range(0, 9):
        assert complete_homogeneous(n, [1.0]) == pytest.approx(1.0, abs=1e-12)


def test_complete_homogeneous_matches_multiset_sum():
    rng = np.random.default_rng(11)
    for trial in range(5):
        m = rng.integers(2, 5)
        x = rng.uniform(0, 1, size=m)
        for n in range(0, 6):
            brute = sum(
                math.prod(x[list(c)])
                for c in itertools.combinations_with_replacement(range(m), n)
            )
            assert complete_homogeneous(n, x) == pytest.approx(brute, rel=1e-12)


def test_schur_known_values():
    assert schur_polynomial(Partition((1,)), (0.2, 0.3, 0.5)) == pytest.approx(1.0, abs=1e-15)
    assert schur_polynomial(Partition((1, 1)), (0.5, 0.5)) == pytest.approx(0.25, abs=1e-15)
    assert schur_polynomial(Partition(()), (0.5, 0.5)) == 1.0


def test_schur_matches_tableau_sum():
    rng = np.random.default_rng(5)
    for d in (2, 3):
        x = rng.uniform(0, 1, size=d)
        x /= x.sum()
        for n in range(1, 7):
            for lam in enumerate_partitions(n, d):
                expected = ssyt_monomial_sum(lam.parts, x)
                assert schur_polynomial(lam, x) == pytest.approx(expected, abs=1e-12)


def test_schur_repeated_entries_are_stable():
    # the bialternant route would hit 0/0 here
    val = schur_polynomial(Partition((2, 1)), (0.5, 0.5))
    assert val == pytest.approx(ssyt_monomial_sum((2, 1), (0.5, 0.5)), abs=1e-14)


def test_schur_completeness():
    rng = np.random.default_rng(23)
    for d in (2, 3):
        for trial in range(3):
            p = rng.uniform(0.05, 1, size=d)
            p /= p.sum()
            for n in range(1, 9):
                total = sum(
                    hook_dim(lam) * schur_polynomial(lam, p)
                    for lam in enumerate_partitions(n, d)
                )
                assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("p,n", [((0.9, 0.1), 60), ((0.75, 0.2, 0.05), 30)])
def test_schur_keeps_relative_accuracy_when_exponentially_small(p, n):
    # far from the type p the values are tiny, s_(36,24)(0.9, 0.1) ~ 2.5e-26,
    # and a determinant formula loses them to cancellation
    for lam in enumerate_partitions(n, len(p)):
        exact = schur_exact(lam, p)
        assert schur_polynomial(lam, p) == pytest.approx(float(exact), rel=1e-12, abs=0), lam


def test_schur_rejects_too_many_rows():
    with pytest.raises(ValidationError):
        schur_polynomial(Partition((1, 1, 1)), (0.5, 0.5))


def test_power_sum_character_expansion():
    # p_mu(x) = sum_lambda chi_lambda(mu) s_lambda(x) ties characters to
    # Schur polynomials through an identity neither implementation uses
    rng = np.random.default_rng(17)
    x = rng.uniform(0.1, 1, size=3)
    for n in range(1, 6):
        for mu in enumerate_partitions(n, n):
            power = math.prod(sum(xi**k for xi in x) for k in mu.parts)
            schur_side = sum(
                mn_character(lam, mu) * schur_polynomial(lam, x)
                for lam in enumerate_partitions(n, 3)
            )
            assert schur_side == pytest.approx(power, rel=1e-10)


# ---------------------------------------------------------------------------
# Entropies and bounds
# ---------------------------------------------------------------------------


def test_entropy_known_values():
    assert shannon_entropy((0.5, 0.5)) == pytest.approx(math.log(2), abs=1e-15)
    assert shannon_entropy((1.0, 0.0)) == 0.0
    assert math.copysign(1.0, shannon_entropy((1.0, 0.0))) == 1.0


def test_kl_known_values():
    q = (0.3, 0.7)
    assert kl_divergence(q, q) == 0.0
    assert kl_divergence((1.0, 0.0), (0.25, 0.75)) == pytest.approx(math.log(4), abs=1e-12)
    assert kl_divergence((0.5, 0.5), (1.0, 0.0)) == math.inf


def test_kl_rejects_non_distributions():
    with pytest.raises(ValidationError):
        kl_divergence((0.5, 0.6), (0.5, 0.5))
    with pytest.raises(ValidationError):
        shannon_entropy((-0.1, 1.1))


@given(
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=5)
)
def test_kl_non_negative(raw):
    total = sum(raw)
    q = tuple(x / total for x in raw)
    assert kl_divergence(q, q[::-1]) >= -1e-12


def test_dim_entropy_bound_trivial_row():
    for n in range(1, 11):
        bc = check_dim_entropy_bound(Partition((n,)), n, 2)
        assert bc.lhs == pytest.approx(0.0, abs=1e-15)
        assert bc.holds


def test_dim_entropy_bound_balanced_case():
    bc = check_dim_entropy_bound(Partition((3, 3)), 6, 2)
    # d_lambda = 5, H(1/2,1/2) = log 2
    assert bc.lhs == pytest.approx(abs(math.log(5) / 6 - math.log(2)), abs=1e-12)
    assert bc.holds


def test_dim_entropy_bound_exhaustive():
    for d in (2, 3, 4):
        for n in range(1, 21):
            for lam in enumerate_partitions(n, d):
                assert check_dim_entropy_bound(lam, n, d).holds


def test_type_region_everything():
    tc = type_region_bound(lambda q: True, (0.6, 0.4), 6, 2)
    assert tc.lhs == pytest.approx(1.0, abs=1e-10)
    assert tc.rhs >= 1.0
    assert tc.holds
    # D-min is taken over the finite type grid; it vanishes exactly when the
    # grid contains p itself
    on_grid = type_region_bound(lambda q: True, (0.5, 0.5), 6, 2)
    assert on_grid.d_min == pytest.approx(0.0, abs=1e-12)


def test_type_region_empty():
    tc = type_region_bound(lambda q: False, (0.6, 0.4), 5, 2)
    assert tc.lhs == 0.0
    assert tc.rhs == 0.0
    assert tc.holds
    assert tc.n_members == 0


def test_type_region_half_space():
    tc = type_region_bound(lambda q: q[0] <= 0.6, (0.9, 0.1), 10, 2)
    brute = sum(
        hook_dim(lam) * schur_polynomial(lam, (0.9, 0.1))
        for lam in enumerate_partitions(10, 2)
        if lam.type_vector(2)[0] <= 0.6
    )
    assert tc.lhs == pytest.approx(brute, rel=1e-12)
    assert tc.holds


def test_type_region_point_mass():
    # region containing only the fully-occupied type (1, 0, ..., 0)
    p = (0.7, 0.3)
    for n in (4, 8):
        tc = type_region_bound(lambda q: q[0] == 1.0, p, n, 2)
        assert tc.lhs == pytest.approx(
            hook_dim(Partition((n,))) * schur_polynomial(Partition((n,)), p), rel=1e-12
        )
        assert tc.d_min == pytest.approx(-math.log(p[0]), abs=1e-12)
        assert tc.holds


def test_type_region_tail_at_n60_matches_exact():
    p = (0.9, 0.1)
    tc = type_region_bound(lambda q: q[0] <= 0.6, p, 60, 2)
    exact = sum(
        hook_dim(lam) * schur_exact(lam, p)
        for lam in enumerate_partitions(60, 2)
        if lam.type_vector(2)[0] <= 0.6
    )
    assert tc.lhs == pytest.approx(float(exact), rel=1e-12, abs=0)
    assert tc.holds


def test_type_region_survives_d_lambda_past_the_float_range():
    # n = 1035 is the first d = 2 size with a d_lambda past the largest float;
    # at p = (1/2, 1/2), s_lambda = (lambda_1 - lambda_2 + 1) 2^-1035 is exact
    # though subnormal, and the lhs over every type is (p_1 + p_2)^n = 1
    n, p = 1035, (0.5, 0.5)
    parts = enumerate_partitions(n, 2)
    assert max(hook_dim(lam) for lam in parts) > sys.float_info.max
    lam = parts[len(parts) // 2]
    assert schur_polynomial(lam, p) == (lam[0] - lam[1] + 1) * 2.0**-n
    tc = type_region_bound(lambda q: True, p, n, 2)
    assert abs(tc.lhs - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "p,n,tol",
    [pytest.param((0.5, 0.5), n, 1e-12, id=str(n)) for n in (1074, 1075, 1100)]
    + [pytest.param((0.6, 0.4), n, 1e-9, id=f"0.6-{n}") for n in (1100, 1500)],
)
def test_type_region_lhs_survives_schur_underflow(p, n, tol):
    # every s_lambda(1/2, 1/2) = (lambda_1 - lambda_2 + 1) 2^-n is below the
    # smallest subnormal from n = 1075 on, and at (0.6, 0.4) the terms near
    # the type, about 2^{-n H(p)}, are from n = 1100 on, while the lhs over
    # every type is (p_1 + p_2)^n = 1; the memo carries a binary exponent
    # per term, whose shifts change no value above the underflow
    tc = type_region_bound(lambda q: True, p, n, 2)
    assert abs(tc.lhs - 1.0) <= tol


def test_type_region_lhs_is_the_per_lambda_schur_sum():
    # one branching memo shared by every lambda gives the same sum, bit for bit
    p = (0.5, 0.3, 0.2)
    for n in range(1, 21):
        region = lambda q: q[0] <= 0.6  # noqa: E731
        tc = type_region_bound(region, p, n, 3)
        want = 0.0
        for lam in enumerate_partitions(n, 3):
            if region(lam.type_vector(3)):
                want += hook_dim(lam) * schur_polynomial(lam, p)
        assert tc.lhs == want, n


def test_type_region_seeded_instances():
    rng = np.random.default_rng(99)
    for trial in range(20):
        p = rng.uniform(0.05, 1, size=2)
        p /= p.sum()
        thr = rng.uniform(0.0, 1.0)
        n = int(rng.integers(1, 13))
        tc = type_region_bound(lambda q: q[0] <= thr, tuple(p), n, 2)
        assert tc.holds
