import itertools
import math

import numpy as np
import pytest

from locc_purity.errors import MemoryCapError, ValidationError
from locc_purity.tensorops import (
    _monomial_power,
    _power_step,
    _root_factorials,
    kron,
    perm_operator,
    multiset_occupation,
    multiset_rank,
    multiset_table,
    symmetric_basis,
    symmetric_power,
    symmetrizer,
    trace_product,
)
from locc_purity.states import StateSpec, build_state, tensor_power

from oracles import (
    ORACLE_CASES,
    class_sum_loop,
    cycle_class_sum,
    frobenius,
    is_hermitian,
    is_projector,
    symmetric_basis_loop,
)


def random_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / abs(np.diag(r)))


def test_kron_identities():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
    got = kron(np.diag([3.0, 5.0]).astype(complex), np.eye(2))
    assert np.array_equal(got, np.diag([3.0, 3.0, 5.0, 5.0]))


def test_kron_trace_multiplicative():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert kron(a, b).trace() == pytest.approx(a.trace() * b.trace(), rel=1e-12)


def test_kron_memory_cap():
    with pytest.raises(MemoryCapError, match="bytes"):
        kron(np.eye(64), np.eye(64), memory_cap=1000)


def test_perm_operator_identity():
    for n in (1, 2, 3):
        assert np.array_equal(perm_operator(tuple(range(n)), 2), np.eye(2**n))


def test_perm_operator_swap_is_swap_matrix():
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = 1
    swap[1, 2] = swap[2, 1] = 1
    assert np.array_equal(perm_operator((1, 0), 2), swap)


def test_perm_operator_moves_digits():
    # cycle 0->1->2->0 on three qutrit factors
    sigma = (1, 2, 0)
    op = perm_operator(sigma, 3)
    vec = np.zeros(27)
    # |0 1 2> has index 0*9 + 1*3 + 2
    vec[1 * 3 + 2] = 1.0
    out = op @ vec
    # digit at new position sigma(k) equals old digit at k: |2 0 1>
    assert out[2 * 9 + 0 * 3 + 1] == 1.0
    assert out.sum() == 1.0


def test_perm_operator_homomorphism():
    rng = np.random.default_rng(7)
    perms = list(itertools.permutations(range(4)))
    for _ in range(25):
        s = perms[rng.integers(len(perms))]
        t = perms[rng.integers(len(perms))]
        st = tuple(s[t[i]] for i in range(4))
        lhs = perm_operator(s, 2) @ perm_operator(t, 2)
        assert np.allclose(lhs, perm_operator(st, 2))


def test_perm_operator_unitary():
    op = perm_operator((2, 0, 1), 2)
    assert np.allclose(op @ op.conj().T, np.eye(8))


def test_perm_operator_rejects_non_permutation():
    with pytest.raises(ValidationError):
        perm_operator((0, 0, 1), 2)


def test_symmetrizer_single_copy_is_identity():
    assert np.array_equal(symmetrizer(3, 1), np.eye(3))


@pytest.mark.parametrize(
    "local_dim,n",
    [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (4, 3)],
)
def test_symmetrizer_is_projector_with_stars_and_bars_trace(local_dim, n):
    s = symmetrizer(local_dim, n)
    assert is_projector(s, 1e-12)
    expected = math.comb(local_dim + n - 1, n)
    assert s.trace().real == pytest.approx(expected, abs=1e-9)


def test_symmetrizer_commutes_with_permutations():
    s = symmetrizer(2, 4)
    for sigma in itertools.permutations(range(4)):
        u = perm_operator(sigma, 2)
        assert frobenius(s @ u - u @ s) < 1e-12
        # and averaging is absorbing: U(sigma) S = S
        assert np.allclose(u @ s, s)


def test_symmetrizer_commutes_with_collective_unitaries():
    rng = np.random.default_rng(12)
    for local_dim, n in ((2, 3), (4, 2)):
        s = symmetrizer(local_dim, n)
        v = random_unitary(local_dim, rng)
        vn = v
        for _ in range(n - 1):
            vn = np.kron(vn, v)
        assert frobenius(s @ vn - vn @ s) < 1e-10


def test_symmetric_basis_orthonormal_and_factorizes_symmetrizer():
    for local_dim, n in ((2, 3), (3, 2), (4, 2), (4, 3)):
        v = symmetric_basis(local_dim, n)
        rank = math.comb(local_dim + n - 1, n)
        assert v.shape == (local_dim**n, rank)
        assert np.allclose(v.conj().T @ v, np.eye(rank), atol=1e-12)
        assert np.allclose(v @ v.conj().T, symmetrizer(local_dim, n), atol=1e-12)


def test_symmetrizer_memory_cap():
    with pytest.raises(MemoryCapError):
        symmetrizer(4, 6, memory_cap=1_000_000)


@pytest.mark.parametrize("local_dim,n", ORACLE_CASES)
def test_cycle_class_sums_match_permutation_loop(local_dim, n):
    for k in (2, 3, 4):
        cycles = (k,) + (1,) * (n - k)
        want = class_sum_loop(local_dim, n, lambda mu: mu == cycles, math.factorial(n))
        got = cycle_class_sum(local_dim, n, k)
        assert got.dtype == float and np.array_equal(got, want), k


def test_cycle_class_sum_memory_cap():
    with pytest.raises(MemoryCapError, match="class sum"):
        cycle_class_sum(4, 6, 2, memory_cap=1_000_000)


@pytest.mark.parametrize("local_dim,n", ORACLE_CASES)
def test_symmetrizer_matches_permutation_loop(local_dim, n):
    assert np.array_equal(
        symmetrizer(local_dim, n), class_sum_loop(local_dim, n, lambda _: 1.0, 1.0)
    )


@pytest.mark.parametrize(
    "local_dim,n", ORACLE_CASES + [(4, 4), (4, 5), (4, 6), (9, 2), (9, 3)]
)
def test_symmetric_basis_matches_arrangement_loop(local_dim, n):
    assert np.array_equal(symmetric_basis(local_dim, n), symmetric_basis_loop(local_dim, n))


def random_complex(dim, rng):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


@pytest.mark.parametrize(
    "d,n", [(2, n) for n in range(1, 5)] + [(3, n) for n in range(1, 4)]
)
def test_symmetric_power_is_symmetric_basis_sandwich(d, n):
    # Gamma = V^T op^{tensor n} V for a state and for a general complex matrix
    v = symmetric_basis(d * d, n)
    rng = np.random.default_rng(10 * d + n)
    rho = build_state(StateSpec(d=d, kind="random_mixed", seed=n))
    for op in (rho, random_complex(d * d, rng)):
        want = v.T @ tensor_power(op, n) @ v
        got = symmetric_power(op, n)
        assert got.shape == (math.comb(d * d + n - 1, n),) * 2
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("k,n", [(2, n) for n in range(1, 9)] + [(3, n) for n in range(1, 6)])
def test_symmetric_power_past_k_copies_is_the_sandwich(k, n):
    # with n > k every multiset repeats a letter, so its row has dead slots,
    # which read the zero row; a general complex op has no symmetry to hide
    # a wrong similarity
    op = random_complex(k, np.random.default_rng(100 * k + n))
    v = symmetric_basis(k, n)
    want = v.T @ tensor_power(op, n) @ v
    got = symmetric_power(op, n)
    assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("k,m", [(1, 3), (2, 1), (2, 2), (2, 6), (3, 4), (4, 3), (4, 7), (9, 3)])
def test_power_step_gathers_each_distinct_letter_once(k, m):
    # row alpha lists (alpha - e_j, j) once per distinct letter j of alpha,
    # smallest first; its dead slots hold k R_{m-1}, which names the zero
    # row below the column gather; column beta drops its smallest letter.
    # No table weighs a row or a column: sqrt(alpha!) carries the frame
    prime, low, rows = _power_step(k, m)
    prev, cur = multiset_table(k, m - 1), multiset_table(k, m)
    dead = k * len(prev)
    assert rows.shape == (len(cur), min(m, k))
    assert prime.shape == low.shape == (len(cur),)
    for alpha, row, beta_prime, f, root in zip(cur, rows, prime, low, _root_factorials(k, m)):
        letters = sorted(set(alpha.tolist()))
        live = row[: len(letters)]
        assert (row[len(letters):] == dead).all()
        assert (live % k).tolist() == letters
        for r in live.tolist():
            dropped, j = prev[r // k].tolist(), r % k
            assert sorted(dropped + [j]) == alpha.tolist()
        assert f == alpha[0] and prev[beta_prime].tolist() == alpha[1:].tolist()
        factorials = math.prod(math.factorial(alpha.tolist().count(j)) for j in letters)
        assert root == math.sqrt(factorials)
    # every (alpha', j) is a slot of exactly one multiset
    assert np.array_equal(np.sort(rows[rows != dead]), np.arange(dead))


def monomial_sandwich(op, n):
    """C V^T op^{tensor n} V C^{-1}, C = diag(1 / sqrt(alpha!)), from the
    dense oracles, with alpha! from the letter counts of multiset_table."""
    k = op.shape[0]
    root = np.array([
        math.sqrt(math.prod(math.factorial(row.count(j)) for j in set(row)))
        for row in multiset_table(k, n).tolist()
    ])
    v = symmetric_basis(k, n)
    return (v.T @ tensor_power(op, n) @ v) / root[:, None] * root


@pytest.mark.parametrize(
    "k,n", [(k, n) for k in range(1, 5) for n in range(1, 6)] + [(9, n) for n in range(1, 4)]
)
def test_monomial_power_is_the_similar_sandwich(k, n):
    # the recursion's frame, G = C Gamma C^{-1}, for a non-Hermitian op (as
    # rho^R is): its entries span orders of magnitude, so each is held to
    # the same power of |op|, a sum with no cancellation
    op = random_complex(k, np.random.default_rng(1000 + 10 * k + n))
    got = _monomial_power(op, n)
    want, scale = monomial_sandwich(op, n), monomial_sandwich(np.abs(op), n)
    assert got.shape == (math.comb(k + n - 1, n),) * 2
    assert (np.abs(got - want) <= 1e-13 * scale).all()


@pytest.mark.parametrize("k,n", [(2, 5), (3, 4), (4, 3), (5, 2)])
def test_symmetric_power_is_multiplicative(k, n):
    # Sym^n is a representation of GL(k): Sym^n(AB) = Sym^n(A) Sym^n(B)
    rng = np.random.default_rng(k + 7 * n)
    a, b = random_complex(k, rng), random_complex(k, rng)
    got = symmetric_power(a @ b, n)
    want = symmetric_power(a, n) @ symmetric_power(b, n)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("k,n", [(4, 6), (9, 3)])
def test_symmetric_power_of_hermitian_is_hermitian(k, n):
    rng = np.random.default_rng(k * n)
    h = random_complex(k, rng)
    h = h + h.conj().T
    assert is_hermitian(symmetric_power(h, n), 1e-12)
    assert symmetric_power(h.real, n).dtype == np.dtype(float)


def test_multiset_table_is_the_symmetric_basis_column_order():
    for k, n in [(k, n) for k in range(1, 8) for n in range(10)] + [(9, 2)]:
        want = list(itertools.combinations_with_replacement(range(k), n))
        assert [tuple(row) for row in multiset_table(k, n)] == want


@pytest.mark.parametrize("k,m", [(1, 4), (2, 5), (3, 4), (4, 6), (4, 32), (4, 33), (9, 12)])
def test_multiset_rank_finds_every_row(k, m):
    # radix-k codes of the rows wrap past int64 from (4, 32) on; every term
    # of the combinatorial number system is at most the row count
    rank = multiset_rank(multiset_occupation(k, m))
    assert rank.dtype == np.int64
    assert np.array_equal(rank, np.arange(math.comb(k + m - 1, m)))


def test_power_step_grows_each_row_by_one_letter_past_int64_codes():
    # the slots (alpha', j) of level 33 on 4 modes land on the alpha
    # whose occupation is alpha' + e_j
    k, m = 4, 33
    rows = _power_step(k, m)[-1]
    prev, cur = multiset_occupation(k, m - 1), multiset_occupation(k, m)
    alpha, slot = np.nonzero(rows < k * len(prev))
    step = rows[alpha, slot]
    grown = prev[step // k]
    grown[np.arange(len(step)), step % k] += 1
    assert np.array_equal(grown, cur[alpha])
    assert np.array_equal(np.sort(step), np.arange(k * len(prev)))


def test_symmetric_power_rejects_bad_input():
    with pytest.raises(ValidationError):
        symmetric_power(np.ones((2, 3)), 2)
    with pytest.raises(ValidationError):
        symmetric_power(np.eye(2), 0)
    with pytest.raises(MemoryCapError, match="symmetric power"):
        symmetric_power(np.eye(16), 4, memory_cap=1_000_000)


def test_trace_product_matches_matmul():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert trace_product(a, b) == pytest.approx((a @ b).trace(), rel=1e-12)


def test_hermitian_and_projector_predicates():
    assert is_hermitian(np.eye(3))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    p = np.diag([1.0, 1.0, 0.0]).astype(complex)
    assert is_projector(p)
    assert not is_projector(2 * p)
