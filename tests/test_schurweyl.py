"""The chain-projector oracle of oracles.py (P_lambda on (C^d)^{tensor n},
the chain-to-copy layouts and the blocks of the symmetric projector on the
doubled chain) and the central characters of partitions that key it."""

import math

import numpy as np
import pytest

import oracles
from locc_purity import partitions
from locc_purity.errors import InvariantError, ValidationError
from locc_purity.partitions import (
    Partition,
    central_characters,
    enumerate_partitions,
    hook_dim,
    mn_character,
    weyl_dim,
)
from locc_purity.tensorops import symmetrizer

from oracles import (
    ORACLE_CASES,
    ab_block_projector,
    build_projector_set,
    chain_interleave_permutation,
    chain_to_copy_index,
    chain_to_copy_operator,
    class_sum_loop,
    frobenius,
    is_projector,
    to_copy_major,
    verify_block_structure,
)


def random_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / abs(np.diag(r)))


# ---------------------------------------------------------------------------
# Single-chain isotypic projectors
# ---------------------------------------------------------------------------


def test_full_row_projector_is_symmetrizer():
    for d, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        p = build_projector_set(d, n)[Partition((n,))]
        assert np.allclose(p, symmetrizer(d, n), atol=1e-12)


def test_singlet_projector():
    p = build_projector_set(2, 2)[Partition((1, 1))]
    assert is_projector(p, 1e-12)
    assert p.trace().real == pytest.approx(1.0, abs=1e-12)
    singlet = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
    assert np.allclose(p, np.outer(singlet, singlet.conj()), atol=1e-12)


def test_mixed_symmetry_projector_trace():
    p = build_projector_set(2, 3)[Partition((2, 1))]
    assert p.trace().real == pytest.approx(4.0, abs=1e-10)


# (3, 6) is the first size at which omega_2 alone does not separate the
# Young indices: (4,1,1) and (3,3) share it
@pytest.mark.parametrize("d,n", ORACLE_CASES + [(2, 7), (3, 6)])
def test_young_projectors_match_permutation_loop(d, n):
    built = build_projector_set(d, n)
    for lam in enumerate_partitions(n, d):
        want = class_sum_loop(d, n, lambda mu: mn_character(lam, Partition(mu)), hook_dim(lam))
        assert np.array_equal(built[lam], want), lam


def test_central_characters_separate_young_indices():
    # every partition with at most d <= 6 rows has at most 6 rows
    for n in range(1, 15):
        keys = [central_characters(lam) for lam in enumerate_partitions(n, 6)]
        assert len(set(keys)) == len(keys), n


def test_central_characters_known_values():
    # omega_2 is the content sum of the diagram
    assert central_characters(Partition((1,))) == (0, 0)
    assert central_characters(Partition((2,))) == (1, 0)
    assert central_characters(Partition((1, 1))) == (-1, 0)
    assert central_characters(Partition((3,))) == (3, 2)
    assert central_characters(Partition((2, 1))) == (0, -1)
    a, b = central_characters(Partition((4, 1, 1))), central_characters(Partition((3, 3)))
    assert a[0] == b[0] == 3 and a[1] != b[1]


def test_central_characters_match_murnaghan_nakayama():
    # the content sums against |C_k| chi_lambda(C_k) / d_lambda, chi by
    # Murnaghan-Nakayama, for every partition of n <= 10
    for n in range(1, 11):
        for lam in enumerate_partitions(n, n):
            want = tuple(
                math.comb(n, k) * math.factorial(k - 1)
                * mn_character(lam, Partition((k,) + (1,) * (n - k))) // hook_dim(lam)
                if k <= n else 0
                for k in (2, 3)
            )
            assert central_characters(lam) == want, lam


def test_projector_build_rejects_unseparated_indices(monkeypatch):
    monkeypatch.setattr(partitions, "central_characters", lambda lam: (0, 0))
    with pytest.raises(InvariantError, match="separate"):
        build_projector_set(2, 2)


def test_projector_build_rejects_unsnapped_projector(monkeypatch):
    monkeypatch.setattr(oracles, "SNAP_TOL", -1.0)
    with pytest.raises(InvariantError, match="integer matrix"):
        build_projector_set(2, 2)


@pytest.mark.parametrize("d,n", [(2, 0), (0, 2), (2, -1)])
def test_projector_set_rejects_bad_sizes(d, n):
    with pytest.raises(ValidationError):
        build_projector_set(d, n)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_projector_set_invariants(d, n):
    s = build_projector_set(d, n)  # verified before it returns
    dim = d**n
    total = np.zeros((dim, dim), dtype=complex)
    parts = list(s)
    assert parts == enumerate_partitions(n, d)
    for lam in parts:
        p = s[lam]
        assert is_projector(p, 1e-10)
        expected = weyl_dim(lam, d) * hook_dim(lam)
        assert p.trace().real == pytest.approx(expected, abs=1e-8)
        total += p
    assert np.allclose(total, np.eye(dim), atol=1e-10)
    for i, lam in enumerate(parts):
        for mu in parts[i + 1 :]:
            assert frobenius(s[lam] @ s[mu]) < 1e-10


def test_projector_set_known_traces():
    s22 = build_projector_set(2, 2)
    assert sorted(round(p.trace().real) for p in s22.values()) == [1, 3]
    s23 = build_projector_set(2, 3)
    assert sorted(round(p.trace().real) for p in s23.values()) == [4, 4]
    s33 = build_projector_set(3, 3)
    assert sum(p.trace().real for p in s33.values()) == pytest.approx(27, abs=1e-8)


def test_projectors_commute_with_collective_unitaries():
    rng = np.random.default_rng(8)
    for d, n in ((2, 3), (3, 2)):
        v = random_unitary(d, rng)
        vn = v
        for _ in range(n - 1):
            vn = np.kron(vn, v)
        for p in build_projector_set(d, n).values():
            assert frobenius(p @ vn - vn @ p) < 1e-10


# ---------------------------------------------------------------------------
# Doubled chain: symmetric projector and index reordering
# ---------------------------------------------------------------------------


def test_sym_projector_bipartite_traces():
    # the symmetric projector of the doubled chain permutes whole copies A_i B_i
    assert np.allclose(symmetrizer(4, 1), np.eye(4))
    assert symmetrizer(4, 2).trace().real == pytest.approx(10, abs=1e-9)
    assert symmetrizer(4, 3).trace().real == pytest.approx(20, abs=1e-9)


def test_chain_interleave_permutation_layout():
    assert chain_interleave_permutation(1) == (0, 1)
    assert chain_interleave_permutation(2) == (0, 2, 1, 3)
    assert chain_interleave_permutation(3) == (0, 2, 4, 1, 3, 5)


def test_chain_to_copy_on_factorized_operators():
    # A1 x A2 x B1 x B2 in chain order must become A1 x B1 x A2 x B2
    rng = np.random.default_rng(21)
    d, n = 2, 2
    ops = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(4)]
    a1, a2, b1, b2 = ops
    chain = np.kron(np.kron(a1, a2), np.kron(b1, b2))
    copy = np.kron(np.kron(a1, b1), np.kron(a2, b2))
    assert np.allclose(to_copy_major(chain, d, n), copy, atol=1e-12)


def test_chain_to_copy_three_copies():
    rng = np.random.default_rng(22)
    d, n = 2, 3
    a = [rng.standard_normal((d, d)) for _ in range(n)]
    b = [rng.standard_normal((d, d)) for _ in range(n)]
    chain = np.kron(np.kron(np.kron(a[0], a[1]), a[2]), np.kron(np.kron(b[0], b[1]), b[2]))
    copy = np.kron(np.kron(np.kron(a[0], b[0]), np.kron(a[1], b[1])), np.kron(a[2], b[2]))
    assert np.allclose(to_copy_major(chain, d, n), copy, atol=1e-12)


def test_chain_to_copy_matches_dense_conjugation():
    rng = np.random.default_rng(23)
    d, n = 2, 2
    dim = (d * d) ** n
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    c = chain_to_copy_operator(d, n)
    assert np.allclose(c @ c.conj().T, np.eye(dim), atol=1e-12)
    assert np.allclose(to_copy_major(m, d, n), c @ m @ c.conj().T, atol=1e-12)


def test_chain_to_copy_index_is_permutation():
    for d, n in ((2, 2), (2, 3), (3, 2)):
        pi = chain_to_copy_index(d, n)
        assert sorted(pi) == list(range((d * d) ** n))


def test_to_copy_major_rejects_wrong_shape():
    with pytest.raises(ValidationError):
        to_copy_major(np.eye(8), 2, 2)


# ---------------------------------------------------------------------------
# Block structure of the symmetric projector
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_structure_d2(n):
    d = 2
    s = build_projector_set(d, n)
    pi = symmetrizer(d * d, n)
    rep = verify_block_structure(d, n, s, s, pi)
    assert rep.ok
    assert rep.max_commutator < 1e-10
    assert rep.max_cross_block < 1e-10
    for lam in s:
        assert rep.block_traces[lam] == pytest.approx(weyl_dim(lam, d) ** 2, abs=1e-8)
    assert rep.trace_total == pytest.approx(math.comb(d * d + n - 1, n), abs=1e-8)


def test_block_structure_known_traces():
    s = build_projector_set(2, 2)
    rep = verify_block_structure(2, 2, s, s, symmetrizer(4, 2))
    assert rep.block_traces[Partition((2,))] == pytest.approx(9.0, abs=1e-9)
    assert rep.block_traces[Partition((1, 1))] == pytest.approx(1.0, abs=1e-9)
    s3 = build_projector_set(2, 3)
    rep3 = verify_block_structure(2, 3, s3, s3, symmetrizer(4, 3))
    assert rep3.block_traces[Partition((3,))] == pytest.approx(16.0, abs=1e-9)
    assert rep3.block_traces[Partition((2, 1))] == pytest.approx(4.0, abs=1e-9)


def test_cross_block_product_vanishes():
    d, n = 2, 2
    s = build_projector_set(d, n)
    pi = symmetrizer(d * d, n)
    q = ab_block_projector(s[Partition((2,))], s[Partition((1, 1))], d, n)
    assert frobenius(q @ pi) < 1e-10


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_block_index_on_chain_a_fixes_chain_b(d, n):
    # Schur-Weyl duality on the symmetric subspace: measuring the Young index
    # on chain A already selects the same block on chain B
    s = build_projector_set(d, n)
    pi = symmetrizer(d * d, n)
    eye = np.eye(d**n)
    for p in s.values():
        one_sided = ab_block_projector(p, eye, d, n) @ pi
        two_sided = ab_block_projector(p, p, d, n) @ pi
        assert frobenius(one_sided - two_sided) < 1e-10


def test_weyl_squares_sum_to_sym_dimension():
    for n in range(1, 5):
        total = sum(weyl_dim(lam, 2) ** 2 for lam in enumerate_partitions(n, 2))
        assert total == math.comb(4 + n - 1, n)
        pi_trace = symmetrizer(4, n).trace().real
        assert pi_trace == pytest.approx(total, abs=1e-8)


def test_sym_projector_commutes_with_local_collective_unitaries():
    rng = np.random.default_rng(31)
    d, n = 2, 2
    va, vb = random_unitary(d, rng), random_unitary(d, rng)
    local = np.kron(va, vb)
    w = np.kron(local, local)
    pi = symmetrizer(d * d, n)
    assert frobenius(pi @ w - w @ pi) < 1e-10


def test_verify_block_structure_rejects_mismatch():
    s2 = build_projector_set(2, 2)
    s3 = build_projector_set(2, 3)
    with pytest.raises(ValidationError):
        verify_block_structure(2, 2, s2, s3, symmetrizer(4, 2))
