"""The state-independent tables of the n-copy pass on Sym^n(C^d x C^d)
against the chain route: E_lambda = V^T (P_lambda x I) V, v_lambda =
V^T vec(P_lambda), the k-cycle class sums as mode moves, and closed forms
for product states at sizes the chain route cannot reach."""

import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from locc_purity import protocol
from locc_purity.errors import InvariantError
from locc_purity.partitions import (
    class_sum_keys,
    enumerate_partitions,
    hook_dim,
    schur_polynomial,
    weyl_dim,
)
from locc_purity.protocol import (
    _isotypic_sectors,
    _pass_tables,
    block_statistics,
    pass_memory_entries,
)
from locc_purity.tensorops import (
    DEFAULT_MEMORY_CAP,
    _power_step,
    _root_factorials,
    cycle_moves_memory_entries,
    multiset_cycle_moves,
    multiset_occupation,
    multiset_rank,
    multiset_table,
    symmetric_basis,
)

from oracles import (
    build_projector_set,
    chain_to_copy_index,
    cycle_class_sum,
    k_cycles,
    multiset_cycle_images,
)

# (d, n) at which the tables are compared entry for entry with the chain route
CHAIN_CASES = [(2, n) for n in range(1, 8)] + [(3, n) for n in range(1, 5)]


def chain_basis(d, n):
    """V with its rows in chain-major order (a_1..a_n, b_1..b_n), as a
    (d^n, d^n, R) tensor: V_chain[a, b] = V[copy-major index of (a, b)]."""
    v = symmetric_basis(d * d, n)[chain_to_copy_index(d, n)]
    return v.reshape(d**n, d**n, -1)


def sandwich(v_chain, op_a):
    """V^T (op_a x I) V for an operator op_a on chain A."""
    rows, _, rank = v_chain.shape
    moved = op_a @ v_chain.reshape(rows, -1)
    return v_chain.reshape(-1, rank).T @ moved.reshape(-1, rank)


def dense(pairs, values):
    """A matrix on Sym^n that is zero off the same-sector pairs; every
    multiset is paired with itself, so the largest one is the last row."""
    rank = pairs.max() + 1
    out = np.zeros((rank, rank))
    out[pairs[0], pairs[1]] = values
    return out


def pass_v(d, n):
    """Every v_lambda, then phi, as the pass holds them: column beta of
    Z = drop_v is v[beta] / sqrt(beta!) at (beta', f) (see _pass_tables)."""
    t = _pass_tables(d, n)
    prime, low, _ = _power_step(d * d, n)
    z = t.drop_v.reshape(-1, len(t.partitions) + 1, d * d)
    return z[prime, :, low] * _root_factorials(d * d, n)[:, None]


def swap_letters(d, n):
    """The multiset of every row of multiset_table(d^2, n) with the A and B
    letters of each mode exchanged: its occupation, read as a d x d table
    over the modes a d + b, transposed."""
    occupation = multiset_occupation(d * d, n).reshape(-1, d, d)
    return multiset_rank(occupation.transpose(0, 2, 1).reshape(-1, d * d))


@pytest.mark.parametrize("d,n", CHAIN_CASES)
def test_isotypic_sector_projectors_match_chain_route(d, n):
    partitions, pairs, e, _ = _isotypic_sectors(d, n)
    v = pass_v(d, n)
    v_chain = chain_basis(d, n)
    projectors = build_projector_set(d, n)
    assert list(partitions) == list(projectors)
    for i, (lam, p) in enumerate(projectors.items()):
        np.testing.assert_allclose(dense(pairs, e[i]), sandwich(v_chain, p), rtol=0, atol=1e-12)
        want_v = p.ravel() @ v_chain.reshape(p.size, -1)
        np.testing.assert_allclose(v[:, i], want_v, rtol=0, atol=1e-12)


def on_multisets(fact, alpha, beta, weight):
    """The dense R x R matrix with (sqrt(beta!) / sqrt(alpha!)) weight,
    fact = sqrt(alpha!), summed into each entry [beta, alpha]."""
    out = np.zeros((len(fact), len(fact)))
    np.add.at(out, (beta, alpha), weight * fact[beta] / fact[alpha])
    return out


# (7, 2): moves among 49 modes, wider occupations than any chain case
@pytest.mark.parametrize("d,n", CHAIN_CASES + [(7, 2)])
def test_multiset_cycle_images_give_the_chain_class_sums(d, n):
    # the mode moves of chain A's k-cycles give its class sum on Sym^n
    fact = _root_factorials(d * d, n)
    v_chain = chain_basis(d, n)
    for k in (2, 3):
        got = on_multisets(fact, *multiset_cycle_moves(d, n, {k: 1}))
        want = sandwich(v_chain, cycle_class_sum(d, n, k))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("d,n", [(2, 12), (3, 5)])
def test_cycle_moves_and_cycle_images_build_one_key_operator(d, n):
    # A = K t_2 + t_3 from one tuple per rotation class of the occupied
    # modes, against the image of every cycle; only the summation order differs
    spread, _ = class_sum_keys(d, n)
    fact = _root_factorials(d * d, n)
    moved = on_multisets(fact, *multiset_cycle_moves(d, n, {2: spread, 3: 1}))
    imaged = np.zeros_like(moved)
    for k, scale in ((2, spread), (3, 1)):
        images = multiset_cycle_images(d, n, k_cycles(n, k))
        alpha = np.broadcast_to(np.arange(len(fact))[:, None], images.shape)
        imaged += on_multisets(fact, alpha.ravel(), images.ravel(), scale)
    assert (moved != 0).sum() == (imaged != 0).sum() > len(fact)
    np.testing.assert_allclose(moved, imaged, rtol=1e-12, atol=0)


@pytest.mark.parametrize("d,n", [(2, 12), (3, 5), (4, 3), (6, 3)])
def test_cycle_moves_memory_estimate_covers_the_moves(d, n):
    # every kept move holds its beta's occupation, d^2 entries, while it is ranked
    coefficients = {2: class_sum_keys(d, n)[0], 3: 1}
    multiset_cycle_moves(d, n, coefficients)  # warms the cached tables
    tracemalloc.start()
    try:
        multiset_cycle_moves(d, n, coefficients)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * cycle_moves_memory_entries(d, n)


@pytest.mark.parametrize("d,n", [(2, n) for n in range(1, 13)] + [(3, n) for n in range(1, 7)])
def test_isotypic_sector_projectors_resolve_the_identity(d, n):
    partitions, pairs, e, diag = _isotypic_sectors(d, n)
    diagonal = (pairs[0] == pairs[1]).astype(float)
    np.testing.assert_allclose(e.sum(axis=0), diagonal, rtol=0, atol=1e-12)
    for i, lam in enumerate(partitions):
        assert e[i, diag].sum() == pytest.approx(weyl_dim(lam, d) ** 2, abs=1e-9)
        # a projector: E^2 = E on every sector (the pairs run sector by sector)
        start = 0
        for rows in protocol._weight_sectors(d, n):
            count, s = rows.shape
            block = e[i, start : start + count * s * s].reshape(count, s, s)
            np.testing.assert_allclose(block @ block, block, rtol=0, atol=1e-12)
            start += count * s * s
    # sum_lambda v_lambda = phi, the last column
    v = pass_v(d, n)
    np.testing.assert_allclose(v[:, :-1].sum(axis=1), v[:, -1], rtol=0, atol=1e-12)


@pytest.mark.parametrize("d,n", [(2, 6), (2, 9), (3, 4), (3, 5)])
def test_isotypic_sector_projectors_from_chain_b_agree(d, n):
    # chain B's class sums are chain A's with the letters of every mode
    # exchanged, so E^B_lambda = S E^A_lambda S^T; Cauchy-Howe duality
    # pairs the lambda blocks of the two chains, so both are one projector
    partitions, pairs, e, _ = _isotypic_sectors(d, n)
    swap = swap_letters(d, n)
    for i in range(len(partitions)):
        block = dense(pairs, e[i])
        np.testing.assert_allclose(block[np.ix_(swap, swap)], block, rtol=0, atol=1e-12)


def test_weight_sectors_are_the_letter_multisets():
    for d, n in [(2, 7), (3, 4)]:
        reps = multiset_table(d * d, n)
        letters = [(tuple(sorted(r // d)), tuple(sorted(r % d))) for r in reps]
        groups = protocol._weight_sectors(d, n)
        members = np.concatenate([g.ravel() for g in groups])
        assert sorted(members.tolist()) == list(range(len(reps)))
        for g in groups:
            for sector in g:
                assert len({letters[a] for a in sector}) == 1
        assert sum(g.size for g in groups) == len(reps)
        assert sum(len(g) for g in groups) == len(set(letters))
        assert protocol._sector_pair_bound(d, n) >= sum(g.size * g.shape[1] for g in groups)


def random_density(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("d,n_max", [(2, 12), (3, 6)])
def test_product_states_match_schur_closed_forms(d, n_max):
    # rho = sigma x tau: p_lambda = d_lambda^2 s_lambda(sigma) s_lambda(tau)
    # and m_lambda = s_lambda(sigma) s_lambda(tau)
    rng = np.random.default_rng(90 + d)
    sigma, tau = random_density(d, rng), random_density(d, rng)
    rho = np.kron(sigma, tau)
    eig_s, eig_t = np.linalg.eigvalsh(sigma), np.linalg.eigvalsh(tau)
    for n in range(1, n_max + 1):
        for b in block_statistics(rho, d, n):
            s = schur_polynomial(b.partition, eig_s) * schur_polynomial(b.partition, eig_t)
            assert b.d_lambda == hook_dim(b.partition)
            assert b.p_lambda == pytest.approx(b.d_lambda**2 * s, rel=1e-10, abs=1e-15)
            assert b.m_lambda == pytest.approx(s, rel=1e-10, abs=1e-15)


def test_pass_tables_build_past_int64_radix_codes():
    # _power_step(4, 33) ranks rows whose radix-4 codes pass int64
    t = _pass_tables(2, 33)
    assert len(t.diag) == len(multiset_table(4, 33))
    _, pairs, e, _ = _isotypic_sectors(2, 33)
    np.testing.assert_allclose(e.sum(axis=0), pairs[0] == pairs[1], rtol=0, atol=1e-12)


def test_tables_are_read_only():
    t = _pass_tables(2, 4)
    for value in vars(t).values():
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable


def test_import_builds_no_table():
    # the tables are built on first use, never at import
    code = (
        "import locc_purity\n"
        "from locc_purity import protocol, states, tensorops\n"
        "states.spec_from_json('{\"d\": 2, \"kind\": \"random_mixed\", \"seed\": 1}')\n"
        "caches = [protocol._pass_tables, protocol.pass_memory_entries, tensorops._power_step,\n"
        "          tensorops.multiset_table, tensorops._digit_table, tensorops._radix_weights,\n"
        "          tensorops._rotation_classes, tensorops._root_factorials]\n"
        "print([c.cache_info().currsize for c in caches])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.split() == ["[0,", "0,", "0,", "0,", "0,", "0,", "0,", "0]"]


def test_a_move_out_of_its_sector_is_loud(monkeypatch):
    original = protocol.multiset_cycle_moves

    def shifted(d, n, coefficients):
        alpha, beta, weight = original(d, n, coefficients)
        return alpha, (beta + 1) % len(multiset_table(d * d, n)), weight

    monkeypatch.setattr(protocol, "multiset_cycle_moves", shifted)
    with pytest.raises(InvariantError, match="left its weight sector"):
        protocol._pass_tables.__wrapped__(2, 4)


def test_an_eigenvalue_off_every_key_is_loud(monkeypatch):
    # move one key 0.7 away from the eigenvalue of its Young index
    spread, key = class_sum_keys(2, 4)
    lam = next(iter(key))
    moved = (spread, {**key, lam: key[lam] + 0.7})
    monkeypatch.setattr(protocol, "class_sum_keys", lambda d, n: moved)
    with pytest.raises(InvariantError, match=f"{weyl_dim(lam, 2) ** 2} eigenvalues .* off every"):
        protocol._pass_tables.__wrapped__(2, 4)


def test_a_projector_of_the_wrong_trace_is_loud(monkeypatch):
    monkeypatch.setattr(protocol, "weyl_dim", lambda lam, d: weyl_dim(lam, d) + 1)
    with pytest.raises(InvariantError, match=r"tr E_"):
        protocol._pass_tables.__wrapped__(2, 4)


def test_pass_tables_build_at_d8_n3():
    # tr E_(2,1) = 28224 here, which an absolute 1e-8 bound failed on
    # float noise alone (28224.00000001573); the traces are checked in
    # _isotypic_sectors, the costly part of the build
    partitions, pairs, e, _ = _isotypic_sectors(8, 3)
    assert [weyl_dim(lam, 8) ** 2 for lam in partitions] == [14400, 28224, 3136]
    np.testing.assert_allclose(e.sum(axis=0), pairs[0] == pairs[1], rtol=0, atol=1e-12)


def test_a_trace_off_by_one_is_loud_at_every_admitted_size():
    # a mislabelled eigenvector moves tr E_lambda by 1; the bound scales with
    # the trace and must stay below 1 wherever the default cap lets a pass run
    sizes = []
    d = 2
    while 16 * pass_memory_entries(d, 1) <= DEFAULT_MEMORY_CAP:
        n = 1
        while 16 * pass_memory_entries(d, n) <= DEFAULT_MEMORY_CAP:
            sizes.append((d, n))
            n += 1
        d += 1
    assert {(2, 35), (3, 8), (4, 5), (8, 3), (23, 2)} <= set(sizes)
    assert not {(2, 36), (3, 9), (4, 6), (24, 2)} & set(sizes)
    for d, n in sizes:
        lam = max(enumerate_partitions(n, d), key=lambda lam: weyl_dim(lam, d))
        expected = weyl_dim(lam, d) ** 2
        protocol._check_projector_trace(lam, expected * (1 + 1e-11), d, n)
        for off in (-1, 1):
            message = re.escape(f"tr E_{lam} = {expected + off}.0, expected {expected}")
            with pytest.raises(InvariantError, match=message):
                protocol._check_projector_trace(lam, float(expected + off), d, n)
