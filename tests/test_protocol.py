"""Protocol-level checks: block statistics against brute-force dense algebra,
the Schur-polynomial oracle for pure inputs, the optimal-acceptance oracle,
the sandwich inequality, and exponent-series behavior."""

import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from locc_purity import protocol, tensorops
from locc_purity.errors import InvariantError, MemoryCapError, ValidationError
from locc_purity.partitions import (
    Partition,
    complete_homogeneous,
    enumerate_partitions,
    hook_dim,
    schur_polynomial,
    weyl_dim,
)
from locc_purity.protocol import (
    ZERO_BLOCK_TOL,
    BlockStats,
    block_statistics,
    exponent_series,
    p_opt,
    p_star,
    pass_memory_entries,
    run_test,
    slack_bound,
    tsuda_acceptance,
)
from locc_purity.states import StateSpec, analyze, build_state, tensor_power
from locc_purity.tensorops import symmetrizer

from oracles import ab_block_projector, build_projector_set, werner_block_masses

MAX_ENT_2 = StateSpec(d=2, kind="pure_schmidt", schmidt=(0.5, 0.5))
MIXED_I4 = StateSpec(d=2, kind="density_matrix", matrix=np.eye(4) / 4)


def brute_force_blocks(rho, d, n):
    """p_lambda and m_lambda via dense matrix products only."""
    rho_n = tensor_power(rho, n)
    chain = build_projector_set(d, n)
    pi = symmetrizer(d * d, n)
    out = {}
    for lam in enumerate_partitions(n, d):
        q = ab_block_projector(chain[lam], chain[lam], d, n)
        p_lam = (rho_n @ q).trace().real
        m_lam = (rho_n @ q @ pi @ q).trace().real
        out[lam] = (p_lam, m_lam)
    return out


# ---------------------------------------------------------------------------
# Tsuda acceptance formula
# ---------------------------------------------------------------------------


def test_tsuda_perfect_fidelity():
    for d in (1, 2, 3, 10):
        assert tsuda_acceptance(1.0, d) == pytest.approx(1.0, abs=1e-15)


def test_tsuda_zero_fidelity_qubit():
    assert tsuda_acceptance(0.0, 2) == pytest.approx(0.2, abs=1e-15)


def test_tsuda_large_dimension_limit():
    f = 0.37
    for d in (10, 100, 1000):
        assert abs(tsuda_acceptance(f, d) - f) <= 1.0 / (d * d)


def test_tsuda_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        tsuda_acceptance(1.5, 2)
    with pytest.raises(ValidationError):
        tsuda_acceptance(0.5, 0)


# ---------------------------------------------------------------------------
# Block statistics
# ---------------------------------------------------------------------------


def test_blocks_maximally_entangled_all_fidelity_one():
    rho = build_state(MAX_ENT_2)
    blocks = block_statistics(rho, 2, 2)
    assert sum(b.p_lambda for b in blocks) == pytest.approx(1.0, abs=1e-9)
    for b in blocks:
        if b.p_lambda > 1e-12:
            assert b.fidelity == pytest.approx(1.0, abs=1e-9)


def test_blocks_maximally_mixed_n2_exact():
    rho = build_state(MIXED_I4)
    blocks = {b.partition: b for b in block_statistics(rho, 2, 2)}
    b_sym = blocks[Partition((2,))]
    b_anti = blocks[Partition((1, 1))]
    assert b_sym.p_lambda == pytest.approx(9 / 16, abs=1e-12)
    assert b_anti.p_lambda == pytest.approx(1 / 16, abs=1e-12)
    # both blocks have d_lambda = 1, so the matched block carries all its mass
    assert b_sym.m_lambda == pytest.approx(b_sym.p_lambda, abs=1e-12)
    assert b_anti.m_lambda == pytest.approx(b_anti.p_lambda, abs=1e-12)
    assert sum(b.p_lambda for b in blocks.values()) == pytest.approx(5 / 8, abs=1e-12)


def test_blocks_match_brute_force_dense_route():
    specs = [
        MAX_ENT_2,
        MIXED_I4,
        StateSpec(d=2, kind="random_mixed", seed=1),
        StateSpec(d=2, kind="random_mixed", seed=2, rank=2),
        StateSpec(d=2, kind="random_pure", seed=3),
        StateSpec(d=3, kind="random_mixed", seed=4),
    ]
    for spec in specs:
        rho = build_state(spec)
        d = spec.d
        for n in (1, 2, 3, 4) if d == 2 else (1, 2, 3):
            brute = brute_force_blocks(rho, d, n)
            for b in block_statistics(rho, d, n):
                p_bf, m_bf = brute[b.partition]
                assert b.p_lambda == pytest.approx(p_bf, abs=1e-10)
                assert b.m_lambda == pytest.approx(m_bf, abs=1e-10)


def test_blocks_pure_schmidt_match_schur_oracle():
    # matrix-computed p_lambda = d_lambda * s_lambda(schmidt) for pure inputs
    rng = np.random.default_rng(77)
    for trial in range(4):
        p = rng.uniform(0.05, 1, size=2)
        p /= p.sum()
        spec = StateSpec(d=2, kind="pure_schmidt", schmidt=tuple(p))
        rho = build_state(spec)
        for n in (1, 2, 3, 4):
            for b in block_statistics(rho, 2, n):
                expected = b.d_lambda * schur_polynomial(b.partition, p)
                assert b.p_lambda == pytest.approx(expected, abs=1e-8)


def test_block_mass_ordering_and_bounds():
    for seed in range(5):
        rho = build_state(StateSpec(d=2, kind="random_mixed", seed=seed))
        for n in (2, 3):
            blocks = block_statistics(rho, 2, n)
            total_p = sum(b.p_lambda for b in blocks)
            assert total_p <= 1.0 + 1e-9
            for b in blocks:
                assert -1e-9 <= b.m_lambda <= b.p_lambda + 1e-9
                if b.fidelity is not None:
                    assert -1e-9 <= b.fidelity <= 1.0 + 1e-9


def test_blocks_sum_m_equals_sym_overlap():
    for seed in (3, 4):
        rho = build_state(StateSpec(d=2, kind="random_mixed", seed=seed))
        for n in (2, 3):
            blocks = block_statistics(rho, 2, n)
            rho_n = tensor_power(rho, n)
            pi = symmetrizer(4, n)
            direct = (rho_n @ pi).trace().real
            assert sum(b.m_lambda for b in blocks) == pytest.approx(direct, abs=1e-9)


# ---------------------------------------------------------------------------
# Acceptance probabilities
# ---------------------------------------------------------------------------


def test_p_opt_pure_is_one():
    for spec in (MAX_ENT_2, StateSpec(d=2, kind="random_pure", seed=9)):
        rho = build_state(spec)
        for n in (1, 2, 3):
            assert p_opt(rho, 2, n) == pytest.approx(1.0, abs=1e-9)


def test_p_opt_maximally_mixed_known_values():
    rho = build_state(MIXED_I4)
    assert p_opt(rho, 2, 2) == pytest.approx(5 / 8, abs=1e-12)
    assert p_opt(rho, 2, 3) == pytest.approx(20 / 64, abs=1e-12)


def test_p_opt_matches_oracle_on_random_states():
    for seed in range(5):
        rho = build_state(StateSpec(d=2, kind="random_mixed", seed=seed))
        spectrum = np.linalg.eigvalsh(rho)
        for n in (1, 2, 3, 4):
            assert p_opt(rho, 2, n) == pytest.approx(
                complete_homogeneous(n, spectrum), abs=1e-8
            )


def test_p_star_pure_is_one():
    rho = build_state(MAX_ENT_2)
    for n in (1, 2, 3):
        blocks = block_statistics(rho, 2, n)
        assert p_star(blocks) == pytest.approx(1.0, abs=1e-9)


def test_p_star_maximally_mixed_n2():
    blocks = block_statistics(build_state(MIXED_I4), 2, 2)
    assert p_star(blocks) == pytest.approx(5 / 8, abs=1e-12)
    # every block has d_lambda = 1, so the slack equals the matched mass
    assert slack_bound(blocks) == pytest.approx(5 / 8, abs=1e-12)


def test_p_star_counts_a_block_below_the_zero_block_threshold():
    # a null fidelity is a display rule: the block's mass still accepts,
    # (p + d_lambda^2 m) / (1 + d_lambda^2) = 5e-15 here
    assert 5e-15 < ZERO_BLOCK_TOL
    tiny = BlockStats(Partition((2,)), 5e-15, 5e-15, 1, 3, None)
    assert p_star([tiny]) == pytest.approx(5e-15, rel=1e-15, abs=0)


def test_sandwich_inequality():
    specs = [
        MAX_ENT_2,
        MIXED_I4,
        StateSpec(d=2, kind="random_mixed", seed=11),
        StateSpec(d=2, kind="random_mixed", seed=12, rank=3),
        StateSpec(d=2, kind="random_pure", seed=13),
    ]
    for spec in specs:
        rho = build_state(spec)
        for n in (1, 2, 3, 4):
            blocks = block_statistics(rho, 2, n)
            opt = p_opt(rho, 2, n)
            star = p_star(blocks)
            slack = slack_bound(blocks)
            assert opt - 1e-9 <= star <= opt + slack + 1e-9
            # the linear sum is the Tsuda-weighted sum over populated blocks
            populated = [b for b in blocks if b.fidelity is not None]
            tsuda = sum(b.p_lambda * tsuda_acceptance(b.fidelity, b.d_lambda) for b in populated)
            assert star == pytest.approx(tsuda, abs=1e-15)


def test_run_test_reports_consistent_fields():
    rep = run_test(build_state(MIXED_I4), 2, 3)
    assert rep.n == 3
    assert rep.p_opt == pytest.approx(rep.oracle_p_opt, abs=1e-8)
    assert rep.exponent_opt == pytest.approx(-math.log(rep.p_opt) / 3, abs=1e-12)
    assert rep.minus_log_p1 == pytest.approx(math.log(4), abs=1e-12)
    assert rep.p_star == pytest.approx(0.35, abs=1e-12)


def test_exponent_series_pure_input_all_zero():
    result = exponent_series(StateSpec(d=2, kind="random_pure", seed=21), 3)
    assert result.truncated_at is None
    for rep in result.reports:
        assert rep.exponent_opt == 0.0
        assert rep.exponent_star == 0.0
        assert rep.minus_log_p1 == 0.0


def test_pure_input_exponents_are_zero_when_acceptance_rounds_below_one():
    # random_pure seed 3 at d = 2: the pass's p_opt and p_star land a few ulp
    # under 1, which must not leak a 1e-16 exponent
    rho = build_state(StateSpec(d=2, kind="random_pure", seed=3))
    for n in (1, 2, 3, 4):
        rep = run_test(rho, 2, n)
        assert rep.p_star < 1.0
        assert rep.exponent_opt == 0.0
        assert rep.exponent_star == 0.0
        assert rep.minus_log_p1 == 0.0


def test_exponent_series_maximally_mixed_trend():
    result = exponent_series(MIXED_I4, 5)
    reports = result.reports
    assert [r.n for r in reports] == [1, 2, 3, 4, 5]
    log4 = math.log(4)
    prev_opt = prev_star = -1.0
    for r in reports:
        assert r.exponent_opt >= prev_opt - 1e-12
        assert r.exponent_star >= prev_star - 1e-12
        prev_opt, prev_star = r.exponent_opt, r.exponent_star
        assert r.exponent_opt <= log4 + 1e-12
        assert r.exponent_star <= log4 + 1e-12
    # p_opt non-increasing in n
    for a, b in zip(reports, reports[1:]):
        assert b.p_opt <= a.p_opt + 1e-12


def test_exponent_gap_within_polynomial_envelope():
    # |exponent_opt - exponent_star| stays under the counting-factor budget
    result = exponent_series(MIXED_I4, 5)
    d = 2
    for r in result.reports:
        budget = (
            d * d * math.log(r.n)
            + (d * d + d * (d + 1) / 2) * math.log(r.n + 1)
        ) / r.n
        assert abs(r.exponent_opt - r.exponent_star) <= budget


def test_log_p_opt_polynomial_envelope():
    # n log p1 <= log p_opt <= n log p1 + d^2 log(n+1) for mixed inputs
    for spec in (MIXED_I4, StateSpec(d=2, kind="random_mixed", seed=31)):
        rho = build_state(spec)
        p1 = analyze(rho, 2).p1
        for n in (1, 2, 3, 4):
            lo = n * math.log(p1)
            hi = n * math.log(p1) + 4 * math.log(n + 1)
            assert lo - 1e-9 <= math.log(p_opt(rho, 2, n)) <= hi + 1e-9


# p_lambda and m_lambda of random_mixed seed 7, recorded from the recursion
# that summed m row gathers per level, before it gathered one row per
# distinct letter
PINNED_BLOCKS = {
    (2, 10): [
        ((10,), 0.030332336537767086, 0.030332336537767093),
        ((9, 1), 0.10935979040665335, 0.008221318114654536),
        ((8, 2), 0.09948173257262515, 0.0017183502545075177),
        ((7, 3), 0.0307312330713596, 0.00029542123319824633),
        ((6, 4), 0.002650725802120768, 3.961980191737681e-05),
        ((5, 5), 1.5655357384524133e-05, 2.280296427616528e-06),
    ],
    (2, 16): [
        ((16,), 0.002843884280109172, 0.0028438842801091673),
        ((15, 1), 0.025472482767695124, 0.001109361774822059),
        ((14, 2), 0.06253990564499716, 0.0003135737698353461),
        ((13, 3), 0.06650335916301035, 7.400555007882228e-05),
        ((12, 4), 0.03528826561085055, 1.5287407731471034e-05),
        ((11, 5), 0.00947920574164432, 2.799272451695604e-06),
        ((10, 6), 0.0011660302284155646, 4.4704016541811587e-07),
        ((9, 7), 4.821125985595795e-05, 5.727601207792289e-08),
        ((8, 8), 1.7681521914095087e-07, 3.206054434357354e-09),
    ],
    (3, 5): [
        ((5,), 0.01966125315083499, 0.019661253150834987),
        ((4, 1), 0.18362770032670922, 0.020686834978996073),
        ((3, 2), 0.07711170786425016, 0.006873912767063775),
        ((3, 1, 1), 0.016431427523133785, 0.0009470039370439531),
        ((2, 2, 1), 0.002466010341233668, 0.0002056864029765061),
    ],
}


@pytest.mark.parametrize("d,n", sorted(PINNED_BLOCKS))
def test_block_values_are_pinned(d, n):
    # sum m_lambda = p_opt holds whatever Gamma holds, and the h_n and
    # realigned checks see only traces: these values see every block. The
    # smallest blocks are far below the unit mass the contraction sums; in
    # float64 they round to about 1e-11 relative (about 5e-12 at (2, 16),
    # (8, 8) against a long double evaluation of the same tables), which
    # the absolute 1e-16, below one ulp of 1, covers.
    rep = run_test(build_state(StateSpec(d=d, kind="random_mixed", seed=7)), d, n)
    want = PINNED_BLOCKS[(d, n)]
    assert [b.partition.parts for b in rep.blocks] == [parts for parts, _, _ in want]
    got = [(b.p_lambda, b.m_lambda) for b in rep.blocks]
    np.testing.assert_allclose(got, [w[1:] for w in want], rtol=1e-12, atol=1e-16)


def test_run_test_at_the_frontier():
    # run_test raises if any of its invariants fails; this runs them all at
    # the largest d = 2 size the tier-1 suite affords, under the default cap
    rep = run_test(build_state(StateSpec(d=2, kind="random_mixed", seed=7)), 2, 20)
    assert [b.partition for b in rep.blocks] == enumerate_partitions(20, 2)
    assert rep.p_opt > 0


def werner_state(d, b):
    """a I + b F, F the swap of A and B, with b and a = (1 - b d) / d^2
    rounded to multiples of 2^-50, so that every entry, a + b too, is the
    exact Fraction it stands for."""
    a = Fraction(round(Fraction(1 - b * d, d * d) * 2**50), 2**50)
    swap = np.eye(d * d)[[j * d + i for i in range(d) for j in range(d)]]
    return a, b, float(a) * np.eye(d * d) + float(b) * swap


@pytest.mark.parametrize(
    "d,n,b", [(2, 4, Fraction(1, 8)), (3, 3, Fraction(1, 32)), (2, 20, Fraction(1, 8)),
              (3, 6, Fraction(1, 32)), (3, 6, Fraction(-1, 16))]
)
def test_blocks_match_the_exact_werner_closed_form(d, n, b):
    # the closed form is exact at any n, where the dense oracles stop near
    # n = 6: it is the one exact check of the blocks at the frontier
    a, b, rho = werner_state(d, b)
    masses = werner_block_masses(a, b, d, n)
    # matched and mismatched blocks together carry Tr rho^{tensor n}
    assert sum(map(sum, masses)) == (a * d * d + b * d) ** n
    spec = StateSpec(d=d, kind="density_matrix", matrix=rho)
    got = [blk.p_lambda for blk in run_test(build_state(spec), d, n).blocks]
    want = [float(row[i]) for i, row in enumerate(masses)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_maximally_mixed_blocks_match_the_closed_form_past_the_zero_block_threshold():
    # rho = I/4: p_lambda = (d_lambda dim U_lambda)^2 / 4^n and m_lambda =
    # dim U_lambda^2 / 4^n exactly. At n = 29 block (29) has p_lambda below
    # ZERO_BLOCK_TOL and carries a tenth of p_star
    n = 29
    rep = run_test(build_state(MIXED_I4), 2, n)
    dims = [(hook_dim(lam), weyl_dim(lam, 2)) for lam in enumerate_partitions(n, 2)]
    assert min(b.p_lambda for b in rep.blocks) < ZERO_BLOCK_TOL
    want = [(Fraction((h * w) ** 2, 4**n), Fraction(w**2, 4**n)) for h, w in dims]
    got = [(b.p_lambda, b.m_lambda) for b in rep.blocks]
    np.testing.assert_allclose(got, np.array(want, dtype=float), rtol=1e-12, atol=0)
    star = sum(Fraction(2 * h**2 * w**2, (1 + h**2) * 4**n) for h, w in dims)
    assert rep.p_star == pytest.approx(float(star), rel=1e-12, abs=0)


# a cap between the d=2 pass estimates at n=3 and n=4 (asserted where used)
CAP_N4 = 75_000


def test_exponent_series_truncation_marker():
    assert 16 * pass_memory_entries(2, 3) <= CAP_N4 < 16 * pass_memory_entries(2, 4)
    result = exponent_series(MIXED_I4, 6, memory_cap=CAP_N4)
    assert result.truncated_at == 4
    assert [r.n for r in result.reports] == [1, 2, 3]


def test_memory_cap_propagates():
    assert 16 * pass_memory_entries(2, 3) <= CAP_N4 < 16 * pass_memory_entries(2, 4)
    rho = build_state(MIXED_I4)
    with pytest.raises(MemoryCapError):
        run_test(rho, 2, 4, memory_cap=CAP_N4)


@pytest.mark.parametrize("d,n_max", [(2, 9), (3, 5), (2, 16), (3, 6)])
def test_default_cap_reaches_past_the_doubled_chain(d, n_max):
    # a (d^2)^n x R working set would exceed the default cap at (2, 9) and
    # (3, 5), and d^n x d^n chain projectors would truncate d = 2 at n = 13
    result = exponent_series(StateSpec(d=d, kind="random_mixed", seed=5), n_max)
    assert result.truncated_at is None
    assert [r.n for r in result.reports] == list(range(1, n_max + 1))


@pytest.mark.parametrize(
    "d,n", [(2, 5), (2, 6), (2, 7), (2, 8), (2, 12), (2, 16), (3, 3), (3, 4), (3, 5)]
)
def test_pass_memory_estimate_bounds_traced_peak(d, n):
    # the up-front estimate must cover the pass's real peak, and not by
    # more than a factor 2; the first call warms the index caches
    rho = build_state(StateSpec(d=d, kind="random_mixed", seed=7))
    run_test(rho, d, n)
    tracemalloc.start()
    try:
        run_test(rho, d, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    estimate = 16 * pass_memory_entries(d, n)
    assert peak <= estimate <= 2 * peak


@pytest.mark.parametrize("d,n", [(2, 6), (2, 8), (3, 4), (3, 5), (4, 4), (6, 3), (7, 2)])
def test_pass_memory_estimate_covers_the_table_build(d, n):
    # the first call of a process also builds the cached tables; its peak,
    # tables included, must stay under the estimate
    rho = build_state(StateSpec(d=d, kind="random_mixed", seed=7))
    run_test(rho, d, 1)
    protocol._pass_tables.cache_clear()
    tensorops._power_step.cache_clear()
    tensorops._root_factorials.cache_clear()
    tensorops.multiset_table.cache_clear()
    tracemalloc.start()
    try:
        run_test(rho, d, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * pass_memory_entries(d, n)


@pytest.mark.parametrize("n", [12, 16])
def test_pass_memory_estimate_covers_a_fresh_process(n):
    # nothing is cached or pooled yet in a fresh process: every table the
    # first pass builds, and every object it leaves behind, counts
    code = (
        "import tracemalloc\n"
        "from locc_purity.protocol import pass_memory_entries, run_test\n"
        "from locc_purity.states import StateSpec, build_state\n"
        "rho = build_state(StateSpec(d=2, kind='random_mixed', seed=7))\n"
        "tracemalloc.start()\n"
        f"run_test(rho, 2, {n})\n"
        f"print(tracemalloc.get_traced_memory()[1], 16 * pass_memory_entries(2, {n}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    peak, estimate = map(int, out.stdout.split())
    assert peak <= estimate


@pytest.mark.parametrize("entry", [block_statistics, p_opt, run_test])
def test_wrong_shape_rho_is_a_validation_error(entry):
    # a 9x9 state is not a d=2 bipartite state; it must not reach a reshape
    with pytest.raises(ValidationError, match=r"expected a 4 x 4 matrix, got \(9, 9\)"):
        entry(np.eye(9) / 9, 2, 2)


def test_oracle_is_a_plain_float():
    rep = run_test(build_state(StateSpec(d=2, kind="random_mixed", seed=4)), 2, 3)
    assert type(rep.oracle_p_opt) is float
    with pytest.raises(InvariantError) as err:
        p_opt(non_hermitian_state(), 2, 2)
    assert "np.float64" not in str(err.value)


def skew_realigned_power(monkeypatch):
    """Scale G_{n-1} of every non-Hermitian operand of the pass by 1.001:
    rho^R of a mixed state is not Hermitian, rho is."""
    original = protocol._monomial_power

    def skewed(op, n):
        gamma = original(op, n)
        return gamma if np.allclose(op, op.conj().T) else 1.001 * gamma

    monkeypatch.setattr(protocol, "_monomial_power", skewed)


def test_realigned_mass_disagreement_is_loud(monkeypatch):
    # phi^T Gamma^R phi = (Tr rho)^n checks Gamma_{n-1}(rho^R) and the last
    # step's contraction by a route that no E_lambda enters: skew only the
    # realigned power
    skew_realigned_power(monkeypatch)
    rho = build_state(StateSpec(d=2, kind="random_mixed", seed=6))
    with pytest.raises(InvariantError, match="realigned"):
        run_test(rho, 2, 3)


def non_hermitian_state():
    bogus = np.eye(4, dtype=complex) / 4
    bogus[1, 0] = 0.2
    return bogus


@pytest.mark.parametrize("corrupt", ["realigned power", "non-Hermitian input"])
@pytest.mark.parametrize("entry", [block_statistics, p_opt, run_test])
def test_every_entry_enforces_the_same_invariants(entry, corrupt, monkeypatch):
    # run_test is the one checked entry into the pass: block_statistics and
    # p_opt raise exactly what it raises
    if corrupt == "realigned power":
        skew_realigned_power(monkeypatch)
        rho = build_state(StateSpec(d=2, kind="random_mixed", seed=6))
    else:
        rho = non_hermitian_state()
    with pytest.raises(InvariantError) as want:
        run_test(rho, 2, 3)
    with pytest.raises(InvariantError) as got:
        entry(rho, 2, 3)
    assert str(got.value) == str(want.value)


def test_realigned_mass_is_the_trace_power():
    for spec in (MIXED_I4, StateSpec(d=3, kind="random_mixed", seed=8, rank=2)):
        rho = build_state(spec)
        for n in (1, 2, 4):
            _, _, mass = protocol._n_copy_pass(2.5 * rho, spec.d, n, None)
            assert mass == pytest.approx(2.5**n, rel=1e-13)


def test_oracle_disagreement_is_loud():
    # a non-Hermitian input desynchronizes the direct trace from the
    # Hermitian-solver oracle; that must raise, never return silently
    with pytest.raises(InvariantError, match="oracle"):
        p_opt(non_hermitian_state(), 2, 2)


def test_a_relative_error_in_an_exponentially_small_p_opt_is_loud(monkeypatch):
    # at (2, 16) p_opt of I/4 is 2.3e-7: an absolute ORACLE_TOL would let
    # the 2.3e-10 error of a G_{n-1}(rho) off by 0.1 % through
    original = protocol._monomial_power
    calls = []

    def skewed(op, n):
        calls.append(op)
        gamma = original(op, n)
        return 1.001 * gamma if len(calls) == 1 else gamma

    monkeypatch.setattr(protocol, "_monomial_power", skewed)
    with pytest.raises(InvariantError, match="oracle"):
        run_test(build_state(MIXED_I4), 2, 16)
