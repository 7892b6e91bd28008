"""Protocol-level checks: block statistics against brute-force dense algebra,
the Schur-polynomial oracle for pure inputs, the optimal-acceptance oracle,
the sandwich inequality, and exponent-series behavior."""

import math
import tracemalloc

import numpy as np
import pytest

from locc_purity.errors import InvariantError, MemoryCapError, ValidationError
from locc_purity.partitions import (
    Partition,
    complete_homogeneous,
    enumerate_partitions,
    schur_polynomial,
)
from locc_purity.protocol import (
    block_statistics,
    exponent_series,
    p_opt,
    p_star,
    pass_memory_entries,
    run_test,
    slack_bound,
    tsuda_acceptance,
)
from locc_purity.schurweyl import ab_block_projector, build_projector_set, sym_projector_bipartite
from locc_purity.states import StateSpec, analyze, build_state, tensor_power

MAX_ENT_2 = StateSpec(d=2, kind="pure_schmidt", schmidt=(0.5, 0.5))
MIXED_I4 = StateSpec(d=2, kind="density_matrix", matrix=np.eye(4) / 4)


def brute_force_blocks(rho, d, n):
    """p_lambda and m_lambda via dense matrix products only."""
    rho_n = tensor_power(rho, n)
    chain = build_projector_set(d, n)
    pi = sym_projector_bipartite(d, n)
    out = {}
    for lam in enumerate_partitions(n, d):
        q = ab_block_projector(chain.projectors[lam], chain.projectors[lam], d, n)
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
            pi = sym_projector_bipartite(2, n)
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


def test_exponent_series_truncation_marker():
    result = exponent_series(MIXED_I4, 6, memory_cap=200_000)
    assert result.truncated_at == 4  # 3 x 256 x 35 complex entries > 200 kB
    assert [r.n for r in result.reports] == [1, 2, 3]


def test_memory_cap_propagates():
    rho = build_state(MIXED_I4)
    with pytest.raises(MemoryCapError):
        run_test(rho, 2, 4, memory_cap=200_000)


@pytest.mark.parametrize("d,n", [(2, 5), (2, 6), (2, 7), (3, 3), (3, 4)])
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


@pytest.mark.parametrize("entry", [block_statistics, p_opt, run_test])
def test_wrong_shape_rho_is_a_validation_error(entry):
    # a 9x9 state is not a d=2 bipartite state; it must not reach a reshape
    with pytest.raises(ValidationError, match=r"expected a 4 x 4 matrix, got \(9, 9\)"):
        entry(np.eye(9) / 9, 2, 2)


def test_oracle_disagreement_is_loud():
    # a non-Hermitian input desynchronizes the direct trace from the
    # Hermitian-solver oracle; that must raise, never return silently
    bogus = np.eye(4, dtype=complex) / 4
    bogus[1, 0] = 0.2
    with pytest.raises(InvariantError, match="oracle"):
        p_opt(bogus, 2, 2)
