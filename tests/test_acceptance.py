"""Acceptance gate: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -s`` to see them
inline). Tolerances are pinned here and nowhere else."""

import json
import math
import time

import numpy as np
import pytest

from locc_purity.cli import run
from locc_purity.partitions import (
    check_dim_entropy_bound,
    enumerate_partitions,
    hook_dim,
    schur_polynomial,
    type_region_bound,
    weyl_dim,
)
from locc_purity.protocol import block_statistics, exponent_series, p_opt, p_star, slack_bound
from locc_purity.states import StateSpec, build_state
from locc_purity.tensorops import symmetrizer

from oracles import build_projector_set, frobenius, is_hermitian, verify_block_structure

I4 = StateSpec(d=2, kind="density_matrix", matrix=np.eye(4) / 4)
I4_JSON = json.dumps(
    {
        "d": 2,
        "kind": "density_matrix",
        "matrix": [
            [[0.25, 0.0] if i == j else [0.0, 0.0] for j in range(4)] for i in range(4)
        ],
    }
)


def report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_01_dimension_identity():
    t0 = time.perf_counter()
    for d in (2, 3):
        for n in range(1, 9):
            total = sum(
                weyl_dim(lam, d) * hook_dim(lam) for lam in enumerate_partitions(n, d)
            )
            assert total == d**n, (d, n, total)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    report(1, f"sum dim_u*d_lambda = d^n exactly for d in (2,3), n <= 8 ({elapsed:.3f} s)")


def test_criterion_02_projector_suite():
    t0 = time.perf_counter()
    tol = 1e-8
    for d in (2, 3):
        for n in range(1, 5):
            s = build_projector_set(d, n)
            dim = d**n
            total = np.zeros((dim, dim), dtype=complex)
            parts = list(s)
            for lam in parts:
                p = s[lam]
                assert is_hermitian(p, tol), (d, n, lam, "hermitian")
                assert frobenius(p @ p - p) <= tol, (d, n, lam, "idempotent")
                expected = weyl_dim(lam, d) * hook_dim(lam)
                assert abs(p.trace().real - expected) <= tol, (d, n, lam, "trace")
                total += p
            assert frobenius(total - np.eye(dim)) <= tol, (d, n, "completeness")
            for i, lam in enumerate(parts):
                for mu in parts[i + 1 :]:
                    assert frobenius(s[lam] @ s[mu]) <= tol, (
                        d, n, lam, mu, "orthogonality",
                    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f} s"
    report(2, f"single-chain projector family verified for d in (2,3), n <= 4 ({elapsed:.2f} s)")


def test_criterion_03_block_structure():
    t0 = time.perf_counter()
    d = 2
    for n in range(1, 4):
        s = build_projector_set(d, n)
        pi = symmetrizer(d * d, n)
        rep = verify_block_structure(d, n, s, s, pi)
        for lam in s:
            assert abs(rep.block_traces[lam] - weyl_dim(lam, d) ** 2) <= 1e-6, (n, lam)
        assert rep.max_cross_block <= 1e-8, n
        total = sum(weyl_dim(lam, d) ** 2 for lam in s)
        assert total == math.comb(d * d + n - 1, n), n
        assert abs(rep.trace_total - total) <= 1e-6, n
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f} s"
    report(3, f"matched-block decomposition of the symmetric projector, d=2, n <= 3 ({elapsed:.2f} s)")


def test_criterion_04_one_sided_error():
    tol = 1e-9
    checked = 0
    for d, seeds in ((2, (101, 102, 103, 104, 105)), (3, (201, 202, 203, 204, 205))):
        for seed in seeds:
            rho = build_state(StateSpec(d=d, kind="random_pure", seed=seed))
            for n in range(1, 4):
                opt = p_opt(rho, d, n)
                blocks = block_statistics(rho, d, n)
                star = p_star(blocks)
                assert abs(opt - 1.0) <= tol, (d, seed, n, opt)
                assert abs(star - 1.0) <= tol, (d, seed, n, star)
                checked += 1
    report(4, f"pure inputs always accepted (p_opt = p_star = 1) in {checked} runs, d in (2,3), n <= 3")


def _criterion_state_set():
    specs = [
        StateSpec(d=2, kind="pure_schmidt", schmidt=(0.5, 0.5)),
        I4,
    ]
    specs += [StateSpec(d=2, kind="random_mixed", seed=s) for s in (301, 302, 303, 304, 305)]
    return specs


def test_criterion_05_oracle_equivalence():
    from locc_purity.partitions import complete_homogeneous

    tol = 1e-8
    for spec in _criterion_state_set():
        rho = build_state(spec)
        spectrum = np.linalg.eigvalsh(rho)
        for n in range(1, 5):
            direct = p_opt(rho, 2, n)  # raises internally on disagreement
            assert abs(direct - complete_homogeneous(n, spectrum)) <= tol, (spec.kind, n)
    exact = p_opt(build_state(I4), 2, 2)
    assert abs(exact - 5 / 8) <= tol
    report(5, "direct-trace optimal acceptance equals its polynomial oracle; I/4 at n=2 gives 5/8")


def test_criterion_06_sandwich():
    tol = 1e-9
    for spec in _criterion_state_set():
        rho = build_state(spec)
        for n in range(1, 5):
            blocks = block_statistics(rho, 2, n)
            opt = p_opt(rho, 2, n)
            star = p_star(blocks)
            slack = slack_bound(blocks)
            assert opt - tol <= star, (spec.kind, n, opt, star)
            assert star <= opt + slack + tol, (spec.kind, n, star, opt + slack)
    report(6, "p_opt <= p_star <= p_opt + sum p_lambda/d_lambda^2 on the full state set, n <= 4")


def test_criterion_07_schur_oracle_blocks():
    tol = 1e-8
    rng = np.random.default_rng(555)
    schmidts = [(0.5, 0.5), (1.0, 0.0)]
    for _ in range(3):
        p = rng.uniform(0.05, 1, size=2)
        p /= p.sum()
        schmidts.append(tuple(p))
    for p in schmidts:
        rho = build_state(StateSpec(d=2, kind="pure_schmidt", schmidt=p))
        for n in range(1, 5):
            for b in block_statistics(rho, 2, n):
                expected = b.d_lambda * schur_polynomial(b.partition, p)
                assert abs(b.p_lambda - expected) <= tol, (p, n, b.partition)
    report(7, "matrix block probabilities match d_lambda * s_lambda(schmidt) for pure inputs, n <= 4")


def test_criterion_08_type_class_bounds():
    t0 = time.perf_counter()
    for d in (2, 3, 4):
        for n in range(1, 21):
            for lam in enumerate_partitions(n, d):
                assert check_dim_entropy_bound(lam, n, d).holds, (d, n, lam)
    rng = np.random.default_rng(888)
    for trial in range(20):
        p = rng.uniform(0.05, 1, size=2)
        p /= p.sum()
        thr = float(rng.uniform(0, 1))
        n = int(rng.integers(1, 13))
        tc = type_region_bound(lambda q: q[0] <= thr, tuple(p), n, 2)
        assert tc.holds, (trial, p, thr, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f} s"
    report(8, f"dimension-entropy bound (n <= 20, d <= 4) and 20 seeded type-region bounds hold ({elapsed:.2f} s)")


def test_criterion_09_exponent_trend():
    d = 2
    result = exponent_series(I4, 7)
    assert result.truncated_at is None
    log4 = math.log(4)
    prev_opt = prev_star = 0.0
    for rep in result.reports:
        assert rep.exponent_opt >= prev_opt - 1e-12, rep.n
        assert rep.exponent_star >= prev_star - 1e-12, rep.n
        prev_opt, prev_star = rep.exponent_opt, rep.exponent_star
        gap_budget = (d * d * math.log(rep.n) + d * (d + 1) / 2 * math.log(rep.n + 1)) / rep.n
        assert abs(rep.exponent_opt - rep.exponent_star) < gap_budget, rep.n
        assert rep.exponent_opt <= log4 + 1e-12, rep.n
        assert rep.exponent_star <= log4 + 1e-12, rep.n
        assert rep.minus_log_p1 == pytest.approx(log4, abs=1e-12)
    report(9, "exponent sequences for I/4 are monotone, gap-bounded, and below -log p1 = log 4, n <= 7")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    spec = '{"d": 2, "kind": "random_mixed", "seed": 2024}'
    args = ["sweep", "--d", "2", "--n-max", "3", "--state", spec, "--format", "csv"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    bad = '{"d": 2, "kind": "pure_schmidt", "schmidt": [0.7, 0.4]}'
    rc = run(["test", "--d", "2", "--n", "2", "--state", bad])
    assert rc == 2
    assert "schmidt" in capsys.readouterr().err
    report(10, "seeded sweeps are byte-identical; malformed specs exit 2 naming the failed key")
