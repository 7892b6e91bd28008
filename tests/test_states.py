import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from locc_purity.errors import MemoryCapError, ValidationError
from locc_purity.states import (
    StateSpec,
    analyze,
    build_state,
    spec_from_json,
    tensor_power,
    validate_spec,
)

MAX_ENT_2 = StateSpec(d=2, kind="pure_schmidt", schmidt=(0.5, 0.5))
MIXED_I4 = StateSpec(d=2, kind="density_matrix", matrix=np.eye(4) / 4)


def schmidt_probs(rho, d):
    """The squared Schmidt coefficients of a pure rho, non-increasing: the
    spectrum of its reduced state on A."""
    reduced = np.einsum("abcb->ac", rho.reshape(d, d, d, d))
    return np.sort(np.linalg.eigvalsh(reduced))[::-1]


def test_product_state():
    rho = build_state(StateSpec(d=2, kind="pure_schmidt", schmidt=(1.0, 0.0)))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    assert np.array_equal(rho, expected)
    assert analyze(rho, 2).purity == pytest.approx(1.0, abs=1e-12)


def test_maximally_entangled_state():
    rho = build_state(MAX_ENT_2)
    an = analyze(rho, 2)
    assert an.p1 == pytest.approx(1.0, abs=1e-12)
    assert an.is_pure
    assert np.allclose(schmidt_probs(rho, 2), [0.5, 0.5], atol=1e-12)


def test_analyze_diagonalizes_rho_alone(monkeypatch):
    # run_test reads no Schmidt data, so analyze takes no reduced state
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    analyze(build_state(MAX_ENT_2), 2)
    assert calls == [(4, 4)]


def test_maximally_mixed_analysis():
    an = analyze(build_state(MIXED_I4), 2)
    assert np.allclose(an.spectrum, [0.25] * 4, atol=1e-12)
    assert an.p1 == pytest.approx(0.25)
    assert an.purity == pytest.approx(0.25)
    assert not an.is_pure


def test_mixture_spectrum():
    rho = 0.7 * build_state(MAX_ENT_2) + 0.3 * np.eye(4) / 4
    assert analyze(rho, 2).p1 == pytest.approx(0.775, abs=1e-12)


def test_random_pure_is_pure_and_reproducible():
    spec = StateSpec(d=3, kind="random_pure", seed=42)
    rho1, rho2 = build_state(spec), build_state(spec)
    assert np.array_equal(rho1, rho2)
    an = analyze(rho1, 3)
    assert an.is_pure
    assert an.p1 == pytest.approx(1.0, abs=1e-10)
    other = build_state(StateSpec(d=3, kind="random_pure", seed=43))
    assert not np.allclose(rho1, other)


def test_random_mixed_rank_and_reproducibility():
    spec = StateSpec(d=2, kind="random_mixed", seed=5, rank=2)
    rho1, rho2 = build_state(spec), build_state(spec)
    assert np.array_equal(rho1, rho2)
    eigs = np.sort(np.linalg.eigvalsh(rho1))[::-1]
    assert eigs[2:] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert eigs[1] > 1e-6
    assert rho1.trace().real == pytest.approx(1.0, abs=1e-12)


def test_analyze_p1_range():
    for seed in range(6):
        rho = build_state(StateSpec(d=2, kind="random_mixed", seed=seed))
        p1 = analyze(rho, 2).p1
        assert 1 / 4 - 1e-12 <= p1 <= 1 + 1e-12


@given(weights=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=2))
def test_schmidt_probs_recovered(weights):
    total = sum(weights)
    p = tuple(sorted((w / total for w in weights), reverse=True))
    rho = build_state(StateSpec(d=2, kind="pure_schmidt", schmidt=p))
    assert analyze(rho, 2).is_pure
    assert np.allclose(schmidt_probs(rho, 2), p, atol=1e-9)


def test_tensor_power_basics():
    rho = build_state(MAX_ENT_2)
    assert np.array_equal(tensor_power(rho, 1), rho)
    for n in (2, 3, 4):
        rn = tensor_power(rho, n)
        assert rn.shape == (4**n, 4**n)
        assert rn.trace().real == pytest.approx(1.0, abs=1e-9)
    # purity of a pure tensor power stays 1
    r2 = tensor_power(rho, 2)
    assert (abs(r2) ** 2).sum() == pytest.approx(1.0, abs=1e-9)


def test_tensor_power_memory_cap():
    rho = build_state(MIXED_I4)
    with pytest.raises(MemoryCapError, match="exceeding the memory cap"):
        tensor_power(rho, 6, memory_cap=10_000_000)


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------


def test_spec_requires_kind_fields():
    with pytest.raises(ValidationError, match="schmidt"):
        validate_spec(StateSpec(d=2, kind="pure_schmidt"))
    with pytest.raises(ValidationError, match="matrix"):
        validate_spec(StateSpec(d=2, kind="density_matrix"))


def test_spec_rejects_extraneous_fields():
    with pytest.raises(ValidationError, match="seed"):
        validate_spec(StateSpec(d=2, kind="pure_schmidt", schmidt=(0.5, 0.5), seed=1))
    with pytest.raises(ValidationError, match="rank"):
        validate_spec(StateSpec(d=2, kind="random_pure", rank=2))


def test_spec_rejects_bad_schmidt():
    with pytest.raises(ValidationError, match="schmidt"):
        validate_spec(StateSpec(d=2, kind="pure_schmidt", schmidt=(0.5, 0.6)))
    with pytest.raises(ValidationError, match="schmidt"):
        validate_spec(StateSpec(d=2, kind="pure_schmidt", schmidt=(1.2, -0.2)))
    with pytest.raises(ValidationError, match="schmidt"):
        validate_spec(StateSpec(d=3, kind="pure_schmidt", schmidt=(0.5, 0.5)))


def test_spec_rejects_bad_matrix():
    not_psd = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValidationError, match="matrix"):
        validate_spec(StateSpec(d=2, kind="density_matrix", matrix=not_psd))
    not_herm = np.eye(4, dtype=complex)
    not_herm[0, 1] = 1j
    with pytest.raises(ValidationError, match="matrix"):
        validate_spec(StateSpec(d=2, kind="density_matrix", matrix=not_herm))
    wrong_trace = np.eye(4, dtype=complex)
    with pytest.raises(ValidationError, match="matrix"):
        validate_spec(StateSpec(d=2, kind="density_matrix", matrix=wrong_trace))


@pytest.mark.parametrize(
    "spec, key",
    [
        (StateSpec(d=True, kind="random_pure"), "d"),
        (StateSpec(d=2, kind="random_pure", seed=1.5), "seed"),
        (StateSpec(d=2, kind="random_mixed", rank=2.5), "rank"),
        (StateSpec(d=2, kind="pure_schmidt", schmidt=(0.5, "x")), "schmidt"),
    ],
)
def test_spec_type_errors_name_the_key(spec, key):
    # the Python API gets the same type checks as the JSON format
    with pytest.raises(ValidationError, match=f"^{key}:"):
        build_state(spec)


def test_spec_rejects_bad_kind_and_rank():
    with pytest.raises(ValidationError, match="kind"):
        validate_spec(StateSpec(d=2, kind="bell"))
    with pytest.raises(ValidationError, match="rank"):
        validate_spec(StateSpec(d=2, kind="random_mixed", rank=9))


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def test_spec_from_json_roundtrip():
    text = '{"d": 2, "kind": "pure_schmidt", "schmidt": [0.5, 0.5]}'
    spec = spec_from_json(text)
    assert spec.d == 2 and spec.schmidt == (0.5, 0.5)
    again = spec_from_json(json.loads(text))
    assert np.array_equal(build_state(spec), build_state(again))


def test_spec_from_json_matrix_format():
    obj = {
        "d": 2,
        "kind": "density_matrix",
        "matrix": [[[0.25, 0.0] if i == j else [0.0, 0.0] for j in range(4)] for i in range(4)],
    }
    spec = spec_from_json(json.dumps(obj))
    assert np.allclose(spec.matrix, np.eye(4) / 4)
    roundtrip = spec_from_json(obj)
    assert np.array_equal(spec.matrix, roundtrip.matrix)


def test_spec_from_json_errors_name_keys():
    with pytest.raises(ValidationError, match="d:"):
        spec_from_json('{"kind": "random_pure"}')
    with pytest.raises(ValidationError, match="kind:"):
        spec_from_json('{"d": 2}')
    with pytest.raises(ValidationError, match="schmidt"):
        spec_from_json('{"d": 2, "kind": "pure_schmidt", "schmidt": "half"}')
    with pytest.raises(ValidationError, match="seed"):
        spec_from_json('{"d": 2, "kind": "random_pure", "seed": 1.5}')
    with pytest.raises(ValidationError, match="seed"):
        spec_from_json('{"d": 2, "kind": "random_pure", "seed": null}')
    with pytest.raises(ValidationError, match="flavor"):
        spec_from_json('{"d": 2, "kind": "random_pure", "flavor": "up"}')
    with pytest.raises(ValidationError, match="matrix"):
        spec_from_json('{"d": 2, "kind": "density_matrix", "matrix": [[1, 0], [0, 1]]}')
    with pytest.raises(ValidationError, match="JSON"):
        spec_from_json("{not json")
