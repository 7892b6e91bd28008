"""Bipartite state construction, validation, and spectral analysis.

A single copy lives on C^d tensor C^d with flat index a*d + b; density
matrices are d^2 x d^2 complex arrays. Both local dimensions are equal by
construction. Random states are seeded and bit-reproducible.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import ValidationError
from .tensorops import DEFAULT_MEMORY_CAP, check_memory_cap, kron

KINDS = ("pure_schmidt", "density_matrix", "random_pure", "random_mixed")

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
PURITY_PURE_THRESHOLD = 1.0 - 1e-9


@dataclass(eq=False)
class StateSpec:
    """Declarative description of the input state on H_A tensor H_B.

    Exactly the fields the kind needs may be set:
      pure_schmidt   -> schmidt (length-d probability vector)
      density_matrix -> matrix (d^2 x d^2 Hermitian PSD unit-trace)
      random_pure    -> seed (optional)
      random_mixed   -> seed (optional), rank (optional, default d^2)
    """

    d: int
    kind: str
    schmidt: tuple[float, ...] | None = None
    matrix: np.ndarray | None = None
    seed: int | None = None
    rank: int | None = None


_ALLOWED_FIELDS = {
    "pure_schmidt": {"schmidt"},
    "density_matrix": {"matrix"},
    "random_pure": {"seed"},
    "random_mixed": {"seed", "rank"},
}
_REQUIRED_FIELDS = {
    "pure_schmidt": {"schmidt"},
    "density_matrix": {"matrix"},
    "random_pure": set(),
    "random_mixed": set(),
}


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x: Any) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def validate_spec(spec: StateSpec) -> None:
    """Check a spec's types and values; errors name the offending key."""
    if not _is_int(spec.d) or spec.d < 1:
        raise ValidationError(f"d: must be a positive integer, got {spec.d!r}")
    if spec.kind not in KINDS:
        raise ValidationError(f"kind: must be one of {KINDS}, got {spec.kind!r}")
    allowed = _ALLOWED_FIELDS[spec.kind]
    required = _REQUIRED_FIELDS[spec.kind]
    present = {
        name
        for name in ("schmidt", "matrix", "seed", "rank")
        if getattr(spec, name) is not None
    }
    for name in sorted(present - allowed):
        raise ValidationError(f"{name}: not a field of kind {spec.kind!r}")
    for name in sorted(required - present):
        raise ValidationError(f"{name}: required for kind {spec.kind!r}")
    for name in ("seed", "rank"):
        value = getattr(spec, name)
        if value is not None and not _is_int(value):
            raise ValidationError(f"{name}: must be an integer, got {value!r}")

    if spec.kind == "pure_schmidt":
        p = spec.schmidt
        if not isinstance(p, (list, tuple, np.ndarray)) or not all(_is_real(x) for x in p):
            raise ValidationError(f"schmidt: must be an array of reals, got {p!r}")
        if len(p) != spec.d:
            raise ValidationError(f"schmidt: expected {spec.d} entries, got {len(p)}")
        if not all(math.isfinite(x) for x in p):
            raise ValidationError(f"schmidt: entries must be finite, got {p}")
        if any(x < 0 for x in p):
            raise ValidationError(f"schmidt: entries must be non-negative, got {p}")
        if abs(sum(p) - 1.0) > 1e-12:
            raise ValidationError(f"schmidt: entries must sum to 1, got sum {sum(p)!r}")
    elif spec.kind == "density_matrix":
        _validate_density_matrix(np.asarray(spec.matrix), spec.d, key="matrix")
    elif spec.kind == "random_mixed":
        if spec.rank is not None and not (1 <= spec.rank <= spec.d * spec.d):
            raise ValidationError(
                f"rank: must be in [1, {spec.d * spec.d}], got {spec.rank}"
            )
    if spec.seed is not None and not (0 <= int(spec.seed) < 2**64):
        raise ValidationError(f"seed: must fit in 64 bits, got {spec.seed}")


def _validate_density_matrix(rho: np.ndarray, d: int, key: str = "matrix") -> None:
    dim = d * d
    if rho.shape != (dim, dim):
        raise ValidationError(f"{key}: expected shape {(dim, dim)}, got {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValidationError(f"{key}: entries must be finite")
    if np.linalg.norm(rho - rho.conj().T) > HERMITIAN_TOL * max(1.0, np.linalg.norm(rho)):
        raise ValidationError(f"{key}: not Hermitian")
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < -PSD_TOL:
        raise ValidationError(f"{key}: not positive semidefinite (min eig {eigs.min()})")
    if abs(rho.trace().real - 1.0) > TRACE_TOL:
        raise ValidationError(f"{key}: trace is {rho.trace().real!r}, expected 1")


def build_state(spec: StateSpec) -> np.ndarray:
    """Density matrix for a spec; bit-identical for identical specs."""
    validate_spec(spec)
    d = spec.d
    dim = d * d
    if spec.kind == "pure_schmidt":
        psi = np.zeros(dim, dtype=complex)
        for i, p in enumerate(spec.schmidt):
            psi[i * d + i] = math.sqrt(p)
        return np.outer(psi, psi.conj())
    if spec.kind == "density_matrix":
        return np.asarray(spec.matrix, dtype=complex).copy()
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "random_pure":
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        return np.outer(psi, psi.conj())
    # random_mixed: Wishart-style G G^dagger, normalized
    rank = spec.rank if spec.rank is not None else dim
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / rho.trace().real


@dataclass
class StateAnalysis:
    """What analyze finds of rho."""

    spectrum: np.ndarray
    p1: float
    purity: float
    is_pure: bool


def analyze(rho: np.ndarray, d: int) -> StateAnalysis:
    """Spectrum (non-increasing), largest eigenvalue and purity of a
    d^2 x d^2 rho; any other shape is a ValidationError."""
    dim = d * d
    if rho.shape != (dim, dim):
        raise ValidationError(f"expected a {dim} x {dim} matrix, got {rho.shape}")
    spectrum = np.sort(np.linalg.eigvalsh(rho))[::-1]
    purity = float((abs(rho) ** 2).sum())
    return StateAnalysis(
        spectrum=spectrum,
        p1=float(spectrum[0]),
        purity=purity,
        is_pure=purity >= PURITY_PURE_THRESHOLD,
    )


def tensor_power(
    rho: np.ndarray, n: int, memory_cap: int | None = DEFAULT_MEMORY_CAP
) -> np.ndarray:
    """rho^{tensor n} in copy-major index order, as a dense matrix.

    A test oracle, off the protocol path: the n-copy pass works on the
    symmetric subspace instead (tensorops.symmetric_power).
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    dim = rho.shape[0] ** n
    check_memory_cap(dim * dim, memory_cap, f"{n}-fold tensor power of dimension {dim}")
    out = rho
    for _ in range(n - 1):
        out = kron(out, rho, memory_cap)
    return out


# ---------------------------------------------------------------------------
# JSON ingestion (the CLI's state-spec format)
# ---------------------------------------------------------------------------


def spec_from_json(source: str | dict[str, Any]) -> StateSpec:
    """Parse a state spec from a JSON string or an already-decoded object.

    Keys: d, kind, and the kind-specific fields; matrix rows are lists of
    [re, im] pairs. Errors name the offending key.
    """
    if isinstance(source, str):
        try:
            obj = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"state spec is not valid JSON: {exc}") from exc
    else:
        obj = source
    if not isinstance(obj, dict):
        raise ValidationError("state spec: expected a JSON object")

    known = {"d", "kind", "schmidt", "matrix", "seed", "rank"}
    for key in sorted(set(obj) - known):
        raise ValidationError(f"{key}: unknown state-spec key")
    # StateSpec spells an absent field as None, so an explicit null is refused
    for key in sorted(k for k, v in obj.items() if v is None):
        raise ValidationError(f"{key}: must not be null")
    if "d" not in obj:
        raise ValidationError("d: missing")
    if "kind" not in obj:
        raise ValidationError("kind: missing")

    schmidt = obj.get("schmidt")
    if isinstance(schmidt, list):
        schmidt = tuple(schmidt)
    matrix = _matrix_from_json(obj["matrix"]) if "matrix" in obj else None
    spec = StateSpec(
        d=obj["d"],
        kind=obj["kind"],
        schmidt=schmidt,
        matrix=matrix,
        seed=obj.get("seed"),
        rank=obj.get("rank"),
    )
    validate_spec(spec)
    return spec


def _matrix_from_json(raw: Any) -> np.ndarray:
    """Square complex array from rows of [re, im] pairs; validate_spec checks
    its shape against d."""
    if not isinstance(raw, list) or not all(
        isinstance(row, list) and len(row) == len(raw) for row in raw
    ):
        raise ValidationError("matrix: expected a square array of [re, im] pairs")
    out = np.zeros((len(raw), len(raw)), dtype=complex)
    for i, row in enumerate(raw):
        for j, cell in enumerate(row):
            if not (isinstance(cell, list) and len(cell) == 2 and all(map(_is_real, cell))):
                raise ValidationError(f"matrix: entry ({i},{j}) must be a [re, im] pair")
            out[i, j] = complex(cell[0], cell[1])
    return out
