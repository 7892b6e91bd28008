"""Golden CLI outputs: every subcommand in every format, at small sizes.

The files under ``tests/golden/`` were written by the CLI before the
single-pass refactor of ``protocol``. Non-numeric text (headers, partitions,
table layout, markers) and integers must match byte for byte; floats may
move by the reordering of floating-point sums, so each is compared to
``FLOAT_TOL * max(1, |x|)``.

Regenerate after an intended output change with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

from locc_purity.cli import run

GOLDEN_DIR = Path(__file__).parent / "golden"
FLOAT_TOL = 1e-12
FORMATS = {"table": "txt", "csv": "csv", "json": "json"}

CASES = {
    "dims": ["dims", "--n", "4", "--d", "3"],
    "chars": ["chars", "--n", "4"],
    # a product state leaves every block but (n) empty: fidelity is None there
    "blocks": [
        "blocks", "--d", "2", "--n", "4",
        "--state", '{"d": 2, "kind": "pure_schmidt", "schmidt": [1.0, 0.0]}',
    ],
    "test": [
        "test", "--d", "3", "--n", "2",
        "--state", '{"d": 3, "kind": "random_mixed", "seed": 7, "rank": 4}',
    ],
    "sweep": [
        "sweep", "--d", "2", "--n-max", "4",
        "--state", '{"d": 2, "kind": "random_mixed", "seed": 2024}',
    ],
    "bounds": ["bounds", "--d", "2", "--n-max", "8", "--p", "0.5,0.5", "--region", "q1<=0.6"],
}

# A number token: an optional sign, digits, an optional fraction and exponent;
# or a non-finite float as the emitters spell it.
_NUMBER = re.compile(r"([-+]?(?:\d+(?:\.\d*)?(?:[eE][-+]?\d+)?|inf|nan))")
_UNSIGNED_INT = re.compile(r"\d+")


def _same_float(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= FLOAT_TOL * max(1.0, abs(a))


def _same_text(got: str, want: str) -> None:
    got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
    assert len(got_parts) == len(want_parts), "token count differs"
    # split() alternates text, number, text, ...: odd indices are numbers.
    # Table and CSV print a float such as 1.0 or 0.0 as "1" or "0", so two
    # unsigned integers must match exactly and any other pair as floats.
    for i, (g, w) in enumerate(zip(got_parts, want_parts)):
        if g == w:
            continue
        is_int = _UNSIGNED_INT.fullmatch(g) and _UNSIGNED_INT.fullmatch(w)
        assert i % 2 == 1 and not is_int and _same_float(float(g), float(w)), (i, g, w)


def _same_json(got, want, path="$") -> None:
    assert type(got) is type(want), (path, got, want)
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            _same_json(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _same_json(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert _same_float(got, want), (path, got, want)
    else:
        assert got == want, (path, got, want)


def assert_matches_golden(got: str, want: str, fmt: str) -> None:
    if fmt == "json":
        # types and key order are checked here; json.dumps fixes the layout
        _same_json(json.loads(got), json.loads(want))
    else:
        _same_text(got, want)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, fmt, tmp_path):
    golden = GOLDEN_DIR / f"{case}.{FORMATS[fmt]}"
    out = tmp_path / golden.name
    assert run(CASES[case] + ["--format", fmt, "--out", str(out)]) == 0
    assert_matches_golden(out.read_text(encoding="utf-8"), golden.read_text(encoding="utf-8"), fmt)


def test_golden_comparison_tolerates_only_float_noise():
    assert_matches_golden("p = 0.5000000000000001, z = -0, n = 3", "p = 0.5, z = 0, n = 3", "csv")
    assert_matches_golden("1,0.99999999999999989", "1,1", "csv")
    assert_matches_golden('{"p": 0.9999999999999999, "n": 3}', '{"p": 1.0, "n": 3}', "json")
    for got, want, fmt in (
        ("p = 0.5001, n = 3", "p = 0.5, n = 3", "table"),
        ("p = 0.5, n = 4", "p = 0.5, n = 3", "table"),
        ("(2,1)  x", "(2,1) x", "table"),
        ('{"p": 0.5, "n": 3.0}', '{"p": 0.5, "n": 3}', "json"),
        ('{"n": 3, "p": 0.5}', '{"p": 0.5, "n": 3}', "json"),
    ):
        with pytest.raises(AssertionError):
            assert_matches_golden(got, want, fmt)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in CASES:
        for fmt, ext in FORMATS.items():
            if run(CASES[case] + ["--format", fmt, "--out", str(GOLDEN_DIR / f"{case}.{ext}")]):
                sys.exit(f"{case} ({fmt}) failed")
