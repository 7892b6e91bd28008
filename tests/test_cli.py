import csv
import json
import math
import subprocess
import sys

import pytest

from locc_purity import cli
from locc_purity.cli import SWEEP_COLUMNS, parse_region, run
from locc_purity.errors import ValidationError
from locc_purity.protocol import pass_memory_entries

I4_SPEC = json.dumps(
    {
        "d": 2,
        "kind": "density_matrix",
        "matrix": [
            [[0.25, 0.0] if i == j else [0.0, 0.0] for j in range(4)] for i in range(4)
        ],
    }
)
MAX_ENT_SPEC = '{"d": 2, "kind": "pure_schmidt", "schmidt": [0.5, 0.5]}'
RANDOM_SPEC = '{"d": 2, "kind": "random_mixed", "seed": 404}'
# a cap between the d=2 pass estimates at n=3 and n=4
CAP_N4 = "75000"


def assert_cap_truncates_at_n4():
    assert 16 * pass_memory_entries(2, 3) <= int(CAP_N4) < 16 * pass_memory_entries(2, 4)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# dims / chars
# ---------------------------------------------------------------------------


def test_dims_csv(tmp_path):
    out = tmp_path / "dims.csv"
    assert run(["dims", "--n", "3", "--d", "2", "--format", "csv", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0][:4] == ["lambda", "dim_u", "d_lambda", "dim_w"]
    assert rows[1][:4] == ["(3,0)", "4", "1", "4"]
    assert rows[2][:4] == ["(2,1)", "2", "2", "4"]
    assert sum(int(r[3]) for r in rows[1:]) == 8


def test_dims_n2(tmp_path):
    out = tmp_path / "dims.csv"
    assert run(["dims", "--n", "2", "--d", "2", "--format", "csv", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[1][:4] == ["(2,0)", "3", "1", "3"]
    assert rows[2][:4] == ["(1,1)", "1", "1", "1"]


def test_dims_table_footer(capsys):
    assert run(["dims", "--n", "4", "--d", "3"]) == 0
    out = capsys.readouterr().out
    assert f"total dim_w = {3**4} (d^n = {3**4})" in out


def test_chars_csv_matches_known_column(tmp_path):
    out = tmp_path / "chars.csv"
    assert run(["chars", "--n", "3", "--format", "csv", "--out", str(out)]) == 0
    rows = read_csv(out)
    table = {(r[0], r[1]): int(r[2]) for r in rows[1:]}
    assert table[("(3)", "(1,1,1)")] == 1
    assert table[("(2,1)", "(1,1,1)")] == 2
    assert table[("(1,1,1)", "(2,1)")] == -1


# ---------------------------------------------------------------------------
# test / blocks
# ---------------------------------------------------------------------------


def test_cmd_test_pure_state(tmp_path):
    out = tmp_path / "report.json"
    rc = run(
        ["test", "--d", "2", "--n", "2", "--state", MAX_ENT_SPEC, "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    row = payload["rows"][0]
    assert row["p_opt"] == pytest.approx(1.0, abs=1e-9)
    assert row["p_star"] == pytest.approx(1.0, abs=1e-9)
    assert {b["lambda"] for b in payload["blocks"]} == {"(2,0)", "(1,1)"}


def test_cmd_test_maximally_mixed(tmp_path):
    out = tmp_path / "report.csv"
    rc = run(
        ["test", "--d", "2", "--n", "2", "--state", I4_SPEC, "--format", "csv", "--out", str(out)]
    )
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == list(SWEEP_COLUMNS)
    values = dict(zip(rows[0], rows[1]))
    assert float(values["p_opt"]) == pytest.approx(0.625, abs=1e-15)
    assert float(values["p_star"]) == pytest.approx(0.625, abs=1e-15)
    assert float(values["slack"]) == pytest.approx(0.625, abs=1e-15)


def test_cmd_test_state_from_file(tmp_path):
    spec_path = tmp_path / "state.json"
    spec_path.write_text(MAX_ENT_SPEC)
    assert run(["test", "--d", "2", "--n", "1", "--state", str(spec_path)]) == 0


def test_blocks_csv(tmp_path):
    out = tmp_path / "blocks.csv"
    rc = run(
        ["blocks", "--d", "2", "--n", "2", "--state", I4_SPEC, "--format", "csv", "--out", str(out)]
    )
    assert rc == 0
    rows = read_csv(out)
    table = {r[0]: r for r in rows[1:]}
    assert float(table["(2,0)"][1]) == pytest.approx(9 / 16)
    assert float(table["(1,1)"][1]) == pytest.approx(1 / 16)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_csv_values_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--d", "2", "--n-max", "3", "--state", RANDOM_SPEC, "--format", "csv"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = read_csv(out1)
    assert rows[0] == list(SWEEP_COLUMNS)
    assert [r[0] for r in rows[1:]] == ["1", "2", "3"]


def test_sweep_csv_json_value_agreement(tmp_path):
    csv_out, json_out = tmp_path / "s.csv", tmp_path / "s.json"
    base = ["sweep", "--d", "2", "--n-max", "3", "--state", I4_SPEC]
    assert run(base + ["--format", "csv", "--out", str(csv_out)]) == 0
    assert run(base + ["--format", "json", "--out", str(json_out)]) == 0
    csv_rows = read_csv(csv_out)
    json_rows = json.loads(json_out.read_text())["rows"]
    assert len(csv_rows) - 1 == len(json_rows)
    for crow, jrow in zip(csv_rows[1:], json_rows):
        for col, cell in zip(csv_rows[0], crow):
            assert float(cell) == jrow[col], col


def test_sweep_pure_state_exponents_zero(tmp_path):
    out = tmp_path / "pure.csv"
    rc = run(
        ["sweep", "--d", "2", "--n-max", "3", "--state", MAX_ENT_SPEC, "--format", "csv", "--out", str(out)]
    )
    assert rc == 0
    for row in read_csv(out)[1:]:
        values = dict(zip(SWEEP_COLUMNS, row))
        assert float(values["exponent_opt"]) == 0.0
        assert float(values["exponent_star"]) == 0.0
        assert float(values["minus_log_p1"]) == 0.0


def test_sweep_exponents_monotone(tmp_path):
    out = tmp_path / "mixed.csv"
    rc = run(
        ["sweep", "--d", "2", "--n-max", "4", "--state", I4_SPEC, "--format", "csv", "--out", str(out)]
    )
    assert rc == 0
    exps = [float(dict(zip(SWEEP_COLUMNS, r))["exponent_opt"]) for r in read_csv(out)[1:]]
    assert exps == sorted(exps)


def test_sweep_truncation_marker(tmp_path):
    assert_cap_truncates_at_n4()
    out = tmp_path / "trunc.csv"
    rc = run(
        [
            "sweep", "--d", "2", "--n-max", "5", "--state", I4_SPEC,
            "--format", "csv", "--out", str(out), "--memory-cap", CAP_N4,
        ]
    )
    assert rc == 0
    rows = read_csv(out)
    assert rows[-1][0] == "4"
    assert all(cell == "" for cell in rows[-1][1:])
    json_out = tmp_path / "trunc.json"
    run(
        [
            "sweep", "--d", "2", "--n-max", "5", "--state", I4_SPEC,
            "--format", "json", "--out", str(json_out), "--memory-cap", CAP_N4,
        ]
    )
    assert json.loads(json_out.read_text())["truncated_at"] == 4


def test_seed_override_changes_random_state(tmp_path):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    base = ["sweep", "--d", "2", "--n-max", "2", "--state", RANDOM_SPEC, "--format", "csv"]
    assert run(base + ["--seed", "1", "--out", str(out1)]) == 0
    assert run(base + ["--seed", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_seed_override_rejected_for_deterministic_kinds(capsys):
    rc = run(["test", "--d", "2", "--n", "1", "--state", MAX_ENT_SPEC, "--seed", "7"])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_all_hold(tmp_path):
    out = tmp_path / "bounds.csv"
    rc = run(
        [
            "bounds", "--d", "2", "--n-max", "12", "--p", "0.9,0.1",
            "--region", "q1<=0.6", "--format", "csv", "--out", str(out),
        ]
    )
    assert rc == 0
    rows = read_csv(out)
    assert all(r[5] == "true" for r in rows[1:])


def test_bounds_everything_region_lhs_one(tmp_path):
    out = tmp_path / "bounds.csv"
    rc = run(
        ["bounds", "--d", "2", "--n-max", "4", "--p", "0.7,0.3", "--format", "csv", "--out", str(out)]
    )
    assert rc == 0
    type_rows = [r for r in read_csv(out)[1:] if r[0] == "type_region"]
    assert len(type_rows) == 4
    for r in type_rows:
        assert float(r[3]) == pytest.approx(1.0, abs=1e-10)


def test_test_past_the_factorial_range_exits_2_naming_n(capsys):
    # 171! is past the largest float, which the monomial frame's sqrt(alpha!)
    # is taken from; 170 copies still run
    spec = '{"d": 1, "kind": "pure_schmidt", "schmidt": [1.0]}'
    assert run(["test", "--d", "1", "--n", "170", "--state", spec]) == 0
    capsys.readouterr()
    assert run(["test", "--d", "1", "--n", "171", "--state", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: n = 171:") and "Traceback" not in err


def test_bounds_empty_region(tmp_path):
    out = tmp_path / "bounds.csv"
    rc = run(
        [
            "bounds", "--d", "2", "--n-max", "3", "--p", "0.7,0.3",
            "--region", "q1>2", "--format", "csv", "--out", str(out),
        ]
    )
    assert rc == 0
    type_rows = [r for r in read_csv(out)[1:] if r[0] == "type_region"]
    for r in type_rows:
        assert float(r[3]) == 0.0
        assert r[5] == "true"
        assert math.isinf(float(r[6]))


def test_parse_region():
    pred = parse_region("q1<=0.6 and q2>=0.1", 2)
    assert pred((0.5, 0.5))
    assert not pred((0.7, 0.3))
    assert not pred((0.95, 0.05))
    assert parse_region(None, 2)((1.0, 0.0))
    eq = parse_region("q1==1", 2)
    assert eq((1.0, 0.0)) and not eq((0.5, 0.5))


def test_parse_region_errors():
    with pytest.raises(ValidationError, match="region"):
        parse_region("q3<=0.5", 2)
    with pytest.raises(ValidationError, match="region"):
        parse_region("entropy<=0.5", 2)


# ---------------------------------------------------------------------------
# error paths and exit codes
# ---------------------------------------------------------------------------


def test_malformed_spec_exits_2_names_key(capsys):
    bad = '{"d": 2, "kind": "pure_schmidt", "schmidt": [0.5, 0.6]}'
    rc = run(["test", "--d", "2", "--n", "2", "--state", bad])
    assert rc == 2
    assert "schmidt" in capsys.readouterr().err


def test_missing_state_file_exits_2(capsys):
    rc = run(["test", "--d", "2", "--n", "2", "--state", "/nonexistent/state.json"])
    assert rc == 2
    assert "state" in capsys.readouterr().err


def test_state_directory_exits_2(tmp_path, capsys):
    rc = run(["test", "--d", "2", "--n", "2", "--state", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: state: cannot read")


def test_non_utf8_state_file_exits_2(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_bytes(b'{"d": 2, "kind": "random_mixed", "seed": 7}\xff')
    rc = run(["test", "--d", "2", "--n", "2", "--state", str(path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: state: cannot read")


def test_out_into_a_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "out.csv"
    rc = run(["dims", "--n", "3", "--d", "2", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: out: cannot write")
    assert not out.exists()


def test_d_mismatch_exits_2(capsys):
    rc = run(["test", "--d", "3", "--n", "2", "--state", MAX_ENT_SPEC])
    assert rc == 2
    assert "d" in capsys.readouterr().err


def test_memory_cap_exits_3_with_estimate(capsys):
    assert_cap_truncates_at_n4()
    rc = run(
        ["test", "--d", "2", "--n", "4", "--state", I4_SPEC, "--memory-cap", CAP_N4]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "bytes" in err and "memory cap" in err


def test_memory_cap_env_var(monkeypatch, capsys):
    assert_cap_truncates_at_n4()
    monkeypatch.setenv("LOCC_PURITY_MEMORY_CAP", CAP_N4)
    rc = run(["test", "--d", "2", "--n", "4", "--state", I4_SPEC])
    assert rc == 3
    monkeypatch.setenv("LOCC_PURITY_MEMORY_CAP", "not-a-number")
    rc = run(["test", "--d", "2", "--n", "2", "--state", I4_SPEC])
    assert rc == 2
    assert "memory-cap" in capsys.readouterr().err


def test_bad_flag_values_exit_2(capsys):
    assert run(["dims", "--n", "0", "--d", "2"]) == 2
    assert run(["bounds", "--d", "2", "--n-max", "3", "--p", "0.5;0.5"]) == 2
    assert run(["bounds", "--d", "2", "--n-max", "3", "--p", "0.5,0.4"]) == 2


def test_nan_schmidt_coefficients_exit_2(capsys):
    bad = '{"d": 2, "kind": "pure_schmidt", "schmidt": [NaN, NaN]}'
    assert run(["test", "--d", "2", "--n", "3", "--state", bad]) == 2
    assert "schmidt" in capsys.readouterr().err


def test_nan_density_matrix_entry_exits_2(capsys):
    spec = json.loads(I4_SPEC)
    spec["matrix"][1][2] = [math.nan, 0.0]
    assert run(["test", "--d", "2", "--n", "3", "--state", json.dumps(spec)]) == 2
    assert "matrix" in capsys.readouterr().err


def test_nan_bounds_probabilities_exit_2(capsys):
    assert run(["bounds", "--d", "2", "--n-max", "3", "--p", "nan,nan"]) == 2
    assert "p has non-finite entries" in capsys.readouterr().err


def test_console_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", "from locc_purity.cli import run; raise SystemExit(run(['dims', '--n', '2', '--d', '2']))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "(2,0)" in proc.stdout


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "locc_purity.cli", "dims", "--n", "2", "--d", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "(2,0)" in proc.stdout


def test_one_parser_serves_every_call_of_a_process(monkeypatch, capsys):
    # run() builds the argparse tree once per process; later commands, a
    # rejected one and --help must print what a fresh process prints
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    monkeypatch.setattr(cli, "_parser", None)
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    argvs = [
        ["dims", "--n", "3", "--d", "2"],
        ["chars", "--n", "3", "--format", "csv"],
        ["dims", "--n", "3"],
        ["dims", "--n", "3", "--d", "2", "--bogus"],
        ["test", "--help"],
    ]
    codes = []
    for argv in argvs:
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        codes.append(code)
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "locc_purity.cli", *argv],
            capture_output=True, text=True, timeout=60,
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert codes == [0, 0, 2, 2, 0]
    assert built == [1]
