"""Command line behaviour: exit codes, determinism, formats, golden selftest."""

import json

from multider import golden
from multider.cli import main
from multider.exactpoly import Matrix, poly_from_records
from multider.derivations import p_matrix
from multider.coxeter import get_system


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unknown_system_exits_2(capsys):
    code, _, err = run_cli(["basis", "Z9", "--m", "1"], capsys)
    assert code == 2 and "unrecognised" in err


def test_unsupported_rank_exits_2(capsys):
    code, _, err = run_cli(["basis", "D2", "--m", "1"], capsys)
    assert code == 2


def test_negative_m_exits_2(capsys):
    code, out, err = run_cli(["basis", "B2", "--m", "-1"], capsys)
    assert code == 2 and out == ""
    assert "argument --m: must be at least 0" in err and "Traceback" not in err


def test_nonpositive_k_exits_2(capsys):
    code, out, err = run_cli(["bmatrix", "B2", "--k", "0"], capsys)
    assert code == 2 and out == ""
    assert "argument --k: must be at least 1" in err and "Traceback" not in err


def test_limit_exceeded_exits_3(capsys):
    code, _, err = run_cli(["basis", "B9", "--m", "1"], capsys)
    assert code == 3 and "limit" in err
    code, _, err = run_cli(["verify", "B2", "--m", "9"], capsys)
    assert code == 3


def test_override_limits(capsys):
    code, out, _ = run_cli(["basis", "B6", "--m", "1", "--override-limits"], capsys)
    assert code == 0 and "B6" in out


def test_basis_b2_m0_identity(capsys):
    code, out, _ = run_cli(["basis", "B2", "--m", "0", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    res = payload["result"]
    assert res["column_degrees"] == [0, 0]
    mat = Matrix([[poly_from_records(cell, 2) for cell in row] for row in res["matrix"]])
    assert mat == Matrix.identity(2, 2)


def test_basis_b2_m3_text_matches_reference(capsys):
    code, out, _ = run_cli(["basis", "B2", "--m", "3", "--format", "text"], capsys)
    assert code == 0
    assert "xi_1 = (-1/3*x1^5 + 5/3*x1^3*x2^2)*d_1" in out
    assert "det P_m = (1/3) * Q^3" in out


def test_basis_json_roundtrip(capsys):
    code, out, _ = run_cli(["basis", "B2", "--m", "3", "--format", "json"], capsys)
    payload = json.loads(out)
    mat = Matrix([
        [poly_from_records(cell, 2) for cell in row]
        for row in payload["result"]["matrix"]
    ])
    assert mat == p_matrix(get_system("B2"), 3).matrix


def test_basis_d4_m2_json(capsys):
    code, out, _ = run_cli(["basis", "D4", "--m", "2", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["column_degrees"] == [6, 6, 6, 6]


def test_byte_determinism(capsys):
    first = run_cli(["verify", "B2", "--m", "2", "--format", "json"], capsys)
    second = run_cli(["verify", "B2", "--m", "2", "--format", "json"], capsys)
    assert first == second
    assert first[0] == 0


def test_verify_exit_zero_iff_pass(capsys):
    code, out, _ = run_cli(["verify", "A1", "--m", "5", "--checks", "all"], capsys)
    assert code == 0
    assert "result: all checks passed" in out


def test_verify_checks_subset(capsys):
    code, out, _ = run_cli(
        ["verify", "B3", "--m", "4", "--checks", "ziegler,membership,degrees",
         "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    names = [c["name"] for c in payload["report"]["checks"]]
    assert names == ["ziegler", "membership", "degrees"]


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(["verify", "B2", "--m", "1", "--checks", "bogus"], capsys)
    assert code == 2 and "unknown checks" in err


def test_verify_orbit_flag_surfaced(capsys):
    code, out, _ = run_cli(
        ["verify", "I2(5)", "--m", "3", "--checks", "membership",
         "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["checks"][0]["detail"]["orbit_level"] is True


def test_bmatrix_routes(capsys):
    code, out, _ = run_cli(
        ["bmatrix", "B3", "--k", "2", "--route", "both", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["routes_agree"] is True


def test_catalog_lines(capsys):
    code, out, _ = run_cli(["catalog"], capsys)
    assert code == 0
    assert "B2: rank 2, h=4, exponents 1,3, |A|=4" in out
    assert "A1: rank 1, h=2, exponents 1, |A|=1" in out
    assert "D4: rank 4, h=6, exponents 1,3,3,5, |A|=12" in out


def test_selftest_passes(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0
    assert "result: all checks passed" in out
    assert "global_constant=1" in out


def test_selftest_detects_injected_sign_error(capsys, monkeypatch):
    # negative control: corrupt one fixture entry and expect a witnessed failure
    good = golden.b2_p3_matrix()
    rows = [[good[i][j] for j in range(2)] for i in range(2)]
    rows[0][1] = -rows[0][1]
    monkeypatch.setattr(golden, "b2_p3_matrix", lambda: Matrix(rows))
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 1
    assert "b2.p3: fail" in out and "witness" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "basis.json"
    code, out, _ = run_cli(
        ["basis", "B2", "--m", "1", "--format", "json", "--out", str(target)], capsys)
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["system"] == "B2"


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(
        ["basis", "B2", "--m", "1", "--out", str(target)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()


def test_timings_flag_changes_bytes_only_when_set(capsys):
    base1 = run_cli(["verify", "B2", "--m", "1", "--checks", "ziegler",
                     "--format", "json"], capsys)[1]
    base2 = run_cli(["verify", "B2", "--m", "1", "--checks", "ziegler",
                     "--format", "json"], capsys)[1]
    assert base1 == base2
    timed = run_cli(["verify", "B2", "--m", "1", "--checks", "ziegler",
                     "--format", "json", "--timings"], capsys)[1]
    assert "elapsed" in timed and "elapsed" not in base1
