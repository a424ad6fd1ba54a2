"""Command line behaviour: exit codes, determinism, formats, golden selftest."""

import json
import re

import pytest
from oracles import FIRST_BROKEN_LINK, PERTURBATIONS, json_text, perturb_step_matrix

from multider import cli, derivations, golden, verify
from multider.cli import main
from multider.exactpoly import Matrix, poly_from_records
from multider.derivations import PipelineError, clear_caches, p_matrix
from multider.coxeter import get_system
from multider.saito import Certificate


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


def test_dihedral_order_limit_exits_3(capsys):
    # refused before the system is built, so I2(201) costs nothing here
    for argv in (["basis", "I2(201)", "--m", "1"], ["verify", "I2(201)", "--m", "1"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 3 and out == ""
        assert "dihedral order 201 exceeds the default limit 200" in err


def test_override_lifts_the_dihedral_limit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_ORDER", 8)
    code, out, err = run_cli(["basis", "I2(11)", "--m", "1"], capsys)
    assert code == 3 and out == "" and "dihedral order 11" in err
    code, out, _ = run_cli(["basis", "I2(11)", "--m", "1", "--override-limits"], capsys)
    assert code == 0 and out.startswith("system I2(11): rank 2")


@pytest.mark.parametrize("argv", [
    ["catalog", "--override-limits"],
    ["selftest", "--override-limits"],
    ["basis", "B2", "--m", "1", "--timings"],
    ["bmatrix", "B2", "--k", "1", "--timings"],
], ids=lambda argv: f"{argv[0]}{argv[-1]}")
def test_options_are_registered_only_where_read(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage: multider") and "unrecognized arguments" in err


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
    # the names are validated before the system is loaded or limits applied
    code, _, err = run_cli(["verify", "B9", "--m", "1", "--checks", "bogus"], capsys)
    assert code == 2 and "unknown checks" in err and "limit" not in err


@pytest.mark.parametrize("fault", [PipelineError("injected fault")])
def test_verify_internal_error_exits_1(capsys, monkeypatch, fault):
    def broken(*args, **kwargs):
        raise fault

    monkeypatch.setattr(verify, "verify_degrees", broken)
    code, out, err = run_cli(["verify", "B2", "--m", "1", "--checks", "degrees"], capsys)
    assert code == 1 and out == ""
    assert err == f"internal error: {fault}\n"


@pytest.mark.parametrize("owner,argv", [
    (cli, ["basis", "B2", "--m", "2"]),
    (verify, ["verify", "B2", "--m", "2", "--checks", "ziegler"]),
])
def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch, owner, argv):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("injected fault")

    monkeypatch.setattr(owner, "p_matrix", broken)
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err == "internal error: ZeroDivisionError: injected fault\n"


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


@pytest.mark.parametrize("fault", sorted(PERTURBATIONS))
def test_bmatrix_definition_route_fails_on_perturbed_certificate_input(
        capsys, monkeypatch, fault):
    # the definition route certifies C(1) and C(2), the second by
    # D[P_3] C_4 = -P_2; P_0..P_3 are built before the fault, so the chain
    # runs here on it from C(1)
    clear_caches()
    s = get_system("B2")
    p_matrix(s, 3)
    PERTURBATIONS[fault](monkeypatch, s)
    code, out, err = run_cli(
        ["bmatrix", "B2", "--k", "2", "--route", "definition"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("internal error: B2: ") and FIRST_BROKEN_LINK[fault] in err


@pytest.mark.parametrize("argv", [["basis", "A3", "--m", "6"], ["basis", "B3", "--m", "8"]])
def test_cold_basis_certifies_only_c1(capsys, monkeypatch, argv):
    # Saito's criterion proves the basis; the direct formula C(k) is left to
    # its readers, so a cold basis certifies C(1) (with B^(1)) and applies D
    # to no P_{2k-1} with k >= 2
    real_certify, real_apply = derivations.certify_direct_formula, derivations.apply_derivation
    levels, operands = [], []

    def certify(system, k, p_even):
        levels.append(k)
        return real_certify(system, k, p_even)

    def apply(p, dx):
        operands.append(p)
        return real_apply(p, dx)

    clear_caches()
    monkeypatch.setattr(derivations, "certify_direct_formula", certify)
    monkeypatch.setattr(derivations, "apply_derivation", apply)
    code, _, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert levels == [1]
    s = get_system(argv[1])
    for k in range(2, int(argv[3]) // 2 + 1):
        p_odd = p_matrix(s, 2 * k - 1).matrix
        entries = [e for _, _, e in p_odd.entries()]
        assert not any(e is p for e in entries for p in operands), k


def test_basis_exits_1_when_saito_fails(capsys, monkeypatch):
    # Saito's criterion is the whole proof of a basis; a failed certificate
    # prints nothing on stdout and its witness on stderr
    witness = {"condition": "evaluation", "point": [1, 2], "value": "0"}
    clear_caches()
    monkeypatch.setattr(derivations, "certify", lambda *args: Certificate(None, None, witness))
    code, out, err = run_cli(["basis", "B3", "--m", "2"], capsys)
    assert code == 1 and out == ""
    head, sep, tail = err.partition(", witness: ")
    assert head == "error: Saito's criterion fails for P_2 of B3" and sep
    assert json.loads(tail) == witness and tail.endswith("}\n")
    assert "Traceback" not in err
    clear_caches()


@pytest.mark.parametrize("fault", sorted(PERTURBATIONS))
def test_failing_verify_json_keeps_the_bytes_of_json_dumps(capsys, monkeypatch, fault):
    # the reference digests cover passing reports only: a failing one, with
    # its witnesses, prints what json.dumps(indent=2) prints of its report
    reports = []

    def spy(*args):
        reports.append(verification(*args))
        return reports[-1]

    verification = cli.run_verification
    clear_caches()
    s = get_system("B2")
    p_matrix(s, 4)
    PERTURBATIONS[fault](monkeypatch, s)
    monkeypatch.setattr(cli, "run_verification", spy)
    code, out, err = run_cli(["verify", "B2", "--m", "4", "--format", "json"], capsys)
    assert (code, err) == (1, "")
    report = reports[0].to_dict()
    assert any(c["status"] == "fail" and c["witness"] for c in report["checks"])
    head = {"system": "B2", "command": "verify",
            "params": {"m": 4, "checks": sorted(reports[0].params["checks"])}}
    assert out == json_text(dict(head, report=report)) + "\n"
    clear_caches()


def test_verify_det_jdkx_certifies_its_direct_formula(capsys, monkeypatch):
    # det-jdkx reads C(2): cold, it certifies the chain and passes; with C_4
    # perturbed it fails with the reason of C(2), as a record
    clear_caches()
    argv = ["verify", "B2", "--m", "4", "--checks", "det-jdkx", "--format", "json"]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    checks = json.loads(out)["report"]["checks"]
    assert [(c["name"], c["status"]) for c in checks] == [("det-jdkx", "pass")]
    clear_caches()
    perturb_step_matrix(monkeypatch, 4)
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (1, "")
    checks = json.loads(out)["report"]["checks"]
    assert [(c["name"], c["status"]) for c in checks] == [("det-jdkx", "fail")]
    assert FIRST_BROKEN_LINK["step"] in checks[0]["witness"]["reason"]
    clear_caches()


def test_basis_and_bmatrix_form_no_dkx_at_any_k(capsys, monkeypatch):
    # B^(1) is J(f)^T D[P_1] and the certificate of C(k) reads D[P_{2k-1}]:
    # cold requests form the primitive derivation D x and neither D^k x nor
    # J(D^k x) at any k >= 1
    def broken(name):
        def call(system, k):
            raise AssertionError(f"{name}({system.key}, {k}) was called")
        return call

    clear_caches()
    monkeypatch.setattr(derivations, "jdkx", broken("jdkx"))
    monkeypatch.setattr(derivations, "iterate_dkx", broken("iterate_dkx"))
    for argv in (["basis", "A3", "--m", "8"], ["basis", "B4", "--m", "5"],
                 ["bmatrix", "D4", "--k", "3", "--route", "both"],
                 ["bmatrix", "I2(5)", "--k", "1", "--route", "closed-form"]):
        code, _, err = run_cli(argv, capsys)
        assert (code, err) == (0, ""), argv
        assert ("primitive_dx", argv[1]) in derivations._cache, argv


def test_verify_forms_dkx_only_to_k_2(capsys, monkeypatch):
    # jdg reads J(D x) and J(D^2 x), and equivariance compares P_{2k} under
    # each generator, so verify at m 8 forms no D^k x with k >= 3
    real = derivations.iterate_dkx
    levels = set()

    def recorded(system, k):
        levels.add(k)
        return real(system, k)

    clear_caches()
    monkeypatch.setattr(derivations, "iterate_dkx", recorded)
    code, _, err = run_cli(["verify", "B3", "--m", "8", "--checks", "all"], capsys)
    assert (code, err) == (0, "")
    assert levels == {0, 1, 2}


@pytest.mark.parametrize("doctor", ["negated", "doubled"])
@pytest.mark.parametrize("argv", [["basis", "B3", "--m", "2"],
                                  ["bmatrix", "B2", "--k", "1", "--route", "definition"]])
def test_doctored_b1_fails_the_certificate_of_c1(capsys, monkeypatch, doctor, argv):
    # negative control: C_2 is the inverse of the memoised B^(1), and the
    # certificate of C(1) multiplies it by the D[P_1] that B^(1) must be
    # built from, so a B^(1) with a sign slip or a doubled antidiagonal
    # entry (its entry (1,1) is zero) fails at an entry of D[P_1] C_2
    clear_caches()
    s = get_system(argv[1])
    b1 = derivations.b_matrix(s, 1)
    rows = [list(b1[i]) for i in range(s.rank)]
    if doctor == "negated":
        rows = [[-e for e in row] for row in rows]
    else:
        rows[0][-1] = rows[0][-1] * 2
    clear_caches()
    monkeypatch.setitem(derivations._cache, ("b_matrix", s.key, 1), Matrix(rows))
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert re.match(rf"internal error: {argv[1]}: entry \(\d,\d\) of D\[P_1\] C_2 is ", err), err
    # the C_2 inverted from the doctored B^(1) is memoised
    clear_caches()


def test_bmatrix_needs_no_inverse_jacobian(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("J(D^k x)^{-1} was computed")

    clear_caches()
    monkeypatch.setattr(derivations, "jdkx_inverse", broken)
    code, out, _ = run_cli(
        ["bmatrix", "A3", "--k", "3", "--route", "both", "--format", "json"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["routes_agree"] is True
    assert result["definition"] == result["closed_form"]


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


def _record_names(out: str, fmt: str) -> list[str]:
    if fmt == "json":
        return [c["name"] for c in json.loads(out)["report"]["checks"]]
    return [line.split(":")[0] for line in out.splitlines()[:-1]]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv", [["verify", "B2", "--m", "3"], ["selftest"]],
                         ids=["verify", "selftest"])
def test_timings_go_to_stderr_and_leave_stdout(capsys, argv, fmt):
    argv = argv + ["--format", fmt]
    code, plain, plain_err = run_cli(argv, capsys)
    timed_code, timed, err = run_cli(argv + ["--timings"], capsys)
    assert code == timed_code == 0 and plain_err == ""
    assert timed == plain
    assert err.endswith("\n") and err.count("\n") == 1
    laps = json.loads(err)["timings"]
    assert [name for name, _ in laps] == _record_names(plain, fmt)
    assert all(isinstance(s, float) and s >= 0 and s == round(s, 6) for _, s in laps)
