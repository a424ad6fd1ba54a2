"""Tests for the certification checks, including their failure paths."""

from dataclasses import replace

import pytest

from multider import derivations, verify
from multider.coxeter import get_system
from multider.derivations import DerivationBasis, p_matrix
from multider.exactpoly import ArrFrac, Matrix, Poly, is_constant_multiple, mat_det_adj, rat_det
from multider.verify import (
    run_verification,
    verify_b_properties,
    verify_degrees,
    verify_det_jdkx,
    verify_equivariance,
    verify_jdg_identities,
    verify_membership,
    verify_nesting,
    verify_recursion,
    verify_ziegler,
)

x1 = Poly.variable(2, 0)
x2 = Poly.variable(2, 1)


def corrupt(basis: DerivationBasis, i=0, j=0) -> DerivationBasis:
    rows = [[basis.matrix[r][c] for c in range(basis.matrix.cols)]
            for r in range(basis.matrix.rows)]
    rows[i][j] = -rows[i][j]
    return replace(basis, matrix=Matrix(rows))


def test_ziegler_pass_records_constant():
    s = get_system("B2")
    rec = verify_ziegler(s, p_matrix(s, 1))
    assert rec.status == "pass"
    assert rec.detail["constant"] == str(s.det_jf_constant)


def test_ziegler_m0():
    s = get_system("A2")
    rec = verify_ziegler(s, p_matrix(s, 0))
    assert rec.status == "pass"  # det Gram in Q*, Q^0 = 1


def test_ziegler_fail_with_witness():
    # Saito's criterion names the condition that failed: here membership,
    # with the membership witness (no determinant is computed)
    s = get_system("B2")
    rec = verify_ziegler(s, corrupt(p_matrix(s, 3)))
    assert rec.status == "fail"
    assert rec.witness["condition"] == "membership"
    assert {"factor", "column", "divisions_done", "residual"} <= set(rec.witness)


def test_membership_b2_m3():
    s = get_system("B2")
    basis = p_matrix(s, 3)
    rec = verify_membership(s, basis)
    assert rec.status == "pass" and rec.detail["orbit_level"] is False
    # the explicit entry: theta_1(x1) = -(1/3) x1^3 (x1^2 - 5 x2^2), divisible by x1^3
    col = basis.matrix[0][0]
    from multider.exactpoly import divide_exact
    q = divide_exact(col, x1**3)
    assert q is not None


def test_membership_m0_vacuous():
    s = get_system("B2")
    rec = verify_membership(s, p_matrix(s, 0))
    assert rec.status == "pass" and rec.detail.get("vacuous")


def test_membership_fail_with_witness():
    s = get_system("B2")
    rec = verify_membership(s, corrupt(p_matrix(s, 3)))
    assert rec.status == "fail"
    assert rec.witness and {"factor", "column", "divisions_done"} <= set(rec.witness)


def test_membership_orbit_level_flag():
    s = get_system("I2(5)")
    rec = verify_membership(s, p_matrix(s, 2))
    assert rec.status == "pass" and rec.detail["orbit_level"] is True


@pytest.mark.parametrize("key, column", [
    # x1 d1 - x2 d2 maps each irrational mirror line of I2(5) onto another
    # one, so q(theta(x1), theta(x2)) = q(x1, -x2) = q while theta is not in D(A)
    ("I2(5)", (x1, -x2)),
    # a - t b = 3t^2 - 1 = q(t, 1) once the degrees are merged, but the
    # degree-2 part 3t^2 alone is not divisible by it
    ("I2(3)", (3 * x1**2 - 1, Poly.zero(2))),
])
def test_membership_orbit_is_exact_per_line(key, column):
    s = get_system(key)
    orbit = next(q for q in s.factors if q.degree() > 1)
    basis = DerivationBasis(key, 1, 0, Matrix([[column[0], x1], [column[1], x2]]), (1, 1))
    rec = verify_membership(s, basis)
    assert rec.status == "fail" and rec.detail == {"m": 1, "orbit_level": True}
    assert rec.witness["factor"] == str(orbit) and rec.witness["column"] == 1
    assert rec.witness["divisions_done"] == 0
    # the Euler derivation x1 d1 + x2 d2 is in D(A)
    euler = DerivationBasis(key, 1, 0, Matrix([[x1, x1], [x2, x2]]), (1, 1))
    assert verify_membership(s, euler).status == "pass"


@pytest.mark.parametrize("key", ["I2(3)", "I2(5)", "I2(8)"])
def test_membership_orbit_multiplicity_is_exact(key):
    # the columns of P_3 lie in D^(3) and not in D^(4): claiming m = 4 fails
    # after three derivative orders along an orbit of irrational lines
    s = get_system(key)
    basis = replace(p_matrix(s, 3), m=4)
    rec = verify_membership(s, basis)
    assert rec.status == "fail" and rec.detail["orbit_level"] is True
    assert rec.witness["divisions_done"] == 3


def test_degrees_checks():
    s = get_system("B2")
    assert verify_degrees(s, p_matrix(s, 3)).status == "pass"
    zero_term = p_matrix(s, 3)
    # an entry of wrong degree is reported with its position
    bad_rows = [[zero_term.matrix[i][j] for j in range(2)] for i in range(2)]
    bad_rows[0][0] = Poly.variable(2, 0)
    rec = verify_degrees(s, replace(zero_term, matrix=Matrix(bad_rows)))
    assert rec.status == "fail" and rec.witness["entry"] == [1, 1]


def test_degrees_b3_even():
    s = get_system("B3")
    rec = verify_degrees(s, p_matrix(s, 4))
    assert rec.status == "pass"
    assert rec.detail["column_degrees"] == [12, 12, 12]


def test_det_jdkx_records():
    s = get_system("B2")
    assert verify_det_jdkx(s, 0).detail["constant"] == "1"
    rec = verify_det_jdkx(s, 1)
    assert rec.status == "pass" and rec.detail["constant"] == "-3"


@pytest.mark.parametrize("key", ["B2", "A3", "I2(5)"])
def test_det_jdkx_reuses_the_ziegler_determinant(monkeypatch, key):
    # ziegler and det-jdkx share one Saito certificate of the memoised P_4,
    # and neither takes the determinant of a polynomial matrix
    s = get_system(key)
    derivations.clear_caches()
    p4 = p_matrix(s, 4).matrix
    oracle = is_constant_multiple(mat_det_adj(p4)[0], s.q_poly ** 4)
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(derivations, "certify", counting("certify", derivations.certify))
    for module in (derivations, verify):
        monkeypatch.setattr(module, "mat_det_adj", counting("det", module.mat_det_adj))
    report = run_verification(s, 4, ("ziegler", "det-jdkx"))
    assert report.passed
    assert report.checks[0].detail["constant"] == str(oracle)
    assert report.checks[1].detail["constant"] == str(rat_det(s.gram) / oracle)
    assert calls == ["certify"]


def test_jdg_identities_trivial_g_x():
    s = get_system("B2")
    recs = verify_jdg_identities(s, "x")
    assert all(r.status == "pass" for r in recs)
    names = {r.name for r in recs}
    assert "jdg(x).i" in names and "jdg.iii" in names


@pytest.mark.parametrize("g", ["f", "dx"])
def test_jdg_identities_b2(g):
    s = get_system("B2")
    recs = verify_jdg_identities(s, g, include_f_identity=False)
    assert all(r.status == "pass" for r in recs)


def test_jdg_singular_jacobian_skips_inverse_identities():
    s = get_system("B2")
    x1 = Poly.variable(2, 0)
    recs = verify_jdg_identities(s, [x1, x1], include_f_identity=False)
    status = {r.name: r.status for r in recs}
    assert status["jdg(custom).i"] == "pass"  # holds for any g
    assert status["jdg(custom).ii"] == "skipped"
    assert status["jdg(custom).iv"] == "skipped"


def test_jdg_identities_custom_g_with_denominator():
    # J(g) has a denominator x1^2: its inverse is taken over the cleared
    # numerator and the denominator reattached
    s = get_system("B2")
    x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
    x1_factor = next(f for f in s.factors if f == x1)
    g = [x1, ArrFrac(x2 ** 3, {x1_factor: 1})]
    recs = verify_jdg_identities(s, g, include_f_identity=False)
    assert {r.name: r.status for r in recs} == {
        "jdg(custom).i": "pass", "jdg(custom).ii": "pass", "jdg(custom).iv": "pass",
    }


def test_b_properties_b2():
    s = get_system("B2")
    recs = verify_b_properties(s, 1)
    status = {r.name: r.status for r in recs}
    assert set(status.values()) == {"pass"}
    # B^(1)_{11} = 0 because 1 + 1 < l + 1 = 3
    from multider.derivations import b_matrix
    assert not b_matrix(s, 1).matrix[0][0]


def test_b_properties_d4_central_block():
    s = get_system("D4")
    for k in (1, 2):
        recs = verify_b_properties(s, k, next_route="closed_form")
        by_name = {r.name: r for r in recs}
        central = by_name[f"b({k}).central"]
        assert central.status == "pass"
        assert central.detail["scale"] == 2 * k - 1


def test_equivariance_b2():
    s = get_system("B2")
    recs = verify_equivariance(s, 1, 3)
    assert all(r.status == "pass" for r in recs)
    assert any(r.name.endswith("p_odd") for r in recs)


def test_equivariance_a2_general_generator():
    s = get_system("A2")
    recs = verify_equivariance(s, 2, 5)
    assert all(r.status == "pass" for r in recs)


def test_recursion_check():
    s = get_system("B2")
    assert verify_recursion(s, 4).status == "pass"


def test_recursion_check_fails_on_perturbed_jdkx(monkeypatch):
    # negative control: a wrong J(D^2 x) must break the product identity,
    # even when P_4 is already memoised
    s = get_system("B2")
    real = derivations.jdkx

    def perturbed(system, k):
        mat = real(system, k)
        if k != 2:
            return mat
        rows = [[mat[i][j] for j in range(mat.cols)] for i in range(mat.rows)]
        assert rows[0][0]
        rows[0][0] = rows[0][0] * 2
        return Matrix(rows)

    monkeypatch.setattr(derivations, "jdkx", perturbed)
    rec = verify_recursion(s, 4)
    assert rec.status == "fail"
    assert rec.detail == {"m": 4}
    assert "entry (1,1) of P_4 J(D^2 x)" in rec.witness["reason"]


def test_nesting_b2_b3():
    for key in ("B2", "B3"):
        s = get_system(key)
        for m in (1, 2, 3):
            assert verify_nesting(s, m).status == "pass", (key, m)
    assert verify_nesting(get_system("B2"), 0).status == "skipped"


def test_run_verification_all_b2():
    s = get_system("B2")
    report = run_verification(s, 3, ("all",))
    assert report.passed
    names = {c.name for c in report.checks}
    assert {"ziegler", "membership", "degrees", "det-jdkx", "recursion",
            "nesting"} <= names


def test_run_verification_subset_and_unknown():
    s = get_system("B2")
    report = run_verification(s, 2, ("ziegler", "degrees"))
    assert len(report.checks) == 2 and report.passed
    with pytest.raises(ValueError):
        run_verification(s, 2, ("zieglerr",))


def test_report_serialization_shape():
    s = get_system("B2")
    report = run_verification(s, 1, ("ziegler",))
    d = report.to_dict()
    assert d["system"] == "B2" and d["passed"] is True
    assert "elapsed" not in d["checks"][0]
    dt = report.to_dict(include_timings=True)
    assert "elapsed" in dt["checks"][0]
