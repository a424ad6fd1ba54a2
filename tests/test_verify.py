"""Tests for the certification checks, including their failure paths."""

import json
from dataclasses import replace

import pytest
from oracles import (
    FIRST_BROKEN_LINK,
    PERTURBATIONS,
    equivariance_jdkx_in_full,
    jdg_ii_in_full,
    jdg_iv_in_full,
    perturb_jdkx_memo,
    perturb_jf_inverse_memo,
    perturb_p_memo,
)

from multider import cli, derivations, golden, verify
from multider.coxeter import get_system
from multider.derivations import DerivationBasis, clear_caches, p_matrix
from multider.exactpoly import Matrix, Poly, is_constant_multiple, mat_det_adj, rat_det
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
    # derivations is the one module that binds mat_det_adj
    monkeypatch.setattr(derivations, "mat_det_adj", counting("det", derivations.mat_det_adj))
    report = run_verification(s, 4, ("ziegler", "det-jdkx"))
    assert report.passed
    assert report.checks[0].detail["constant"] == str(oracle)
    assert report.checks[1].detail["constant"] == str(rat_det(s.gram) / oracle)
    assert calls == ["certify"]


def test_jdg_identities_trivial_g_x():
    s = get_system("B2")
    recs = verify_jdg_identities(s)
    assert [r.name for r in recs] == [
        "jdg(x).i", "jdg(x).ii", "jdg(x).iv", "jdg.iii", "jdg(f).i", "jdg(f).ii",
        "jdg(f).iv", "jdg(dx).i", "jdg(dx).ii", "jdg(dx).iv",
    ]
    assert all(r.status == "pass" for r in recs)


@pytest.mark.parametrize("g", ["f", "dx"])
def test_jdg_identities_b2(g):
    s = get_system("B2")
    recs = [r for r in verify_jdg_identities(s) if r.name.startswith(f"jdg({g})")]
    assert [r.status for r in recs] == ["pass"] * 3


@pytest.mark.parametrize("g, k", [("x", 1), ("dx", 2)])
def test_jdg_checks_the_memoised_jacobians(monkeypatch, g, k):
    # negative control: J(Dg) is read from the memo, J(D^k x) for g = D^(k-1) x,
    # and a wrong memo entry must break identity i, not pass through it
    s = get_system("B2")
    perturb_jdkx_memo(monkeypatch, s, k)
    recs = {r.name: r for r in verify_jdg_identities(s)}
    assert recs[f"jdg({g}).i"].status == "fail"
    assert recs[f"jdg({g}).i"].witness["entry"] == [1, 1]


def test_jdg_witnesses_are_the_reduced_entries(monkeypatch):
    # both sides are compared unreduced; a failing entry is reduced on each
    # side only for its witness, which keeps these bytes
    s = get_system("B2")
    perturb_jdkx_memo(monkeypatch, s, 2)
    recs = {r.name: r.to_dict() for r in verify_jdg_identities(s)}
    assert recs["jdg(dx).i"] == {
        "name": "jdg(dx).i", "status": "fail", "detail": {},
        "witness": {
            "entry": [1, 1],
            "lhs": "(70*x1^4 - 28*x1^2*x2^2 + 6*x2^4) / [(x1 + x2)^4 * (x1 - x2)^4 * (x1)^4]",
            "rhs": "(35*x1^4 - 14*x1^2*x2^2 + 3*x2^4) / [(x1 + x2)^4 * (x1 - x2)^4 * (x1)^4]",
        },
    }
    # neither ii nor iv reads J(D^2 x): ii is P_2 J(D x) = Gram, iv the
    # certificate of C(2)
    assert recs["jdg(dx).ii"]["status"] == "pass"
    assert recs["jdg(dx).iv"] == {
        "name": "jdg(dx).iv", "status": "pass", "detail": {}, "witness": None,
    }


def test_jdg_ii_fails_on_a_perturbed_jacobian(monkeypatch):
    # negative control: for g = D x, identity ii is the product of
    # J(g)^{-1} = Gram^{-1} P_2 (Gram = I on B2) with the memoised J(D x)
    s = get_system("B2")
    p_matrix(s, 2)
    perturb_jdkx_memo(monkeypatch, s, 1)
    recs = {r.name: r for r in verify_jdg_identities(s)}
    assert recs["jdg(dx).ii"].status == "fail"
    assert recs["jdg(dx).ii"].witness["entry"] == [1, 1]
    assert recs["jdg(dx).ii"].witness["lhs"] == (
        "(2*x1^4 - 16/3*x1^2*x2^2 + 2*x2^4) / [(x1 + x2)^2 * (x1 - x2)^2]")
    assert recs["jdg(dx).ii"].witness["rhs"] == "1"


# faults in the objects the jdg records read: the inputs of the certificates
# of C(1) and C(2) (P_2, C_4, D x), the memoised J(f)^{-1} and J(D x)
_JDG_FAULTS = dict(
    PERTURBATIONS,
    jf_inverse=perturb_jf_inverse_memo,
    jdx=lambda monkeypatch, s: perturb_jdkx_memo(monkeypatch, s, 1),
)


@pytest.fixture
def jdg_under_fault(monkeypatch):
    """Run the jdg records of g in {x, f, dx} with one fault injected after
    P_3 and J(D x) are built; P_4 is built under the fault.  Caches are
    cleared before and after, so nothing built under a fault outlives the
    test."""
    def run(key, fault):
        s = get_system(key)
        clear_caches()
        p_matrix(s, 3)
        derivations.jdkx(s, 1)
        if fault is not None:
            _JDG_FAULTS[fault](monkeypatch, s)
        return s, {r.name: r for r in verify_jdg_identities(s)}

    yield run
    clear_caches()


# B2: every jdg record each fault fails.  A certificate of C(1) or C(2)
# reads P_2, C_4 and D x; ii reads J(f)^{-1} or P_2 and the memoised
# Jacobian; i at g = f and g = D x reads the memoised J(D x) on its right
_JDG_CONTROLS = {
    "p2": {"jdg(x).iv", "jdg(dx).ii", "jdg(dx).iv"},
    "step": {"jdg(dx).iv"},
    "dx": {"jdg(x).i", "jdg(x).iv", "jdg.iii", "jdg(f).i", "jdg(f).iv",
           "jdg(dx).i", "jdg(dx).iv"},
    "jf_inverse": {"jdg(f).ii", "jdg(f).iv"},
    "jdx": {"jdg(x).i", "jdg(f).i", "jdg(dx).i", "jdg(dx).ii"},
}


@pytest.mark.parametrize("fault", sorted(_JDG_CONTROLS))
def test_jdg_records_fail_on_a_fault_in_what_they_read(jdg_under_fault, fault):
    _, recs = jdg_under_fault("B2", fault)
    failed = {name for name, r in recs.items() if r.status == "fail"}
    assert failed == _JDG_CONTROLS[fault]
    for name in failed:
        witness = recs[name].witness
        # entry records name the entry, certificate records the entry of
        # the identity that broke
        assert witness.get("entry") == [1, 1] or "entry (1,1) " in witness["reason"], name


@pytest.mark.parametrize("fault", [None] + sorted(_JDG_FAULTS))
@pytest.mark.parametrize("key", ["B2", "A3", "B3", "D3", "I2(5)"])
def test_jdg_ii_iv_agree_with_the_identities_in_full(jdg_under_fault, key, fault):
    # oracle: ii as the product J(g)^{-1} J(g) = I and iv at g = D^k x as
    # the certificate of C(k + 1) report what the identities with both
    # sides formed report, with and without a fault
    s, recs = jdg_under_fault(key, fault)
    for g in ("x", "f", "dx"):
        assert recs[f"jdg({g}).ii"].status == jdg_ii_in_full(s, g), g
        assert recs[f"jdg({g}).iv"].status == jdg_iv_in_full(s, g), g


def test_jdg_iii_fails_on_a_perturbed_primitive_derivation(jdg_under_fault):
    # negative control: D[J(f)] = -J(D x) J(f) holds only because D f is
    # constant; doubling D x_1 breaks it.  J(D x) is memoised first, and the
    # caches built from the perturbed D are cleared after the test.
    _, recs = jdg_under_fault("B2", "dx")
    assert recs["jdg.iii"].status == "fail"
    assert recs["jdg.iii"].witness == {
        "entry": [1, 1],
        "lhs": "(2) / [(x1 + x2) * (x1 - x2) * (x1)]",
        "rhs": "(4*x1^2 - 2*x2^2) / [(x1 + x2)^2 * (x1 - x2)^2 * (x1)]",
    }


def test_equivariance_jdkx_fails_on_a_perturbed_jacobian(monkeypatch):
    # negative control: the records read J(D x) = P_2^{-1} Gram through the
    # certificate of C(1), which a doubled entry (1,1) of the memoised P_2
    # fails for every generator
    s = get_system("B2")
    perturb_p_memo(monkeypatch, s, 2)
    recs = {r.name: r for r in verify_equivariance(s, 1, 2)}
    for name in ("equivariance.g1.jdkx", "equivariance.g2.jdkx"):
        assert recs[name].status == "fail"
        assert recs[name].detail == {"k": 1}
    assert recs["equivariance.g2.jdkx"].witness == {
        "reason": "B2: entry (1,1) of P_2 is -2/3*x1^4 + 2*x1^2*x2^2, "
                  "expected P_1 C_2 = -1/3*x1^4 + x1^2*x2^2",
    }


@pytest.mark.parametrize("key", ["B2", "A3", "B3", "D3", "I2(5)"])
def test_equivariance_jdkx_agrees_with_the_identity_in_full(key):
    # oracle: g[J(D^k x)] = rho^-1 J(D^k x) rho, formed on the memoised
    # J(D^k x), holds wherever the record on P_{2k} passes
    s = get_system(key)
    for k in (1, 2):
        recs = [r for r in verify_equivariance(s, k, 2 * k) if r.name.endswith(".jdkx")]
        assert [r.status for r in recs] == ["pass"] * len(s.generators), k
        assert all(equivariance_jdkx_in_full(s, k, g) for g in s.generators), k


def test_equivariance_jdkx_compares_p_even_under_each_generator(monkeypatch):
    # negative control of the comparison g[P_2] = rho^T P_2 rho alone, with
    # C(1) taken as given: the doubled entry (1,1) survives the sign change
    # g1 of B2 but not the generator g2 that mixes the coordinates
    s = get_system("B2")
    perturb_p_memo(monkeypatch, s, 2)
    monkeypatch.setattr(verify, "_direct_formula_witness", lambda system, k: None)
    recs = {r.name: r for r in verify_equivariance(s, 1, 2)}
    assert recs["equivariance.g1.jdkx"].status == "pass"
    assert recs["equivariance.g2.jdkx"].status == "fail"
    assert recs["equivariance.g2.jdkx"].detail == {"k": 1}
    assert recs["equivariance.g2.jdkx"].witness == {
        "entry": [1, 1], "lhs": "2*x1^2*x2^2 - 2/3*x2^4", "rhs": "x1^2*x2^2 - 1/3*x2^4",
    }


def test_b_properties_b2():
    s = get_system("B2")
    recs = verify_b_properties(s, 1)
    status = {r.name: r.status for r in recs}
    assert set(status.values()) == {"pass"}
    # B^(1)_{11} = 0 because 1 + 1 < l + 1 = 3
    from multider.derivations import b_matrix
    assert not b_matrix(s, 1)[0][0]


def test_b_properties_d4_central_block():
    s = get_system("D4")
    for k in (1, 2):
        recs = verify_b_properties(s, k)
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


@pytest.mark.parametrize("fault", sorted(PERTURBATIONS))
def test_recursion_check_fails_on_perturbed_certificate_input(monkeypatch, fault):
    # negative control: P_4 is memoised before the fault; a wrong input of the
    # certificate C(j) -> C(j+1) must fail the record, with the entry
    s = get_system("B2")
    p_matrix(s, 4)
    PERTURBATIONS[fault](monkeypatch, s)
    rec = verify_recursion(s, 4)
    assert rec.status == "fail"
    assert rec.detail == {"m": 4}
    assert FIRST_BROKEN_LINK[fault] in rec.witness["reason"]


@pytest.mark.parametrize("fault", sorted(PERTURBATIONS))
def test_b_step_records_fail_on_perturbed_certificate_input(monkeypatch, fault):
    # negative control: B^(2) by definition equals the closed form only if
    # C(1) and C(2) hold, so each fault fails both step records of level 1;
    # def_eq_closed needs C(1) alone, which a perturbed C_4 leaves intact
    s = get_system("B2")
    p_matrix(s, 4)
    PERTURBATIONS[fault](monkeypatch, s)
    recs = {r.name: r for r in verify_b_properties(s, 1)}
    assert recs["b(1).def_eq_closed"].status == ("pass" if fault == "step" else "fail")
    for name in ("b(1).difference", "b(1).closed_formula"):
        assert recs[name].status == "fail", name
        assert recs[name].detail == {"next_route": "definition"}
        assert FIRST_BROKEN_LINK[fault] in recs[name].witness["reason"]


@pytest.mark.parametrize("fault", sorted(PERTURBATIONS))
def test_det_jdkx_and_equivariance_fail_on_perturbed_certificate_input(monkeypatch, fault):
    # negative control: both read C(2) and certify the chain to it, so each
    # fault fails them with the witness of the first broken link
    s = get_system("B2")
    p_matrix(s, 4)
    PERTURBATIONS[fault](monkeypatch, s)
    rec = verify_det_jdkx(s, 2)
    assert rec.status == "fail" and rec.detail == {"k": 2}
    assert FIRST_BROKEN_LINK[fault] in rec.witness["reason"]
    recs = [r for r in verify_equivariance(s, 2, 4) if r.name.endswith(".jdkx")]
    assert [(r.status, r.witness) for r in recs] == [("fail", rec.witness)] * len(s.generators)


def test_b_properties_need_no_inverse_jacobian(monkeypatch):
    # B^(k) by definition is certified through P_{2k}, not computed through
    # J(D^(k-1) x)^{-1}; cold caches, so nothing is read from an earlier build
    def broken(*args, **kwargs):
        raise AssertionError("J(D^k x)^{-1} was computed")

    clear_caches()
    monkeypatch.setattr(derivations, "jdkx_inverse", broken)
    monkeypatch.setattr(verify, "jdkx_inverse", broken)
    recs = verify_b_properties(get_system("A3"), 2)
    assert [r.status for r in recs] == ["pass"] * len(recs)


def test_verify_a4_m4_b_properties(capsys):
    # B^(3) by definition took 95.5 s (shared 2-vCPU VM, Python 3.11); its
    # certificate builds P_6 instead
    clear_caches()
    code = cli.main(["verify", "A4", "--m", "4", "--checks", "b-properties",
                     "--format", "json"])
    report = json.loads(capsys.readouterr().out)["report"]
    assert code == 0 and report["passed"]
    assert {r["status"] for r in report["checks"]} == {"pass"}
    assert [r["name"] for r in report["checks"]][-2:] == [
        "b(2).difference", "b(2).closed_formula"]


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
    # a record's lap is never serialised: to_dict is the stdout bytes
    assert sorted(d["checks"][0]) == ["detail", "name", "status", "witness"]
    assert report.checks[0].elapsed > 0


class _StubClock:
    """perf_counter for the lap clock: every read advances it one tick,
    and every call the check makes into the pipeline 1000 ticks."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 1
        return self.now - 1


# the pipeline functions each caller reaches through its own module
_PIPELINE = {
    verify: ("apply_derivation", "b_matrix", "certify_direct_formulas", "jacobian",
             "jdkx", "jdkx_inverse", "jf_inverse", "p_matrix", "primitive_dx"),
    golden: ("b_matrix", "build_system", "get_system", "jdkx", "jdkx_det_constant",
             "p_matrix"),
}

_LAPPED_CALLS = {
    "jdg": (verify, lambda s: verify.verify_jdg_identities(s)),
    "b-properties": (verify, lambda s: verify.verify_b_properties(s, 2)),
    "equivariance": (verify, lambda s: verify.verify_equivariance(s, 1, 3)),
    "selftest": (golden, lambda s: golden.run_selftest().checks),
}


@pytest.mark.parametrize("call", sorted(_LAPPED_CALLS))
def test_laps_sum_to_the_span_of_the_call(monkeypatch, call):
    """The records of a call are one lap each of one clock started at its
    top: the laps add up to the time from the call's first clock read to
    its last, so no work falls between records, before the first or after
    the last, and no work is charged to two records."""
    owner, run = _LAPPED_CALLS[call]
    clock = _StubClock()
    monkeypatch.setattr(verify, "perf_counter", clock)

    def charged(fn):
        def call_fn(*args, **kwargs):
            clock.now += 1000
            return fn(*args, **kwargs)
        return call_fn

    for name in _PIPELINE[owner]:
        monkeypatch.setattr(owner, name, charged(getattr(owner, name)))
    system = get_system("B2")
    start = clock.now
    records = run(system)
    last_read = clock.now - 1
    laps = [r.elapsed for r in records]
    assert sum(laps) == last_read - start, list(zip((r.name for r in records), laps))
    assert all(lap >= 1 for lap in laps)
    if call == "b-properties":
        # the one certificate of C(k + 1) is charged to the first reader only
        lap = {r.name: r.elapsed for r in records}
        assert lap["b(2).difference"] > 1000 and lap["b(2).closed_formula"] == 1
