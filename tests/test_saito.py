"""Saito's criterion: the certificate behind ziegler, det-jdkx, the catalog's
det J(f) constant and b(k).det_constant.

The constants are compared with a full determinant (``mat_det_adj``, here
an oracle only; no certificate computes one), and each negative control
must fail with a witness naming the condition that broke.
"""

import json
from dataclasses import replace

import pytest

from multider import cli, verify
from multider.coxeter import CatalogError, CoxeterSystem, catalog_entries, get_system
from multider.derivations import BMatrix, clear_caches, p_matrix, saito_certificate
from multider.exactpoly import Matrix, Poly, is_constant_multiple, mat_det_adj
from multider.saito import evaluation_point
from multider.verify import verify_b_properties, verify_nesting, verify_ziegler

CATALOG = [s.key for s in catalog_entries()]
SMALL = [s.key for s in catalog_entries() if s.rank <= 4]

x1 = Poly.variable(2, 0)
x2 = Poly.variable(2, 1)


def full_determinant(mat: Matrix) -> Poly:
    """det by expansion along the first row with cofactors from mat_det_adj:
    half the work of mat_det_adj on the whole matrix, which also builds its
    adjugate."""
    n = mat.rows
    if n <= 2:
        return mat_det_adj(mat)[0]
    det = Poly.zero(mat[0][0].nvars)
    for j in range(n):
        minor = Matrix([[mat[i][c] for c in range(n) if c != j] for i in range(1, n)])
        term = mat[0][j] * mat_det_adj(minor)[0]
        det = det - term if j % 2 else det + term
    return det


@pytest.mark.parametrize("key", SMALL)
def test_saito_constant_equals_full_determinant(key):
    s = get_system(key)
    for m in range(5):
        basis = p_matrix(s, m)
        det = full_determinant(basis.matrix)
        assert saito_certificate(s, basis).constant == is_constant_multiple(det, s.q_poly ** m), m


@pytest.mark.parametrize("key", CATALOG)
def test_catalog_det_jf_constant_equals_full_determinant(key):
    s = get_system(key)
    det = full_determinant(s.jacobian_of_invariants())
    assert s.det_jf_constant == is_constant_multiple(det, s.q_poly)


@pytest.mark.parametrize("key", ["B3", "A3", "D4", "I2(5)"])
def test_b_det_constant_equals_full_determinant(key):
    s = get_system(key)
    for k in (1, 2):
        recs = {r.name: r for r in verify_b_properties(s, k, next_route="closed_form")}
        rec = recs[f"b({k}).det_constant"]
        det = mat_det_adj(verify.b_matrix(s, k).matrix)[0]
        assert rec.status == "pass" and rec.detail["constant"] == str(det.constant_value())


def test_evaluation_point_is_the_first_prime_window_off_every_factor():
    assert evaluation_point(2, (x1, x2)) == ((2, 3), 6)
    # 3 x1 - 2 x2 vanishes at (2, 3), so the window moves on to (3, 5)
    assert evaluation_point(2, (x1, 3 * x1 - 2 * x2)) == ((3, 5), -3)
    assert evaluation_point(3, tuple(get_system("A3").factors))[0] == (2, 3, 5)


# -- negative controls ---------------------------------------------------------


def with_columns(basis, columns):
    ell = basis.matrix.rows
    return replace(basis, matrix=Matrix([[columns[j][i] for j in range(ell)]
                                         for i in range(ell)]))


def columns(basis):
    mat = basis.matrix
    return [[mat[i][j] for i in range(mat.rows)] for j in range(mat.cols)]


def test_column_outside_the_module_fails_membership():
    s = get_system("B3")
    basis = p_matrix(s, 3)
    cols = columns(basis)
    cols[1] = [cols[1][0] + Poly.variable(3, 1) ** basis.degrees[1]] + cols[1][1:]
    rec = verify_ziegler(s, with_columns(basis, cols))
    assert rec.status == "fail" and rec.detail == {"m": 3}
    assert rec.witness["condition"] == "membership" and rec.witness["column"] == 2
    assert {"factor", "divisions_done", "residual"} <= set(rec.witness)


def test_column_of_the_wrong_degree_fails_the_degree_sum():
    # x1 theta stays in D^(m), one degree too high
    s = get_system("B3")
    basis = p_matrix(s, 3)
    cols = columns(basis)
    cols[0] = [e * Poly.variable(3, 0) for e in cols[0]]
    rec = verify_ziegler(s, with_columns(basis, cols))
    assert rec.status == "fail"
    assert rec.witness == {"condition": "degrees",
                           "column_degrees": [d + (j == 0) for j, d in enumerate(basis.degrees)],
                           "expected_sum": 3 * s.num_hyperplanes}


def test_non_homogeneous_column_fails_the_degrees():
    s = get_system("B2")
    basis = p_matrix(s, 2)
    cols = columns(basis)
    cols[1] = [cols[1][0] * (x1 + 1), cols[1][1] * (x1 + 1)]
    rec = verify_ziegler(s, with_columns(basis, cols))
    assert rec.status == "fail" and rec.witness["condition"] == "degrees"
    assert rec.witness["entry"][1] == 2 and rec.witness["homogeneous"] is False


def test_two_equal_columns_fail_the_evaluation():
    # both columns of P_2 lie in D^(2) with degree h, so only the value
    # det P(p) = 0 rejects them
    s = get_system("B2")
    basis = p_matrix(s, 2)
    cols = columns(basis)
    rec = verify_ziegler(s, with_columns(basis, [cols[0], cols[0]]))
    assert rec.status == "fail"
    assert rec.witness == {"condition": "evaluation", "point": [2, 3], "value": "0"}


@pytest.mark.parametrize("m", [3, 4])
def test_perturbed_p_matrix_fails_nesting(monkeypatch, m):
    s = get_system("B2")
    real = verify.p_matrix

    def perturbed(system, level):
        basis = real(system, level)
        if level != m:
            return basis
        cols = columns(basis)
        cols[0] = [cols[0][0] * 2] + cols[0][1:]
        return with_columns(basis, cols)

    monkeypatch.setattr(verify, "p_matrix", perturbed)
    rec = verify_nesting(s, m)
    assert rec.status == "fail" and rec.detail == {"m": m}
    assert rec.witness["entry"] == [1, 1]


def test_doctored_invariant_with_a_singular_jacobian_is_rejected():
    # f1^2 is invariant and of degree 4, and the columns of J(f) lie in D(A),
    # but det J(f) = 0: the evaluation rejects it
    s = get_system("B2")
    f1 = s.invariants[0]
    with pytest.raises(CatalogError, match="'condition': 'evaluation'"):
        CoxeterSystem("B2", "B", 2, None, s.factors, [f1, f1 ** 2], s.exponents,
                      s.gram, s.generators)


def test_doctored_invariant_outside_the_module_is_rejected():
    # x1^5 is fixed by the only stored generator of I2(5), x2 -> -x2, but its
    # gradient is not in D(A) along the orbit of irrational mirror lines
    s = get_system("I2(5)")
    with pytest.raises(CatalogError, match="not in D"):
        CoxeterSystem("I2(5)", "I2", 2, 5, s.factors, [s.invariants[0], x1 ** 5],
                      s.exponents, s.gram, s.generators)


def test_b_det_constant_skipped_when_the_degrees_fail(monkeypatch):
    s = get_system("B2")
    real = verify.b_matrix

    def doctored(system, k, route="definition"):
        b = real(system, k, route=route)
        if k != 1:
            return b
        rows = [[b.matrix[i][j] for j in range(2)] for i in range(2)]
        rows[0][0] = x1  # B^(1)_11 must vanish: its degree m_1 + m_1 - h is negative
        return BMatrix(b.system_key, k, b.route, Matrix(rows))

    monkeypatch.setattr(verify, "b_matrix", doctored)
    recs = {r.name: r for r in verify_b_properties(s, 1)}
    assert recs["b(1).degrees"].status == "fail"
    assert recs["b(1).det_constant"].status == "skipped"
    assert "b(1).degrees failed" in recs["b(1).det_constant"].detail["reason"]


# -- a request the determinant route could not afford --------------------------


def test_verify_a4_m5_certificates(capsys):
    # the full determinants took 12.8 s (ziegler) and 74.6 s (nesting)
    clear_caches()
    code = cli.main(["verify", "A4", "--m", "5", "--checks",
                     "ziegler,membership,degrees,det-jdkx,nesting", "--format", "json"])
    report = json.loads(capsys.readouterr().out)["report"]
    assert code == 0 and report["passed"]
    ziegler = report["checks"][0]
    assert ziegler["name"] == "ziegler" and ziegler["detail"]["constant"] == "15625/3024"
