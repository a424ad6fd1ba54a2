"""Reference fixtures for the rank-two type B arrangement and friends.

The values here were derived by hand, independently of the pipeline code:
P_1 = J(f) directly from the chosen invariants, J(D x) by quotient-rule
differentiation of D x = (-x2/Q, x1/Q) with Q = det J(f) = x1 x2^3 - x1^3 x2,
and P_3 = J(D x)^{-1} J(f) from the 2x2 adjugate.  Two displayed signs in
the usual published form of this example do not survive recomputation (the
vector D x and the (1,1) entry of J(D x)); the fixtures record the signs
that make det J(D x) * Q^2 constant, which is the acid test.  With those
signs the resulting P_3 agrees with the published matrix as-is, so the
global constant relating the two is 1.

``run_selftest`` replays the fixtures against the live pipeline:

* B2: P_1, Q (up to sign), J(D x) * Q^2, det J(D x) * Q^2 = -3,
  P_3 (up to one global constant, expected 1), det P_3 = Q^3 / 3;
* type B rank 2..4: B^(1)_{ij} = (2j - 1) * htilde_{i+j-l-1} bit-exactly,
  where htilde_i is the complete symmetric polynomial in the squared
  variables.
"""

from __future__ import annotations

from fractions import Fraction

from .coxeter import build_system, get_system, symmetric_polys
from .derivations import b_matrix, jdkx, jdkx_det_constant, p_matrix
from .exactpoly import Matrix, Poly, is_constant_multiple
from .verify import CheckRecord, VerificationReport, _Laps

_THIRD = Fraction(1, 3)


def b2_p1_matrix() -> Matrix:
    x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
    return Matrix([[x1, x1**3], [x2, x2**3]])


def b2_q_poly() -> Poly:
    x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
    return x1 * x2**3 - x1**3 * x2


def b2_jdx_times_q2() -> Matrix:
    """J(D x) * Q^2 with the recomputed (sign-resolved) entries."""
    x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
    return Matrix([
        [x2**2 * (x2**2 - 3 * x1**2), 2 * x1**3 * x2],
        [2 * x1 * x2**3, x1**2 * (x1**2 - 3 * x2**2)],
    ])


B2_DET_JDX_TIMES_Q2 = Fraction(-3)


def b2_p3_matrix() -> Matrix:
    x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
    return Matrix([
        [-_THIRD * x1**3 * (x1**2 - 5 * x2**2),
         -_THIRD * x1**3 * (x1**4 - 3 * x1**2 * x2**2 - 2 * x2**4)],
        [_THIRD * x2**3 * (5 * x1**2 - x2**2),
         _THIRD * x2**3 * (2 * x1**4 + 3 * x1**2 * x2**2 - x2**4)],
    ])


B2_DET_P3_OVER_CATALOG_Q3 = _THIRD


def type_b_b1_matrix(rank: int) -> Matrix:
    """B^(1)_{ij} = (2j - 1) * htilde_{i+j-rank-1} for the type B catalog entry."""
    rows = []
    for i in range(1, rank + 1):
        row = []
        for j in range(1, rank + 1):
            row.append((2 * j - 1) * symmetric_polys("complete_sq", i + j - rank - 1, rank))
        rows.append(row)
    return Matrix(rows)


def matrix_constant_ratio(a: Matrix, b: Matrix) -> Fraction | None:
    """The single nonzero c with a == c * b entrywise, if it exists."""
    ratio = None
    for i in range(a.rows):
        for j in range(a.cols):
            ea, eb = a[i][j], b[i][j]
            if bool(ea) != bool(eb):
                return None
            if not ea:
                continue
            c = is_constant_multiple(ea, eb)
            if c is None:
                return None
            if ratio is None:
                ratio = c
            elif ratio != c:
                return None
    return ratio


def _diff_witness(got: Matrix, want: Matrix) -> dict:
    for i in range(got.rows):
        for j in range(got.cols):
            if got[i][j] != want[i][j]:
                return {"entry": [i + 1, j + 1], "got": str(got[i][j]),
                        "want": str(want[i][j])}
    return {}


def run_selftest() -> VerificationReport:
    """Replay all fixtures against the live pipeline; each record carries
    its lap (``verify._Laps``)."""
    laps = _Laps()
    report = VerificationReport("selftest", {})
    b2 = get_system("B2")

    got = p_matrix(b2, 1).matrix
    want = b2_p1_matrix()
    rec = (CheckRecord("b2.p1", "pass") if got == want
           else CheckRecord("b2.p1", "fail", {}, _diff_witness(got, want)))
    report.checks.append(laps.stamp(rec))

    c = is_constant_multiple(b2.q_poly, b2_q_poly())
    rec = (CheckRecord("b2.q", "pass", {"sign": str(c)}) if c in (1, -1)
           else CheckRecord("b2.q", "fail", {},
                            {"got": str(b2.q_poly), "want": str(b2_q_poly())}))
    report.checks.append(laps.stamp(rec))

    q2 = b2_q_poly() ** 2
    got = jdkx(b2, 1).map(lambda e: (e * q2).as_poly())
    want = b2_jdx_times_q2()
    rec = (CheckRecord("b2.jdx", "pass") if got == want
           else CheckRecord("b2.jdx", "fail", {}, _diff_witness(got, want)))
    report.checks.append(laps.stamp(rec))

    c = jdkx_det_constant(b2, 1)
    rec = (CheckRecord("b2.det_jdx", "pass", {"constant": str(c)})
           if c == B2_DET_JDX_TIMES_Q2
           else CheckRecord("b2.det_jdx", "fail", {},
                            {"got": str(c), "want": str(B2_DET_JDX_TIMES_Q2)}))
    report.checks.append(laps.stamp(rec))

    got = p_matrix(b2, 3).matrix
    want = b2_p3_matrix()
    ratio = matrix_constant_ratio(got, want)
    if ratio:
        rec = CheckRecord("b2.p3", "pass", {"global_constant": str(ratio)})
    else:
        rec = CheckRecord("b2.p3", "fail", {}, _diff_witness(got, want))
    report.checks.append(laps.stamp(rec))

    p3 = p_matrix(b2, 3).matrix
    det_p3 = p3[0][0] * p3[1][1] - p3[0][1] * p3[1][0]
    c = is_constant_multiple(det_p3, b2.q_poly**3)
    rec = (CheckRecord("b2.det_p3", "pass", {"constant": str(c)})
           if c == B2_DET_P3_OVER_CATALOG_Q3
           else CheckRecord("b2.det_p3", "fail", {},
                            {"got": str(c), "want": str(B2_DET_P3_OVER_CATALOG_Q3)}))
    report.checks.append(laps.stamp(rec))

    for rank in (2, 3, 4):
        system = build_system("B", rank)
        got = b_matrix(system, 1)
        want = type_b_b1_matrix(rank)
        rec = (CheckRecord(f"b{rank}.b1_formula", "pass") if got == want
               else CheckRecord(f"b{rank}.b1_formula", "fail", {},
                                _diff_witness(got, want)))
        report.checks.append(laps.stamp(rec))
    return report
