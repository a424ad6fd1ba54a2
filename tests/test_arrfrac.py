"""Tests for the arrangement-factored fraction field."""

from fractions import Fraction

import pytest

from multider.coxeter import get_system
from multider.exactpoly import (
    ArrFrac,
    Matrix,
    Poly,
    UnsupportedDenominator,
    divide_exact,
    mat_det_adj,
)

x1 = Poly.variable(2, 0)
x2 = Poly.variable(2, 1)


def b2_factors():
    return get_system("B2").q_factor_map


def test_cancellation_to_zero():
    den = b2_factors()
    a = ArrFrac(-x2, den)
    b = ArrFrac(x2, den)
    s = a + b
    assert not s and not s.den


def test_polynomial_over_one():
    p = x1**2 + x2
    f = ArrFrac.from_poly(p)
    assert f.is_polynomial() and f.as_poly() == p and not f.den


def test_reduction_of_shared_factors():
    # (x2^4 - 3 x1^2 x2^2) / Q^2 reduces: numerator shares x2^2 with Q^2
    den = {f: 2 for f in b2_factors()}
    r = ArrFrac(x2**4 - 3 * x1**2 * x2**2, den)
    want_num = x2**2 - 3 * x1**2
    assert r.num == want_num
    xf = next(f for f in r.den if f == x1)
    assert r.den[xf] == 2 and len(r.den) == 3  # x2^2 fully cancelled
    # oracle: Dx1 = -x2 / det J(f) = x2/Q here (det J(f) = -Q for this
    # catalog orientation); its x1-derivative must be the reduced element
    dx1 = ArrFrac(x2, {f: 1 for f in b2_factors()})
    assert dx1.diff(0) == r


def test_derivative_quotient_rule_univariate():
    y = Poly.variable(1, 0)
    inv = ArrFrac(Poly.const(1, 1), {y: 1})
    d = inv.diff(0)
    assert d == ArrFrac(Poly.const(1, -1), {y: 2})


def test_degree_bookkeeping():
    den = b2_factors()
    a = ArrFrac(x2**3, den)
    assert a.degree() == 3 - 4


def test_division_by_arrangement_factor_product():
    den = b2_factors()
    a = ArrFrac(x1 * x2, {})
    b = ArrFrac(x1 * x2 * (x1 + x2), {})
    r = a.div(b, extra_factors=den)
    assert r.num.is_constant()
    assert sum(r.den.values()) == 1


def test_unsupported_denominator_witness():
    irreducible = x1**2 + x2**2
    with pytest.raises(UnsupportedDenominator) as exc:
        ArrFrac.from_poly(x1).div(ArrFrac.from_poly(irreducible))
    assert exc.value.residual == irreducible


def test_inverse_of_constant_numerator():
    den = b2_factors()
    a = ArrFrac(Poly.const(2, Fraction(-3)), {f: 2 for f in den})
    inv = a.inverse()
    assert inv.is_polynomial()
    assert (a * inv).num == Poly.const(2, 1)


def test_substitute_linear_on_fraction():
    # a = x2/Q reduces to 1/(x1 (x1+x2)(x1-x2)); under x1 -> -x1 each of the
    # three factors picks up a sign after re-canonicalisation, so the image
    # is exactly -a (matching the anti-invariance of Q with x2 fixed)
    den = b2_factors()
    a = ArrFrac(x2, den)
    flip = [[-1, 0], [0, 1]]
    assert a.substitute_linear(flip) == -a
    ident = [[1, 0], [0, 1]]
    assert a.substitute_linear(ident) == a


def test_frac_matrix_det_adj_reattaches_denominators():
    # mat_det_adj takes polynomial matrices only: the caller clears M = N / Q
    # and reattaches the denominators, det M = det N / Q^2 and
    # adj M = adj N / Q, which ArrFrac reduces against the factors of Q
    system = get_system("B2")
    den1 = system.q_factor_map
    num = Matrix([[x2**3, -(x1**3)], [-x2, x1]])
    m = num.map(lambda e: ArrFrac(e, den1))
    det_n, adj_n = mat_det_adj(num)
    det = ArrFrac(det_n, {f: 2 for f in den1})
    adj = adj_n.map(lambda e: ArrFrac(e, den1))
    assert det.num.is_constant() and sum(det.den.values()) == 4  # det M = -1/Q
    ident = m @ adj
    for i in range(2):
        for j in range(2):
            assert ident[i][j] == (det if i == j else ArrFrac.from_poly(Poly.zero(2)))
    with pytest.raises(TypeError):
        mat_det_adj(m)


def test_reduction_invariant_after_arith():
    den = b2_factors()
    a = ArrFrac(x1**2 - x2**2, {f: 1 for f in den})
    b = ArrFrac(x1 * x2, {f: 2 for f in den})
    product = Matrix([[a, b], [b, a]]) @ Matrix([[b, x1], [a, a]])
    for r in (a + b, a - b, a * b, *(v for _, _, v in product.entries())):
        for f, e in r.den.items():
            assert e > 0
            assert divide_exact(r.num, f) is None


def _termwise(a: Matrix, b: Matrix) -> Matrix:
    """Reference product: one reduced ArrFrac product and sum per term."""
    rows = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = ArrFrac.from_poly(Poly.zero(2))
            for k in range(a.cols):
                acc = acc + ArrFrac._coerce(a[i][k], 2) * ArrFrac._coerce(b[k][j], 2)
            row.append(acc)
        rows.append(row)
    return Matrix(rows)


def test_fused_product_matches_termwise_sum():
    lx1, lx2 = x1, x2
    plus, minus = x1 + x2, x1 - x2
    zero = Poly.zero(2)
    # mixed Poly / ArrFrac operands, with zero entries of both kinds
    a = Matrix([
        [ArrFrac(x2, {lx1: 1, plus: 1}), ArrFrac(Poly.const(2, 1), {plus: 1}), x1],
        [ArrFrac(x1, {minus: 1}), ArrFrac(-x2, {minus: 1}), zero],
        [ArrFrac.from_poly(zero), ArrFrac(x1**2, {lx2: 2, minus: 1}), x2],
    ])
    b = Matrix([
        [Poly.const(2, 1), ArrFrac(x1 - 2 * x2, {lx2: 1})],
        [ArrFrac.from_poly(Poly.const(2, 1)), x1],
        [zero, ArrFrac(x2, {plus: 2})],
    ])
    got = a @ b
    assert got == _termwise(a, b)
    assert all(isinstance(v, ArrFrac) for _, _, v in got.entries())
    # x2/(x1 (x1+x2)) + 1/(x1+x2) = 1/x1: the factor x1 + x2 drops out
    assert got[0][0] == ArrFrac(Poly.const(2, 1), {lx1: 1})
    # x1/(x1-x2) - x2/(x1-x2) = 1: the entry cancels to a polynomial
    assert got[1][0] == Poly.const(2, 1) and got[1][0].is_polynomial()
    # a column of zeros gives a zero entry with no denominator
    z = Matrix([[zero], [ArrFrac.from_poly(zero)], [zero]])
    prod = a @ z
    assert all(not v and not v.den for _, _, v in prod.entries())


def test_fused_product_dispatches_on_any_fraction_entry():
    # the only fraction sits away from [0][0] in the right operand
    a = Matrix([[x1, x2], [x2, x1]])
    b = Matrix([[x1, x2], [x2, ArrFrac(x1, {x2: 1})]])
    got = a @ b
    assert got == _termwise(a, b)
    assert all(isinstance(v, ArrFrac) for _, _, v in got.entries())
    assert got[0][1] == x1 * x2 + x1
