"""Tests for the arrangement-factored fraction field."""

from fractions import Fraction

import pytest

from multider.coxeter import catalog_entries, get_system
from multider.derivations import primitive_dx
from multider.exactpoly import (
    ArrFrac,
    Matrix,
    Poly,
    canonical_factor,
    divide_exact,
    mat_det_adj,
    pairs_equal,
    sum_pairs,
)
from multider import exactpoly

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


def test_gradient_pairs_match_an_independent_quotient_rule():
    y1, y2, y3 = (Poly.variable(3, i) for i in range(3))
    quad = y1**2 + y2**2 + 2 * y3**2
    den = {y1: 2, y1 - y2: 1, y1 + y2 + y3: 3, quad: 2, 2 * y1 - y3: 1}
    frac = ArrFrac(y1**3 * y3 - 2 * y2**2 * quad + y3 * Fraction(1, 3), den)
    assert frac.den == den
    u = y1**2 * (y1 - y2) * (y1 + y2 + y3)**3 * quad**2 * (2 * y1 - y3)
    pairs = frac.gradient_pairs()
    assert len(pairs) == 3
    for i, (num, pair_den) in enumerate(pairs):
        assert pair_den == {f: e + 1 for f, e in den.items()}
        # d/dx_i (n / u) = (n' u - n u') / u^2
        expect = ArrFrac(frac.num.diff(i) * u - frac.num * u.diff(i),
                         {f: 2 * e for f, e in den.items()})
        assert ArrFrac(num, pair_den) == expect == frac.diff(i)
    poly = ArrFrac.from_poly(quad * y2)
    assert poly.gradient_pairs() == [((quad * y2).diff(i), {}) for i in range(3)]


def test_degree_bookkeeping():
    den = b2_factors()
    a = ArrFrac(x2**3, den)
    assert a.degree() == 3 - 4


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


def _substituted_and_reduced(a, g):
    """a under the substitution g, rebuilt through ArrFrac(num, den), which
    tries to strip every factor."""
    num = a.num.substitute_linear(g)
    den, scale = {}, Fraction(1)
    for f, e in a.den.items():
        h, c = canonical_factor(f.substitute_linear(g))
        den[h] = den.get(h, 0) + e
        scale *= c**e
    return ArrFrac(num * (1 / scale), den)


def test_invertible_substitution_needs_no_reduction(monkeypatch):
    # every generator of every catalog system on D x_j and (D x_j)^2 (poles
    # of order one and two): the result built as it stands equals the
    # reduced one, keeps one factor per factor, and strips nothing
    cases = []
    for s in catalog_entries():
        for d in primitive_dx(s):
            for a in (d, d * d):
                for g in s.generators:
                    cases.append((a, g, _substituted_and_reduced(a, g)))

    def no_strip(*args):
        raise AssertionError("an invertible substitution was reduced")

    monkeypatch.setattr(exactpoly, "strip_factor", no_strip)
    for a, g, want in cases:
        got = a.substitute_linear(g)
        assert got.num == want.num and got.den == want.den
        assert sorted(got.den.values()) == sorted(a.den.values())


def test_singular_substitution_is_reduced():
    # x2 -> 0 sends x1 / (x1 + x2) to x1 / x1 = 1
    f, _ = canonical_factor(x1 + x2)
    a = ArrFrac(x1 * 3, {f: 1})
    got = a.substitute_linear([[1, 0], [0, 0]])
    assert got.den == {} and got.num == Poly.const(2, 3)


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


# pairs_equal compares unreduced (numerator, denominator exponents) pairs;
# every case below holds its unequal operands next to an equal twin whose
# denominator differs, so a helper that compared the numerators without
# lifting them to a common denominator fails each test.


def test_pairs_equal_across_a_common_factor():
    plus, minus = x1 + x2, x1 - x2
    p = x1**2 - 3 * x2
    # p (x1+x2) / ((x1+x2)^2 (x1-x2)) = p / ((x1+x2) (x1-x2))
    a = (p * plus, {plus: 2, minus: 1})
    b = (p, {plus: 1, minus: 1})
    assert pairs_equal(a, b) and pairs_equal(b, a)
    # each side carries a surplus factor of its own: p x1 / (x1 (x1+x2)) and
    # p (x1+x2) / (x1+x2)^2 are both p / (x1+x2)
    assert pairs_equal((p * x1, {x1: 1, plus: 1}), (p * plus, {plus: 2}))
    assert ArrFrac(*a) == ArrFrac(*b)


def test_pairs_equal_across_a_dihedral_orbit_factor():
    q = next(f for f in get_system("I2(5)").factors if f.degree() > 1)
    p = 2 * x1**3 - x2
    assert pairs_equal((p * q**2, {q: 3, x2: 1}), (p, {q: 1, x2: 1}))
    assert not pairs_equal((p * q**2, {q: 3, x2: 1}), (p, {q: 2, x2: 1}))


def test_pairs_equal_detects_one_coefficient():
    plus = x1 + x2
    p = 3 * x1**2 + x1 * x2 - x2**2
    changed = 3 * x1**2 + 2 * x1 * x2 - x2**2
    assert pairs_equal((p * plus, {plus: 2}), (p, {plus: 1}))
    assert not pairs_equal((p * plus, {plus: 2}), (changed, {plus: 1}))
    assert not pairs_equal((changed, {plus: 1}), (p * plus, {plus: 2}))


def test_pairs_equal_zero_against_nonzero():
    plus = x1 + x2
    zero = Poly.zero(2)
    assert pairs_equal((zero, {plus: 2}), (zero, {}))
    assert not pairs_equal((zero, {plus: 2}), (x2 * plus, {plus: 2}))
    assert not pairs_equal((x2, {}), (zero, {plus: 1}))
    assert pairs_equal((x2, {}), (x2 * plus, {plus: 1}))


def test_product_pairs_equal_the_reduced_product():
    plus, minus = x1 + x2, x1 - x2
    a = Matrix([[ArrFrac(x2, {x1: 1, plus: 1}), ArrFrac(Poly.const(2, 1), {plus: 1})],
                [ArrFrac(x1, {minus: 1}), ArrFrac(-x2, {minus: 1})]])
    b = Matrix([[Poly.const(2, 1), ArrFrac(x1 - 2 * x2, {x2: 1})], [x1, x2]])
    reduced = a @ b
    pairs = a.product_pairs(b)
    for i in range(2):
        for j in range(2):
            assert ArrFrac(*pairs[i][j]) == reduced[i][j]
            assert pairs_equal(pairs[i][j], (reduced[i][j].num, reduced[i][j].den))
    # x2/(x1 (x1+x2)) + x1/(x1+x2) stays over the common denominator
    assert pairs[0][0] == (x2 + x1**2, {x1: 1, plus: 1})


def test_every_lift_goes_factor_power_by_factor_power(monkeypatch):
    # a short numerator and a long one take the one route: the numerator is
    # multiplied by one cached factor power per surplus factor, and the
    # surplus is never expanded
    powers = []
    real = exactpoly._factor_power

    def counted(f, e):
        powers.append((f, e))
        return real(f, e)

    monkeypatch.setattr(exactpoly, "_factor_power", counted)
    plus, minus = x1 + x2, x1 - x2
    den = {plus: 1, minus: 2, x1 + 2 * x2: 1, x1 + 3 * x2: 1}
    surplus = plus * minus**2 * (x1 + 2 * x2) * (x1 + 3 * x2)
    short, long = x1**3 - x2**3 + x1 * x2**2, (x1 + x2 + 1) ** 16
    assert len(short) < 8 < 128 < len(long)
    for num in (short, long):
        lifted = num * surplus
        powers.clear()
        assert exactpoly._lift(num, {}, den) == lifted
        assert powers == list(den.items())
        powers.clear()
        assert exactpoly._lift(num, {minus: 1, plus: 1}, den) == num * minus * (
            x1 + 2 * x2) * (x1 + 3 * x2)
        assert powers == [(minus, 1), (x1 + 2 * x2, 1), (x1 + 3 * x2, 1)]
        assert sum_pairs(2, [(num, {}), (x2, den)]) == (lifted + x2, den)
        assert pairs_equal((num, {}), (lifted, den))
        assert not pairs_equal((num, {}), (lifted + x2**4, den))
