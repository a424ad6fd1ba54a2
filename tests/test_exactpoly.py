"""Unit tests for the exact polynomial layer."""

import math
from fractions import Fraction

import pytest

from multider.coxeter import get_system
from multider.exactpoly import (
    Matrix,
    Poly,
    canonical_factor,
    divide_exact,
    is_constant_multiple,
    mat_det_adj,
    poly_from_records,
    poly_to_records,
    power_divides,
    signed_permutation,
    strip_factor,
)


x1 = Poly.variable(2, 0)
x2 = Poly.variable(2, 1)


def test_difference_of_squares():
    assert (x1 + x2) * (x1 - x2) == x1**2 - x2**2


def test_scale_by_zero_annihilates():
    p = x1 * x2**3
    assert not p * 0
    assert len(p * 0) == 0


def test_b2_defining_polynomial_expands():
    q = x1 * x2 * (x1 + x2) * (x2 - x1)
    assert q == x1 * x2**3 - x1**3 * x2


def test_power_rule():
    assert (x1**4 * Fraction(1, 4)).diff(0) == x1**3


def test_derivative_of_b2_q():
    q = x1 * x2**3 - x1**3 * x2
    assert q.diff(1) == 3 * x1 * x2**2 - x1**3


def test_derivative_of_constant_is_zero():
    assert not Poly.const(2, 7).diff(0)


def test_derivative_index_range():
    with pytest.raises(ValueError):
        x1.diff(2)


def test_variable_count_mismatch_rejected():
    with pytest.raises(ValueError):
        x1 + Poly.variable(3, 0)
    with pytest.raises(ValueError):
        x1 * Poly.variable(3, 0)


def test_mul_of_homogeneous_is_homogeneous():
    a = x1**2 + x1 * x2
    b = x2**3 - x1 * x2**2
    p = a * b
    assert p.is_homogeneous() and p.degree() == 5


def test_divide_exact_basic():
    assert divide_exact(x1**2 - x2**2, x1 - x2) == x1 + x2


def test_divide_exact_monomial_divisor():
    num = x1**3 * (x1**2 - 5 * x2**2)
    assert divide_exact(num, x1**3) == x1**2 - 5 * x2**2


def test_divide_exact_not_divisible():
    assert divide_exact(x1**2 + x2**2, x1 + x2) is None


def test_divide_exact_by_zero():
    with pytest.raises(ZeroDivisionError):
        divide_exact(x1, Poly.zero(2))


def test_divide_exact_many_variable_form():
    # three-term divisor goes through the general heap kernel
    y = [Poly.variable(3, i) for i in range(3)]
    div = 2 * y[0] + y[1] + y[2]
    q = y[0] ** 2 - y[1] * y[2]
    assert divide_exact(q * div, div) == q


def test_substitute_invariance_and_antiinvariance():
    f1 = (x1**2 + x2**2) * Fraction(1, 2)
    flip = [[-1, 0], [0, 1]]
    assert f1.substitute_linear(flip) == f1
    swap = [[0, 1], [1, 0]]
    assert x1.substitute_linear(swap) == x2
    q = x1 * x2**3 - x1**3 * x2
    assert q.substitute_linear(flip) == -q


def test_substitute_general_matrix():
    m = [[1, 1], [0, 1]]  # x1 -> x1, x2 -> x1 + x2
    assert (x1 * x2).substitute_linear(m) == x1 * (x1 + x2)


def test_substitute_against_term_by_term_expansion():
    # images with different denominators, and a constant term
    y = [Poly.variable(3, i) for i in range(3)]
    p = (y[0] - 2 * y[1]) ** 3 * y[2] * Fraction(1, 3) + y[1] ** 2 + y[0] * y[2] ** 2 \
        - Fraction(5, 7)
    g = [[Fraction(1, 2), 1, 0], [Fraction(1, 3), 0, 2], [0, -1, Fraction(3, 4)]]
    images = [sum((y[i] * g[i][j] for i in range(3)), Poly.zero(3)) for j in range(3)]
    expect = Poly.zero(3)
    for exps, c in p.items():
        term = Poly.const(3, c)
        for img, e in zip(images, exps):
            term = term * img**e
        expect = expect + term
    assert p.substitute_linear(g) == expect
    assert p.substitute_polys(images) == expect


def test_substitute_size_mismatch():
    with pytest.raises(ValueError):
        x1.substitute_linear([[1]])
    with pytest.raises(ValueError):
        x1.rekey(((0, 1),))


def test_signed_permutation_reads_images_or_refuses():
    assert signed_permutation([[0, -1], [1, 0]]) == ((1, 1), (0, -1))
    assert signed_permutation([[Fraction(-1), 0], [0, Fraction(1)]]) == ((0, -1), (1, 1))
    # a general matrix, a scaled entry, a repeated row and a zero column
    for matrix in ([[1, 1], [0, 1]], [[2, 0], [0, 1]], [[1, 1], [0, 0]], [[1, 0], [0, 0]]):
        assert signed_permutation(matrix) is None
    # x1 -> x2, x2 -> -x1, times -1
    assert (x1 * x2**2 + x1).rekey(((1, 1), (0, -1)), -1) == -(x2 * x1**2 + x2)


def test_is_constant_multiple():
    q = x1 * x2**3 - x1**3 * x2
    assert is_constant_multiple(2 * q, q) == 2
    assert is_constant_multiple(x1**2, x2**2) is None
    assert is_constant_multiple(Poly.zero(2), Poly.zero(2)) == 1
    assert is_constant_multiple(Poly.zero(2), q) is None
    assert is_constant_multiple(q, Poly.zero(2)) is None


def test_graded_lex_term_order():
    p = x2**3 + x1 + x1 * x2 + Poly.const(2, 1)
    exps = [e for e, _ in p.items()]
    assert exps == [(0, 3), (1, 1), (1, 0), (0, 0)]


def test_leading_term():
    p = 5 * x1 * x2**2 - x2**3
    assert p.leading() == ((1, 2), Fraction(5))


def test_pow():
    assert (x1 + x2) ** 3 == x1**3 + 3 * x1**2 * x2 + 3 * x1 * x2**2 + x2**3
    assert (x1 + x2) ** 0 == Poly.const(2, 1)


def test_canonical_factor():
    f, s = canonical_factor(x2 - x1)
    assert f == x1 - x2 and s == -1
    f, s = canonical_factor(Fraction(1, 2) * x1 + Fraction(1, 4) * x2)
    assert f == 2 * x1 + x2 and s == Fraction(1, 4)


def test_matrix_det_adj_identity():
    ident = Matrix.identity(3, 2)
    det, adj = mat_det_adj(ident)
    assert det == Poly.const(2, 1)
    assert adj == ident


def test_matrix_det_adj_b2_jacobian():
    j = Matrix([[x1, x1**3], [x2, x2**3]])
    det, adj = mat_det_adj(j)
    assert det == x1 * x2**3 - x1**3 * x2
    prod = j @ adj
    zero = Poly.zero(2)
    assert prod == Matrix([[det, zero], [zero, det]])


def test_matrix_det_adj_singular():
    one = Poly.const(2, 1)
    m = Matrix([[one, one], [one, one]])
    det, adj = mat_det_adj(m)
    assert not det
    # classical adjugate is still valid: M @ adj == 0 == det * I
    prod = m @ adj
    assert all(not prod[i][j] for i in range(2) for j in range(2))


def test_serialization_roundtrip():
    p = x1 * x2**3 - Fraction(7, 3) * x1**3 * x2
    recs = poly_to_records(p)
    assert recs[0] == {"coefficient": "-7/3", "exponents": [3, 1]}
    assert poly_from_records(recs, 2) == p


def test_euler_identity_example():
    q = x1 * x2**3 - x1**3 * x2
    assert x1 * q.diff(0) + x2 * q.diff(1) == 4 * q


# -- the integer representation: integer terms over one denominator ----------


def assert_canonical(p):
    """Integer terms over one positive denominator, coprime to all of them."""
    assert type(p._d) is int and p._d > 0
    assert all(type(v) is int and v for v in p._t.values())
    assert math.gcd(p._d, *p._t.values()) == 1
    if not p:
        assert p._d == 1


half = Fraction(1, 2)
a = x1 * Fraction(2, 3) - x2 * Fraction(5, 6)
b = x1 * x2 * Fraction(3, 4) + Fraction(1, 6)


@pytest.mark.parametrize("p", [
    a + b, a - b, b - b, a + a, a * Fraction(3, 2), a * -6, a * 0, -a,
    a * b, a**3, (x1 * Fraction(1, 6)) + (x1 * Fraction(1, 3)),
    (x1 * half + x2 * Fraction(1, 3)) - x2 * Fraction(1, 3),
    (x1**2 * half).diff(0), b.diff(0), (x1**3 * Fraction(1, 6)).diff(0),
    a.substitute_linear([[0, -1], [1, 0]]),
    a.substitute_linear([[half, 1], [Fraction(1, 3), 2]]),
    b.substitute_polys([a, x2 * 4]),
    canonical_factor(a)[0],
], ids=lambda p: str(p))
def test_operations_keep_the_canonical_form(p):
    assert_canonical(p)


@pytest.mark.parametrize("num,div", [
    # constant divisors, with a denominator and a negative sign
    (a * b, Poly.const(2, Fraction(-3, 4))),
    (a, Poly.const(2, 6)),
    # monomial divisors
    (x1**2 * x2 * Fraction(2, 3), x1 * x2 * Fraction(4, 5)),
    (x1**3 * (x1**2 - 5 * x2**2), -2 * x1**3),
    # linear forms: non-primitive, fractional, leading coefficient not 1
    ((x1 - 2 * x2) * (x1 + x2) * Fraction(3, 7), (x1 - 2 * x2) * Fraction(6, 5)),
    ((3 * x1 + 2 * x2) ** 2 * b, 3 * x1 + 2 * x2),
    (a * (x2 - x1), x2 - x1),
    # general divisors, the kernel of the dihedral orbit factors
    (b * (3 * x1**2 - x2**2), (3 * x1**2 - x2**2) * Fraction(2, 3)),
    ((3 * x1**2 - x2**2) * Fraction(1, 3), 3 * x1**2 - x2**2),
    (a * (x1**3 - 3 * x1 * x2**2 + x2**3), -(x1**3 - 3 * x1 * x2**2 + x2**3)),
])
def test_division_paths_keep_the_canonical_form(num, div):
    q = divide_exact(num, div)
    assert q is not None and q * div == num
    assert_canonical(q)


@pytest.mark.parametrize("num,div", [
    (x1**2 + x2**2, 2 * x1 + x2),
    (x1**2 * Fraction(1, 3), 3 * x1**2 - x2**2),
    # the leading coefficient 2 does not divide 3, though every key does
    (3 * x1 + 1, 2 * x1 + 1),
    (x1 * x2 + 1, x1 + x2),
    (x1 * x2, x1**2),
])
def test_division_paths_reject_non_multiples(num, div):
    assert divide_exact(num, div) is None


def _divisors():
    """Divisors with content, with a denominator, a monomial with content and
    the orbit factor of I2(5), bare and scaled."""
    orbit = next(f for f in get_system("I2(5)").factors if f.degree() > 1)
    return [2 * x1 - 4 * x2, (x1 + x2) * Fraction(1, 3), 3 * x1**2, orbit,
            orbit * Fraction(-2, 7)]


@pytest.mark.parametrize("index", range(5))
def test_divide_exact_against_multiply_back(index):
    div = _divisors()[index]
    for q0 in (Poly.const(2, Fraction(5, 6)), x1 * Fraction(2, 3) - x2,
               (x1 + 2 * x2) ** 3 * Fraction(1, 4) + x1 * x2**2):
        num = q0 * div
        q = divide_exact(num, div)
        assert q is not None and q * div == num and q == q0
        assert_canonical(q)
        # no divisor here divides any of these remainders, so num + r has no
        # exact quotient
        for r in (Poly.const(2, 1), x2**3, x1 * x2**4 * Fraction(1, 2)):
            assert divide_exact(num + r, div) is None


@pytest.mark.parametrize("index", range(5))
def test_strip_factor_against_repeated_division(index):
    div = _divisors()[index]
    num = div**3 * (x1 + 5 * x2) * Fraction(3, 2)
    expect, count = num, 0
    while (q := divide_exact(expect, div)) is not None:
        expect, count = q, count + 1
    assert count == 3
    assert strip_factor(num, div, 9) == (expect, 3)
    # a limit below the multiplicity stops early, at the same quotients
    q, done = strip_factor(num, div, 2)
    assert done == 2 and q == divide_exact(divide_exact(num, div), div)
    assert q * div**2 == num
    assert_canonical(q)
    assert strip_factor(num, div, 0) == (num, 0)
    assert strip_factor(Poly.zero(2), div, 4) == (Poly.zero(2), 4)


@pytest.mark.parametrize("div", [
    x1, -3 * x2, x1 - x2, x1 + x2, -x1 + x2, (x1 + x2) * Fraction(1, 3), 2 * x1 - 4 * x2,
    3 * x1 - 2 * x2, 2 * x1 + x2,
], ids=str)
def test_power_divides_against_strip_factor(div):
    # the plans for x_a, x_a -+ x_b and any other linear form; the catalog
    # factors are compared on P_m in test_saito
    for q0 in (Poly.const(2, Fraction(5, 6)), x1 * Fraction(2, 3) - x2,
               (x1 + 2 * x2) ** 3 * Fraction(1, 4) + x1 * x2**2):
        for k in range(4):
            for r in (Poly.zero(2), x2**3, Poly.const(2, 1), x1 * x2**4 * Fraction(1, 2)):
                num = div**k * q0 + r
                for lim in range(6):
                    assert power_divides(num, div, lim) == (strip_factor(num, div, lim)[1] == lim)


def test_power_divides_needs_a_homogeneous_linear_form():
    for div in (x1 * x2, x1 + 1, 3 * x1**2 - x2**2):
        with pytest.raises(ValueError, match="homogeneous linear form"):
            power_divides(x1**2, div, 1)
    # zero is divisible by every power, and every polynomial by alpha^0
    assert power_divides(Poly.zero(2), x1 - x2, 5)
    assert power_divides(x1 + 1, x1 - x2, 0)


@pytest.mark.parametrize("single", [
    Poly.const(2, Fraction(-3, 4)), x1**2 * x2 * Fraction(5, 2), Poly.const(2, 1),
], ids=str)
def test_single_term_products(single):
    other = a * b
    (exps, c), = single.items()
    expected = Poly(2, {tuple(e + f for e, f in zip(exps, oe)): c * oc
                        for oe, oc in other.items()})
    for left, right in ((single, other), (other, single)):
        got = left * right
        assert got == expected
        assert got._t is not single._t and got._t is not other._t
        assert_canonical(got)


def test_equal_polynomials_from_different_routes():
    y = Poly.variable(1, 0)
    p, q = Poly(1, {(1,): Fraction(2, 4)}), y * Fraction(1, 2)
    assert p == q and hash(p) == hash(q)
    r = (y * Fraction(1, 6) + y * Fraction(1, 3)) * (y + 1) - y**2 * half
    assert r == q and hash(r) == hash(q)
    assert Poly(2, {(0, 0): 0}) == Poly.zero(2) == a - a
    assert hash(Poly(2, {(0, 0): 0})) == hash(a - a)


def test_boundary_values_are_fractions():
    p = x1**2 * Fraction(-3, 2) + x2 * 4
    assert all(type(c) is Fraction for _, c in p.items())
    assert p.items() == [((2, 0), Fraction(-3, 2)), ((0, 1), Fraction(4))]
    assert type(p.coefficient((0, 1))) is Fraction and p.coefficient((0, 1)) == 4
    assert type(p.coefficient((1, 1))) is Fraction and p.coefficient((1, 1)) == 0
    assert p.leading() == ((2, 0), Fraction(-3, 2))
    for c in (Fraction(5, 3), Fraction(7), Fraction(0)):
        value = Poly.const(2, c).constant_value()
        assert type(value) is Fraction and value == c
    assert type(is_constant_multiple(p * Fraction(2, 9), p)) is Fraction
    assert is_constant_multiple(p * Fraction(2, 9), p) == Fraction(2, 9)
    assert canonical_factor(p) == (3 * x1**2 - 8 * x2, Fraction(-1, 2))


@pytest.mark.parametrize("p,text", [
    (x1**2 * Fraction(-3, 2) + x1 * x2 - x2 + Fraction(5, 4),
     "-3/2*x1^2 + x1*x2 - x2 + 5/4"),
    (-x1 + 1, "-x1 + 1"),
    (x1 * Fraction(1, 2) - x2**3 * Fraction(-7, 3), "7/3*x2^3 + 1/2*x1"),
    (Poly.const(2, Fraction(-1, 2)), "-1/2"),
    (Poly.const(2, -1), "-1"),
    (x1 * x2 * 12 - 1, "12*x1*x2 - 1"),
    (Poly.zero(2), "0"),
])
def test_rendering_bytes(p, text):
    assert str(p) == text
