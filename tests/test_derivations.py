"""Pipeline tests: primitive derivation, iterated application, P_m, B^(k).

The B2 expectations are the hand-derived fixtures from multider.golden;
everything there was computed independently of this code path.
"""

from fractions import Fraction

import pytest

from multider import golden
from multider.coxeter import get_system, symmetric_polys
from multider.derivations import (
    apply_derivation,
    b_matrix,
    clear_caches,
    iterate_dkx,
    jacobian,
    jdkx,
    jdkx_det_constant,
    p_matrix,
    primitive_dx,
)
from multider.exactpoly import ArrFrac, Matrix, Poly, is_constant_multiple
from multider.verify import verify_recursion

x1 = Poly.variable(2, 0)
x2 = Poly.variable(2, 1)


def frac(num, system, power=1):
    return ArrFrac(num, {f: power for f in system.factors})


def test_primitive_dx_b2():
    s = get_system("B2")
    dx = primitive_dx(s)
    # bottom row of J(f)^{-1} = (-x2, x1) / det J(f)
    inv_c = 1 / s.det_jf_constant
    assert dx[0] == frac(-x2 * inv_c, s)
    assert dx[1] == frac(x1 * inv_c, s)


def test_primitive_dx_kills_lower_invariants():
    s = get_system("B2")
    dx = primitive_dx(s)
    vals = [apply_derivation(f, dx) for f in s.invariants]
    assert vals[0] == ArrFrac.from_poly(Poly.zero(2))
    assert vals[1] == ArrFrac.from_poly(Poly.const(2, 1))


def test_primitive_dx_rank_one():
    b1 = get_system("B1")  # f = x^2/2, so D = (1/x) d/dx
    y = Poly.variable(1, 0)
    assert primitive_dx(b1)[0] == ArrFrac(Poly.const(1, 1), {y: 1})
    a1 = get_system("A1")  # f = 2 x^2, so D = (1/(4x)) d/dx
    assert primitive_dx(a1)[0] == ArrFrac(Poly.const(1, Fraction(1, 4)), {y: 1})


def test_apply_derivation_degree_law():
    s = get_system("B2")
    dx = primitive_dx(s)
    assert dx[0].degree() == 1 - s.h
    p = frac(x2**3, s)  # homogeneous of degree -1
    dp = apply_derivation(p, dx)
    assert dp.degree() == p.degree() - s.h


def test_apply_derivation_leibniz_on_q_squared():
    s = get_system("B2")
    dx = primitive_dx(s)
    q = ArrFrac.from_poly(s.q_poly)
    lhs = apply_derivation(q * q, dx)
    rhs = 2 * (q * apply_derivation(q, dx))
    assert lhs == rhs
    assert lhs.degree() == 2 * s.q_poly.degree() - s.h


def test_iterate_dkx():
    s = get_system("B2")
    d0 = iterate_dkx(s, 0)
    assert d0[0] == ArrFrac.from_poly(x1) and d0[1] == ArrFrac.from_poly(x2)
    assert iterate_dkx(s, 1) == primitive_dx(s)
    d2 = iterate_dkx(s, 2)
    for e in d2:
        assert e.degree() == 1 - 2 * s.h


def test_iterate_memoization_transparency():
    s = get_system("B3")
    warm = [str(e) for e in iterate_dkx(s, 2)]
    clear_caches()
    cold = [str(e) for e in iterate_dkx(s, 2)]
    assert warm == cold


def test_jacobian_of_invariants_b2():
    s = get_system("B2")
    assert s.jacobian_of_invariants() == golden.b2_p1_matrix()


def test_jacobian_of_coordinates_is_identity():
    s = get_system("B3")
    j = jacobian(iterate_dkx(s, 0))
    assert j == Matrix.identity(3, 3, frac=True)


def test_jdx_b2_fixture():
    s = get_system("B2")
    q2 = golden.b2_q_poly() ** 2
    got = jdkx(s, 1).map(lambda e: (e * q2).as_poly())
    assert got == golden.b2_jdx_times_q2()


def test_jdkx_entry_degrees():
    s = get_system("B2")
    for k in (1, 2):
        jk = jdkx(s, k)
        for i in range(2):
            for j in range(2):
                e = jk[i][j]
                if e:
                    assert e.degree() == -k * s.h


def test_det_jdkx_constants_b2():
    s = get_system("B2")
    assert jdkx_det_constant(s, 0) == 1
    assert jdkx_det_constant(s, 1) == golden.B2_DET_JDX_TIMES_Q2
    c2 = jdkx_det_constant(s, 2)
    assert c2 != 0
    # determinism across cache clears
    clear_caches()
    assert jdkx_det_constant(s, 2) == c2


def test_p0_is_gram():
    s = get_system("B2")
    b = p_matrix(s, 0)
    assert b.matrix == Matrix.identity(2, 2)
    assert b.degrees == (0, 0)
    a2 = get_system("A2")
    assert p_matrix(a2, 0).matrix == a2.gram_matrix()


def test_p1_b2():
    s = get_system("B2")
    b = p_matrix(s, 1)
    assert b.matrix == golden.b2_p1_matrix()
    assert b.degrees == (1, 3)


def test_p3_b2_equals_reference():
    s = get_system("B2")
    b = p_matrix(s, 3)
    assert b.matrix == golden.b2_p3_matrix()
    assert b.degrees == (5, 7)


def test_det_p3_constant():
    s = get_system("B2")
    p3 = p_matrix(s, 3).matrix
    det = p3[0][0] * p3[1][1] - p3[0][1] * p3[1][0]
    assert is_constant_multiple(det, s.q_poly**3) == golden.B2_DET_P3_OVER_CATALOG_Q3


def test_d4_even_column_degrees():
    s = get_system("D4")
    b = p_matrix(s, 2)
    assert b.degrees == (6, 6, 6, 6)


def direct_formula_holds(s, m):
    """P_m = Gram J(D^k x)^{-1} (times J(f) for odd m), k = m // 2, checked as
    P_{2k} J(D^k x) = Gram and P_m = P_{2k} J(f); J(D^k x) is invertible, so
    this is equivalent to comparing with the inverted formula."""
    k = m // 2
    p_even = p_matrix(s, 2 * k).matrix
    if p_even.to_frac() @ jdkx(s, k) != s.gram_matrix(frac=True):
        return False
    return m % 2 == 0 or p_matrix(s, m).matrix == p_even @ s.jacobian_of_invariants()


@pytest.mark.parametrize("key", ["B2", "A2", "I2(5)"])
def test_recursive_equals_direct(key):
    s = get_system(key)
    for m in range(6):
        assert verify_recursion(s, m).status == "pass", m
        assert direct_formula_holds(s, m), m


def test_recursive_odd_rule():
    s = get_system("B3")
    p1 = p_matrix(s, 1)
    assert p1.matrix == s.gram_matrix() @ s.jacobian_of_invariants()
    for m in (1, 3):
        assert p_matrix(s, m).matrix == p_matrix(s, m - 1).matrix @ s.jacobian_of_invariants()
        assert verify_recursion(s, m).status == "pass", m
        assert direct_formula_holds(s, m), m


def test_b1_type_b_formula():
    for rank in (2, 3, 4):
        s = get_system(f"B{rank}")
        assert b_matrix(s, 1).matrix == golden.type_b_b1_matrix(rank)


def test_bk_type_b_formula():
    # entries {k(2i+2j-2) - 2i + 1} * htilde_{i+j-l-1}
    for rank in (2, 3):
        s = get_system(f"B{rank}")
        for k in (2, 3):
            mat = b_matrix(s, k, route="closed_form").matrix
            for i in range(1, rank + 1):
                for j in range(1, rank + 1):
                    coeff = k * (2 * i + 2 * j - 2) - 2 * i + 1
                    want = coeff * symmetric_polys("complete_sq", i + j - rank - 1, rank)
                    assert mat[i - 1][j - 1] == want


def test_b_routes_agree():
    for key in ("B2", "A3"):
        s = get_system(key)
        for k in (1, 2, 3):
            assert (b_matrix(s, k, "definition").matrix
                    == b_matrix(s, k, "closed_form").matrix)


def test_b_rejects_bad_k():
    s = get_system("B2")
    with pytest.raises(ValueError):
        b_matrix(s, 0)
    with pytest.raises(ValueError):
        b_matrix(s, 1, route="guess")
