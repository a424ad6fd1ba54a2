"""Catalog construction and integrity tests."""

import math
from fractions import Fraction

import pytest

from multider.coxeter import (
    CatalogError,
    _check_anti_invariance,
    build_system,
    catalog_entries,
    get_system,
    parse_key,
    symmetric_polys,
)
from multider.exactpoly import Poly, is_constant_multiple, rat_det, rat_mat_mul

x1 = Poly.variable(2, 0)
x2 = Poly.variable(2, 1)


def _product(polys):
    out = Poly.const(2, 1)
    for p in polys:
        out = out * p
    return out


def test_b2_catalog_entry():
    s = get_system("B2")
    assert s.invariants[0] == (x1**2 + x2**2) * Fraction(1, 2)
    assert s.invariants[1] == (x1**4 + x2**4) * Fraction(1, 4)
    assert s.h == 4 and s.exponents == (1, 3)
    assert s.gram == ((1, 0), (0, 1))
    assert s.num_hyperplanes == 4


def test_b2_defining_polynomial():
    s = get_system("B2")
    assert is_constant_multiple(s.q_poly, x1 * x2**3 - x1**3 * x2) in (1, -1)
    assert len(s.factors) == 4
    assert _product(s.factors) == s.q_poly


def test_a1_rank_one():
    s = get_system("A1")
    y = Poly.variable(1, 0)
    assert s.q_poly == y
    assert s.invariants[0] == 2 * y**2
    assert s.h == 2 and s.exponents == (1,)


def test_b3_hyperplane_count():
    s = get_system("B3")
    assert s.num_hyperplanes == 9  # 3 coordinate forms + 2 * C(3,2)
    assert sum(s.exponents) == 9
    assert s.h == 6


@pytest.mark.parametrize("key,exponents,h,count", [
    ("A2", (1, 2), 3, 3),
    ("A3", (1, 2, 3), 4, 6),
    ("A4", (1, 2, 3, 4), 5, 10),
    ("B4", (1, 3, 5, 7), 8, 16),
    ("D3", (1, 2, 3), 4, 6),
    ("D4", (1, 3, 3, 5), 6, 12),
    ("D5", (1, 3, 4, 5, 7), 8, 20),
    ("I2(5)", (1, 4), 5, 5),
    ("I2(6)", (1, 5), 6, 6),
    ("I2(7)", (1, 6), 7, 7),
])
def test_catalog_numerology(key, exponents, h, count):
    s = get_system(key)
    assert s.exponents == exponents
    assert s.h == h
    assert s.num_hyperplanes == count
    assert sum(s.exponents) == count
    for i in range(s.rank):
        assert s.exponents[i] + s.exponents[s.rank - 1 - i] == s.h
    assert [f.degree() for f in s.invariants] == [e + 1 for e in s.exponents]


def test_d3_matches_a3_numerology():
    assert get_system("D3").exponents == get_system("A3").exponents
    assert get_system("D3").h == get_system("A3").h


@pytest.mark.parametrize("key", ["A2", "A3", "B2", "B3", "D4", "I2(5)", "I2(6)"])
def test_generator_relations(key):
    s = get_system(key)
    for g in s.generators:
        gt = tuple(tuple(g[j][i] for j in range(s.rank)) for i in range(s.rank))
        assert rat_mat_mul(rat_mat_mul(gt, s.gram), g) == s.gram
        det = rat_det(g)
        assert det in (Fraction(1), Fraction(-1))
        assert s.q_poly.substitute_linear(g) == s.q_poly * det
        for f in s.invariants:
            assert f.substitute_linear(g) == f


@pytest.mark.parametrize("key", ["A2", "A5", "I2(5)"])
def test_anti_invariance_rejects_doctored_generators(key):
    s = get_system(key)
    for g in s.generators:
        _check_anti_invariance(s, g)
    ell = s.rank
    shear = [[int(i == j or (i, j) == (0, 1)) for j in range(ell)] for i in range(ell)]
    with pytest.raises(CatalogError, match="anti-invariant"):
        _check_anti_invariance(s, shear)
    if key == "A2":
        # -1 permutes the three lines; the scales multiply to -1, det is +1
        with pytest.raises(CatalogError, match="anti-invariant"):
            _check_anti_invariance(s, [[-1, 0], [0, -1]])


def test_i2_4_is_rational_b2_rotation():
    s = get_system("I2(4)")
    assert not s.orbit_level
    assert {f.degree() for f in s.factors} == {1}
    assert len(s.generators) == 3


def test_i2_5_orbit_factors():
    s = get_system("I2(5)")
    assert s.orbit_level
    degrees = sorted(f.degree() for f in s.factors)
    assert degrees == [1, 4]
    assert s.q_poly == 5 * x1**4 * x2 - 10 * x1**2 * x2**3 + x2**5


def test_i2_6_orbit_factors():
    s = get_system("I2(6)")
    degrees = sorted(f.degree() for f in s.factors)
    assert degrees == [1, 1, 2, 2]


def _im_power(m):
    """Im((x1 + i x2)^m) by the binomial theorem."""
    return sum(
        (math.comb(m, k) * (-1) ** (k // 2) * x1 ** (m - k) * x2**k
         for k in range(1, m + 1, 2)),
        Poly.zero(2),
    )


@pytest.mark.parametrize("m", range(3, 41))
def test_dihedral_factors_multiply_to_q(m):
    s = build_system("I2", 2, m)
    assert is_constant_multiple(_product(s.factors), _im_power(m))
    # phi(d) mirror lines for each d | m, in two halves when 4 | d
    expected = []
    for d in range(1, m + 1):
        if m % d == 0:
            phi = sum(1 for j in range(1, d + 1) if math.gcd(j, d) == 1)
            expected += [phi // 2, phi // 2] if d % 4 == 0 else [phi]
    assert sorted(f.degree() for f in s.factors) == sorted(expected)


def test_dihedral_factors_match_sympy():
    # sympy is a reference here only; the package itself needs no sympy
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    for m in range(3, 41):
        # Q(t, 1), the mirror lines other than x2 = 0
        lm = sympy.Poly(sympy.expand(((t + sympy.I) ** m - (t - sympy.I) ** m)
                                     / (2 * sympy.I)), t, domain="QQ")
        _, pairs = sympy.factor_list(lm)
        assert all(mult == 1 for _, mult in pairs), m
        reference = sorted(
            tuple(Fraction(int(c.p), int(c.q)) for c in fac.monic().all_coeffs())
            for fac, _ in pairs
        )
        factors = build_system("I2", 2, m).factors
        assert x2 in factors, m
        ours = []
        for f in factors:
            if f != x2:
                d = f.degree()
                coeffs = [f.coefficient((e, d - e)) for e in range(d, -1, -1)]
                ours.append(tuple(c / coeffs[0] for c in coeffs))
        assert sorted(ours) == reference, m


def test_symmetric_polys():
    assert symmetric_polys("complete_sq", 1, 2) == x1**2 + x2**2
    assert not symmetric_polys("complete_sq", -2, 4)
    assert symmetric_polys("complete_sq", 0, 3) == Poly.const(3, 1)
    assert symmetric_polys("complete_sq", 2, 2) == x1**4 + x1**2 * x2**2 + x2**4
    e2 = symmetric_polys("elementary", 2, 3)
    y = [Poly.variable(3, i) for i in range(3)]
    assert e2 == y[0] * y[1] + y[0] * y[2] + y[1] * y[2]
    for kind in ("nope", "power_sum"):
        with pytest.raises(ValueError, match="unknown symmetric polynomial kind"):
            symmetric_polys(kind, 1, 2)


def test_parse_key():
    assert parse_key("B3") == ("B", 3, None)
    assert parse_key("I2(11)") == ("I2", 2, 11)
    with pytest.raises(KeyError):
        parse_key("E8")


def test_unsupported_rejected():
    with pytest.raises(ValueError):
        build_system("D", 2)
    with pytest.raises(ValueError):
        build_system("I2", 2, 2)
    with pytest.raises(ValueError):
        build_system("I2", 3, 5)
    with pytest.raises(ValueError):
        build_system("Q", 3)


def test_catalog_entries_listing():
    keys = [s.key for s in catalog_entries()]
    assert "B2" in keys and "A1" in keys and "D4" in keys and "I2(5)" in keys
