"""Pipeline tests: primitive derivation, iterated application, P_m, B^(k).

The B2 expectations are the hand-derived fixtures from multider.golden;
everything there was computed independently of this code path.
"""

import dataclasses
from fractions import Fraction

import pytest
from oracles import (
    b1_by_product,
    b_by_definition,
    doubled_entry,
    p_step_in_full,
    perturb_p_memo,
)

from multider import cli, coxeter, golden
from multider.coxeter import catalog_entries, get_system, symmetric_polys
from multider import derivations
from multider.derivations import (
    PipelineError,
    apply_derivation,
    b_matrix,
    certify_direct_formula,
    clear_caches,
    iterate_dkx,
    jacobian,
    jdkx,
    jdkx_det_constant,
    jf_inverse,
    p_matrix,
    primitive_dx,
    saito_certificate,
)
from multider.exactpoly import (
    ArrFrac,
    Matrix,
    Poly,
    canonical_factor,
    is_constant_multiple,
    signed_permutation,
)
from multider.verify import verify_b_properties, verify_jdg_identities, verify_recursion

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


def test_jf_inverse_is_memoised_and_holds_the_primitive_derivation():
    for key in ("B2", "A3", "I2(5)"):
        s = get_system(key)
        pairs = jf_inverse(s)
        assert pairs is jf_inverse(s)
        # read-only: a caller cannot corrupt the memo or Q's factor map
        assert isinstance(pairs, tuple) and all(isinstance(row, tuple) for row in pairs)
        with pytest.raises(TypeError):
            pairs[0][0][1][next(iter(s.q_factor_map))] = 9
        assert pairs[0][0][1] is not s.q_factor_map
        ell = s.rank
        inv = Matrix([[ArrFrac(*pair) for pair in row] for row in pairs])
        one = Matrix.identity(ell, ell)
        assert s.jacobian_of_invariants() @ inv == one
        assert inv @ s.jacobian_of_invariants() == one
        assert primitive_dx(s) == tuple(inv[ell - 1])


def test_jdg_f_reads_the_memoised_inverse(monkeypatch):
    # P_4 is built first: its even steps invert B^(1) and B^(2), and the
    # jdg(dx) records read it
    s = get_system("B3")
    jf_inverse(s)
    p_matrix(s, 4)

    def broken(*args, **kwargs):
        raise AssertionError("J(f) was inverted again")

    monkeypatch.setattr(derivations, "mat_det_adj", broken)
    recs = [r for r in verify_jdg_identities(s) if r.name.startswith("jdg(f)")]
    assert [r.status for r in recs] == ["pass"] * 3


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


def _term_by_term(p, dx):
    """Reference for apply_derivation: sum_j dx_j * p.diff(j), every
    operation reduced on its own."""
    acc = ArrFrac.from_poly(Poly.zero(p.nvars))
    for j, coeff in enumerate(dx):
        acc = acc + coeff * p.diff(j)
    return acc


def _fused_matches_reference(p, dx):
    fused = apply_derivation(p, dx)
    assert fused == _term_by_term(p, dx)
    assert str(fused) == str(_term_by_term(p, dx))
    return fused


def test_fused_apply_derivation_on_a_polynomial():
    s = get_system("B3")
    dp = _fused_matches_reference(ArrFrac.from_poly(s.q_poly), primitive_dx(s))
    assert not dp.is_polynomial()


def test_fused_apply_derivation_on_poles_along_several_factors():
    s = get_system("B2")
    dx = primitive_dx(s)
    p = ArrFrac(x1**3 + x1 * x2**2 + x2**3,
                {f: e for f, e in zip(s.factors, (1, 2, 3, 1))})
    assert len(p.den) == 4
    _fused_matches_reference(p, dx)
    _fused_matches_reference(iterate_dkx(s, 2)[1], dx)


def test_fused_apply_derivation_on_an_orbit_factor():
    s = get_system("I2(5)")  # factors: the quartic orbit of four mirrors, and x2
    orbit = next(f for f in s.factors if f.degree() > 1)
    dx = primitive_dx(s)
    assert orbit in dx[0].den
    _fused_matches_reference(ArrFrac(x1 * x2, {orbit: 2}), dx)
    _fused_matches_reference(iterate_dkx(s, 1)[1], dx)


def test_fused_apply_derivation_with_a_zero_component():
    s = get_system("B2")
    dx = (primitive_dx(s)[0], ArrFrac.from_poly(Poly.zero(2)))
    p = iterate_dkx(s, 1)[0]
    assert p.diff(1)  # the zero component drops a nonzero term
    _fused_matches_reference(p, dx)


def test_fused_apply_derivation_cancels_to_a_polynomial():
    s = get_system("B3")
    dx = primitive_dx(s)
    # D f_l = 1 and D f_1 = 0, although every dx_j has poles along Q
    assert _fused_matches_reference(s.invariants[-1], dx) == ArrFrac.from_poly(Poly.const(3, 1))
    assert _fused_matches_reference(s.invariants[0], dx) == ArrFrac.from_poly(Poly.zero(3))


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
    assert j == Matrix.identity(3, 3)


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


def product_identity_holds(s, k, p_even):
    """P_{2k} J(D^k x) = Gram by one product over fractions, the certificate
    of the direct formula before D[P_{2k-1}] C_{2k} = -P_{2k-2}."""
    return p_even.to_frac() @ jdkx(s, k) == s.gram_matrix()


def direct_formula_holds(s, m):
    """P_m = Gram J(D^k x)^{-1} (times J(f) for odd m), k = m // 2, checked as
    P_{2k} J(D^k x) = Gram and P_m = P_{2k} J(f); J(D^k x) is invertible, so
    this is equivalent to comparing with the inverted formula."""
    k = m // 2
    p_even = p_matrix(s, 2 * k).matrix
    if not product_identity_holds(s, k, p_even):
        return False
    return m % 2 == 0 or p_matrix(s, m).matrix == p_even @ s.jacobian_of_invariants()


@pytest.mark.parametrize("key", ["B2", "A2", "I2(5)"])
def test_recursive_equals_direct(key):
    s = get_system(key)
    for m in range(6):
        assert verify_recursion(s, m).status == "pass", m
        assert direct_formula_holds(s, m), m


def _certificate_holds(s, k, p_even):
    """certify_direct_formula from scratch: its record of the identity is
    dropped first."""
    derivations._cache.pop(("direct", s.key, k), None)
    try:
        certify_direct_formula(s, k, p_even)
    except PipelineError:
        return False
    return True


@pytest.mark.parametrize("key, top", [
    ("B2", 8), ("A3", 8), ("B3", 8), ("D3", 8), ("B4", 4), ("D4", 4)])
def test_certificate_agrees_with_the_product_identity(key, top):
    # oracle: D[P_{2k-1}] C_{2k} = -P_{2k-2} with P_{2k} = P_{2k-1} C_{2k}
    # holds exactly where P_{2k} J(D^k x) = Gram does, on a doctored copy of
    # P_{2k} (neither) and on the memoised P_{2k} (both)
    s = get_system(key)
    for k in range(1, top // 2 + 1):
        p_even = p_matrix(s, 2 * k).matrix
        for mat in (doubled_entry(p_even), p_even):
            holds = product_identity_holds(s, k, mat)
            assert _certificate_holds(s, k, mat) == holds, (k, holds)
        assert holds, k


def test_direct_formula_is_recorded_with_its_objects(monkeypatch):
    # building P_4 certifies C(1) alone; the first reader certifies C(2) and
    # records it, and a second reader recomputes nothing.  A copy of P_4 is
    # another object: it is checked against P_3 C_4, while the identity
    # D[P_3] C_4 = -P_2, which does not involve P_4, is read from the record.
    clear_caches()
    s = get_system("B2")
    p4 = p_matrix(s, 4).matrix
    assert ("direct", s.key, 1) in derivations._cache
    assert ("direct", s.key, 2) not in derivations._cache
    assert verify_recursion(s, 4).status == "pass"
    assert derivations._cache[("direct", s.key, 2)][0][0] is p_matrix(s, 3).matrix
    assert derivations._cache[("product", s.key, 2)][0][0] is p4

    def broken(*args, **kwargs):
        raise AssertionError("the identity was recomputed")

    monkeypatch.setattr(derivations, "apply_derivation", broken)
    assert verify_recursion(s, 4).status == "pass"
    certified = {"b(1).def_eq_closed", "b(1).difference", "b(1).closed_formula"}
    recs = [r for r in verify_b_properties(s, 1) if r.name in certified]
    assert [r.status for r in recs] == ["pass"] * 3
    certify_direct_formula(s, 2, Matrix([[p4[i][j] for j in range(2)] for i in range(2)]))
    with pytest.raises(PipelineError, match=r"entry \(1,1\) of P_4 is .*, expected P_3 C_4 = "):
        certify_direct_formula(s, 2, doubled_entry(p4))
    certify_direct_formula(s, 2, p4)
    # another memoised P_2 is another input of the identity, run again on it
    monkeypatch.undo()
    perturb_p_memo(monkeypatch, s, 2)
    with pytest.raises(PipelineError, match=r"entry \(1,1\) of D\[P_3\] C_4 is"):
        certify_direct_formula(s, 2, p4)


@pytest.mark.parametrize("key, top", [("B2", 3), ("A3", 2), ("D4", 2)])
def test_reader_of_the_memoised_p_even_forms_no_product(monkeypatch, key, top):
    # p_matrix records the P_{2k-1} and C_{2k} it multiplied, so a reader
    # handed the memoised P_{2k} certifies C(k) without P_{2k-1} C_{2k};
    # a copy of P_{2k} is another object, checked by that product
    clear_caches()
    s = get_system(key)
    p_matrix(s, 2 * top)
    factors = {k: (p_matrix(s, 2 * k - 1).matrix, derivations.step_matrix(s, 2 * k))
               for k in range(1, top + 1)}
    real = Matrix.__matmul__
    products = []

    def recorded(a, b):
        products.append((a, b))
        return real(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", recorded)
    assert verify_recursion(s, 2 * top).status == "pass"
    assert not any(a is p_odd and b is step
                   for a, b in products for p_odd, step in factors.values())
    p_even = p_matrix(s, 2 * top).matrix
    certify_direct_formula(s, top, Matrix([list(p_even[i]) for i in range(s.rank)]))
    assert any(a is factors[top][0] and b is factors[top][1] for a, b in products)


# the steps of P_m that the orbit fill covers, and the top m of each within
# the tier-1 budget (A4 at m 8 takes about 1 s with its oracle products)
FILL_CASES = [("A1", 8), ("A2", 8), ("A3", 8), ("A4", 8), ("B2", 8), ("B3", 8), ("B4", 8),
              ("D3", 8), ("D4", 8), ("B5", 4), ("D5", 4)] + [
              (f"I2({n})", 8) for n in range(3, 9)]


@pytest.mark.parametrize("key, top", FILL_CASES)
def test_orbit_filled_steps_equal_the_full_product(key, top):
    # every entry off the representatives is a representative re-keyed;
    # the full product P_{m-1} C_m is the oracle, at odd and even m
    s = get_system(key)
    for m in range(1, top + 1):
        assert p_matrix(s, m).matrix == p_step_in_full(s, m), m


def test_orbit_fill_carries_the_signs_of_the_element(monkeypatch):
    # the breadth-first transversals of the stored generators reach every
    # catalog position with s_a s_b = 1 (and s_a = 1); the rotation x1 ->
    # x2, x2 -> -x1 of W(B2) alone reaches (1, 0) from (0, 1) with sign -1
    # and row 1 from row 0 with sign -1, so the fill must carry them
    s = get_system("B2")
    clear_caches()
    rotation = ((1, -1), (0, 1))
    transversals = tuple(coxeter._transversal(2, (rotation,), parity) for parity in (0, 1))
    signs = {sign for transversal in transversals
             for _, fills in transversal for _, _, sign in fills}
    assert signs == {1, -1}
    # the rotation keeps the factor orbits {x1, x2} and {x1 - x2, x1 + x2}
    monkeypatch.setattr(s, "signed_generators", (rotation,))
    monkeypatch.setattr(s, "transversals", transversals)
    for m in range(1, 5):
        assert p_matrix(s, m).matrix == p_step_in_full(s, m), m
    assert saito_certificate(s, p_matrix(s, 4)).witness is None
    clear_caches()


def _orbits_by_union(system):
    """The orbits of the signed-permutation generators on the factors,
    as the classes of the relation f ~ g[f] (a union-find)."""
    factors = system.factors
    index = {f: i for i, f in enumerate(factors)}
    parent = list(range(len(factors)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for g in system.generators:
        if signed_permutation(g) is None:
            continue
        for i, f in enumerate(factors):
            parent[root(i)] = root(index[canonical_factor(f.substitute_linear(g))[0]])
    classes = {}
    for i in range(len(factors)):
        classes.setdefault(root(i), []).append(i)
    return sorted(tuple(c) for c in classes.values())


@pytest.mark.parametrize("key", [s.key for s in catalog_entries()])
def test_factor_orbits_partition_the_factors(key):
    s = get_system(key)
    orbits = s.factor_orbits
    assert sorted(i for orbit in orbits for i in orbit) == list(range(len(s.factors)))
    assert sorted(orbits) == _orbits_by_union(s)
    # A: the x_i - x_j and the wide forms; B: the x_i and the x_i +- x_j;
    # D: one orbit
    expected = {"A": 2, "B": 2, "D": 1}.get(s.family)
    if expected is not None and s.rank >= 2:
        assert len(orbits) == expected


def test_a_catalog_entry_builds_its_orbit_data_once(monkeypatch, capsys):
    # the factor orbits and the transversals are fields of the entry, so a
    # cold request after clear_caches searches no orbit again
    for key in ("B4", "B2"):
        get_system(key)

    def search(*args):
        raise AssertionError("an orbit search after the entry was built")

    monkeypatch.setattr(coxeter, "_orbits", search)
    monkeypatch.setattr(coxeter, "_transversal", search)
    for argv in (["basis", "B4", "--m", "3"], ["verify", "B2", "--m", "3"]):
        clear_caches()
        assert cli.main(argv) == 0, argv
    capsys.readouterr()


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
        assert b_matrix(s, 1) == golden.type_b_b1_matrix(rank)


def test_bk_type_b_formula():
    # entries {k(2i+2j-2) - 2i + 1} * htilde_{i+j-l-1}
    for rank in (2, 3):
        s = get_system(f"B{rank}")
        for k in (2, 3):
            mat = b_matrix(s, k)
            for i in range(1, rank + 1):
                for j in range(1, rank + 1):
                    coeff = k * (2 * i + 2 * j - 2) - 2 * i + 1
                    want = coeff * symmetric_polys("complete_sq", i + j - rank - 1, rank)
                    assert mat[i - 1][j - 1] == want


def test_b_routes_agree():
    # the closed form against the definition, which the package certifies
    # through the product identities instead of computing it
    for key in ("B2", "B3", "D4", "A3"):
        s = get_system(key)
        for k in (1, 2, 3, 4):
            assert b_matrix(s, k) == b_by_definition(s, k), (key, k)


@pytest.mark.parametrize("s", catalog_entries(max_rank=4), ids=lambda s: s.key)
def test_b1_equals_the_definition(s):
    # oracle: the interpolated B^(1) against the definition -J(f)^T Gram
    # J(D x) J(f), formed in full over fractions
    assert b_matrix(s, 1) == b_by_definition(s, 1)


@pytest.mark.parametrize("s", catalog_entries(max_rank=4) + [get_system(k) for k in ("B5", "D5")],
                         ids=lambda s: s.key)
def test_b1_interpolation_equals_the_product(s):
    # oracle: the product J(f)^T D[P_1] over fractions that the
    # interpolation in f_1, ..., f_{l-1} replaced (A5 is left to the CI
    # digest of bmatrix A5 --k 1: its product takes about a second)
    clear_caches()
    assert b_matrix(s, 1) == b1_by_product(s)
    clear_caches()


# candidates on B3: x1 = x2 is a mirror, and f_1, f_2 have degrees 2 and 4,
# so the row (f_1^2, f_2) of the two monomials of degree 4 at (4, 6, 10) is
# 16 times the row at (2, 3, 5)
_ON_A_MIRROR, _GOOD, _SINGULAR, _NEXT = (1, 1, 2), (2, 3, 5), (4, 6, 10), (3, 5, 7)


def test_b1_point_search_skips_mirrors_and_singular_candidates(monkeypatch):
    # unskipped, the point on a mirror divides by zero in D[P_1] and the
    # singular one fails the solve of degree 4
    s = get_system("B3")
    chosen = []
    real = derivations._interpolation_points

    def spy(*args):
        points, rows = real(*args)
        chosen.extend(points)
        return points, rows

    clear_caches()
    monkeypatch.setattr(derivations, "prime_windows",
                        lambda n: iter([_ON_A_MIRROR, _GOOD, _SINGULAR, _NEXT]))
    monkeypatch.setattr(derivations, "_interpolation_points", spy)
    assert b_matrix(s, 1) == b1_by_product(s)
    assert chosen == [_GOOD, _NEXT]
    clear_caches()


def test_b1_point_search_is_bounded(monkeypatch):
    s = get_system("B3")
    drawn = []

    def mirrors(n):
        while len(drawn) < 1000:
            drawn.append(_ON_A_MIRROR)
            yield _ON_A_MIRROR

    clear_caches()
    monkeypatch.setattr(derivations, "prime_windows",
                        lambda n: iter([_ON_A_MIRROR, _GOOD, _SINGULAR]))
    with pytest.raises(PipelineError, match="B3: no nonsingular interpolation of B"):
        b_matrix(s, 1)
    monkeypatch.setattr(derivations, "prime_windows", mirrors)
    with pytest.raises(PipelineError, match="in the first 64 candidate points"):
        b_matrix(s, 1)
    assert len(drawn) == derivations._MAX_CANDIDATES
    clear_caches()


def test_clear_caches_empties_every_memo():
    # one memo holds every result and every record, so a cold request
    # builds everything again, the record of D[P_1] included
    s = get_system("B2")
    clear_caches()
    for fn, args in ((jf_inverse, ()), (primitive_dx, ()), (iterate_dkx, (2,)), (jdkx, (1,)),
                     (p_matrix, (4,)), (derivations.step_matrix, (4,)), (b_matrix, (2,))):
        assert fn(s, *args) is fn(s, *args), fn.__name__
    clear_caches()
    derivations.saito_certificate(s, p_matrix(s, 4))
    jdkx(s, 1)
    kinds = {key[0] for key in derivations._cache}
    assert {"d_p1", "saito", "direct", "product", "p_matrix", "jdkx"} <= kinds
    clear_caches()
    assert derivations._cache == {}
    # a memo of its own would escape clear_caches
    assert [name for name, value in vars(derivations).items()
            if isinstance(value, dict) and not name.startswith("__")] == ["_cache"]


def test_saito_record_of_a_doctored_basis_never_serves_the_memoised_one():
    clear_caches()
    s = get_system("B2")
    basis = p_matrix(s, 4)
    cert = derivations.saito_certificate(s, basis)
    assert cert.membership is None and cert.constant is not None
    doctored = dataclasses.replace(basis, matrix=doubled_entry(basis.matrix))
    bad = derivations.saito_certificate(s, doctored)
    assert bad.membership is not None and bad.constant is None
    assert bad.witness["condition"] == "membership"
    assert derivations.saito_certificate(s, basis) == cert


def test_b_rejects_bad_k():
    s = get_system("B2")
    with pytest.raises(ValueError):
        b_matrix(s, 0)
