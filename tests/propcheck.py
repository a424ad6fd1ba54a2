"""Seeded randomised property suites.

Shared between the quick property tests (small case counts) and the
acceptance run (1000 cases per suite).  Each suite function executes
`count` independent random cases and asserts the property for each; the
RNG is seeded so failures are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from oracles import json_text

from multider.cli import _dumps
from multider.coxeter import get_system
from multider.exactpoly import ArrFrac, Matrix, Poly, divide_exact, mat_det_adj


def random_poly(rng: random.Random, nvars: int, max_deg: int = 6,
                max_terms: int = 6, allow_zero: bool = True) -> Poly:
    if allow_zero and rng.random() < 0.05:
        return Poly.zero(nvars)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        if sum(exps) > max_deg:
            exps = tuple(e % 2 for e in exps)
        num = rng.randint(-9, 9) or 1
        terms[exps] = Fraction(num, rng.randint(1, 5))
    return Poly(nvars, terms)


def random_homogeneous(rng: random.Random, nvars: int, deg: int,
                       max_terms: int = 8) -> Poly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * nvars
        for _ in range(deg):
            exps[rng.randrange(nvars)] += 1
        num = rng.randint(-9, 9) or 1
        terms[tuple(exps)] = Fraction(num, rng.randint(1, 5))
    return Poly(nvars, terms)


def suite_ring_axioms(count: int, seed: int = 101) -> int:
    rng = random.Random(seed)
    for _ in range(count):
        nv = rng.randint(1, 5)
        a = random_poly(rng, nv)
        b = random_poly(rng, nv)
        c = random_poly(rng, nv)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
    return count


def suite_partials_commute(count: int, seed: int = 102) -> int:
    rng = random.Random(seed)
    for _ in range(count):
        nv = rng.randint(2, 5)
        p = random_poly(rng, nv)
        i, j = rng.randrange(nv), rng.randrange(nv)
        assert p.diff(i).diff(j) == p.diff(j).diff(i)
    return count


def suite_leibniz(count: int, seed: int = 103) -> int:
    rng = random.Random(seed)
    for _ in range(count):
        nv = rng.randint(1, 5)
        a = random_poly(rng, nv)
        b = random_poly(rng, nv)
        i = rng.randrange(nv)
        assert (a * b).diff(i) == a.diff(i) * b + a * b.diff(i)
    return count


def suite_euler(count: int, seed: int = 104) -> int:
    rng = random.Random(seed)
    for _ in range(count):
        nv = rng.randint(1, 5)
        d = rng.randint(1, 7)
        p = random_homogeneous(rng, nv, d)
        acc = Poly.zero(nv)
        for i in range(nv):
            acc = acc + Poly.variable(nv, i) * p.diff(i)
        assert acc == d * p
    return count


def suite_adjugate(count: int, seed: int = 105) -> int:
    rng = random.Random(seed)
    for _ in range(count):
        nv = rng.randint(1, 3)
        n = rng.choice((2, 3))
        mat = Matrix([[random_poly(rng, nv, max_deg=3, max_terms=3)
                       for _ in range(n)] for _ in range(n)])
        det, adj = mat_det_adj(mat)
        prod = mat @ adj
        for i in range(n):
            for j in range(n):
                assert prod[i][j] == (det if i == j else Poly.zero(nv))
    return count


def suite_divide_roundtrip(count: int, seed: int = 106) -> int:
    rng = random.Random(seed)
    for _ in range(count):
        nv = rng.randint(1, 4)
        a = random_poly(rng, nv, max_deg=4, max_terms=4, allow_zero=False)
        b = random_poly(rng, nv, max_deg=4, max_terms=4, allow_zero=False)
        q = divide_exact(a * b, b)
        assert q is not None and q == a
        assert q * b == a * b
    return count


def suite_reduction_invariant(count: int, seed: int = 107) -> int:
    """After every fraction operation no denominator factor divides the
    numerator and no zero exponents are stored."""
    rng = random.Random(seed)
    system = get_system("B3")
    factors = list(system.factors)
    for _ in range(count):
        def rand_frac():
            num = random_poly(rng, 3, max_deg=4, max_terms=4)
            den = {}
            for f in rng.sample(factors, rng.randint(0, 3)):
                den[f] = rng.randint(1, 2)
            return ArrFrac(num, den)

        a, b = rand_frac(), rand_frac()
        op = rng.choice(("add", "sub", "mul"))
        r = a + b if op == "add" else a - b if op == "sub" else a * b
        for f, e in r.den.items():
            assert e > 0
            assert divide_exact(r.num, f) is None, (op, a, b)
        if not r.num:
            assert not r.den
    return count


_CHARS = 'a Z0"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001d54f\ud800'
_FLOATS = (0.0, -0.0, 1e300, -1e-300, 0.1, 2.5, float("inf"), float("-inf"), float("nan"))


def random_json_value(rng: random.Random, depth: int = 3):
    """A nested value of the kinds cli._dumps writes: containers, scalars
    and Poly leaves over 1-5 variables."""
    kind = rng.randrange(9 if depth else 6)
    if kind == 0:
        return "".join(rng.choice(_CHARS) for _ in range(rng.randint(0, 6)))
    if kind == 1:
        return rng.choice((True, False, None, 0, -1, 10**30, -(2**70) + 1))
    if kind == 2:
        return rng.choice(_FLOATS)
    if kind in (3, 4, 5):
        nv = rng.randint(1, 5)
        return rng.choice((Poly.zero(nv), Poly.const(nv, rng.randint(-9, 9)),
                           random_poly(rng, nv), -random_poly(rng, nv)))
    items = [random_json_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if kind == 6:
        return items
    if kind == 7:
        return tuple(items)
    keys = [rng.choice(("", "k", 'q"\\', "\u00e9\n", 7, -2.5, True, None)) for _ in items]
    return dict(zip(keys, items))


def suite_json_writer(count: int, seed: int = 108) -> int:
    """cli._dumps writes the bytes of json.dumps(indent=2), and refuses (with
    TypeError) what json.dumps refuses."""
    rng = random.Random(seed)
    for _ in range(count):
        value = random_json_value(rng)
        assert _dumps(value) == json_text(value)
        for bad in (Fraction(1, 3), {1, 2}):
            wrapped = {"m": [random_json_value(rng, 1), bad]}
            with pytest.raises(TypeError):
                json_text(wrapped)
            with pytest.raises(TypeError):
                _dumps(wrapped)
    return count


def suite_rekey_matches_evaluate(count: int, seed: int = 109) -> int:
    """A signed permutation matrix re-keys the terms (``Poly.rekey``, the
    route of ``substitute_linear`` for it); the general route substitutes
    the images s_j x_pi(j) term by term (``substitute_polys``)."""
    rng = random.Random(seed)
    for _ in range(count):
        nv = rng.randint(1, 5)
        p = random_poly(rng, nv)
        targets = rng.sample(range(nv), nv)
        signs = [rng.choice((1, -1)) for _ in range(nv)]
        matrix = [[signs[j] if targets[j] == i else 0 for j in range(nv)] for i in range(nv)]
        images = [Poly.variable(nv, targets[j]) * signs[j] for j in range(nv)]
        expected = p.substitute_polys(images)
        assert p.substitute_linear(matrix) == expected
        assert p.rekey(tuple(zip(targets, signs)), -1) == -expected
    return count


ALL_SUITES = (
    ("ring_axioms", suite_ring_axioms),
    ("partials_commute", suite_partials_commute),
    ("leibniz", suite_leibniz),
    ("euler", suite_euler),
    ("adjugate", suite_adjugate),
    ("divide_roundtrip", suite_divide_roundtrip),
    ("reduction_invariant", suite_reduction_invariant),
    ("json_writer", suite_json_writer),
    ("rekey_matches_evaluate", suite_rekey_matches_evaluate),
)
