"""Saito's criterion: a basis certificate without a symbolic determinant.

The columns theta_1..theta_l of an l x l polynomial matrix P form a basis
of D^(m)(A) (Ziegler 1989; Abe, Terao and Wakefield 2007) when

* membership: every theta_j lies in D^(m)(A), exactly per hyperplane and
  per irrational mirror line (``membership_failure``).  Along a
  hyperplane alpha^m | theta_j(alpha) is decided by the width of alpha
  (``exactpoly.power_divides``): an x_a exponent of at least m in every
  term for alpha = x_a, (t -+ 1)^m | g(t, 1) for every binary form g in
  x_a, x_b of theta_j(alpha) for alpha = x_a -+ x_b, and m divisions of
  the x_a level form for any other alpha.  Once P is proved equivariant
  under the signed permutations of the catalog entry, one factor per
  orbit is enough (``certify``);
* degrees: every column is homogeneous and sum deg theta_j = m |A|;
* evaluation: det P(p) != 0 at one rational point p off every hyperplane.

Then det P = c Q^m with c = det P(p) / Q(p)^m (proof at ``saito_constant``).
Here Q is the product of the stored factors, |A| the sum of their degrees,
and p the first window (p_s, ..., p_{s+l-1}) of consecutive primes 2, 3, 5,
... on which no factor vanishes (s = 0 for the whole catalog), so every
constant and witness is deterministic.  Values are taken on the integer
form of each polynomial (``exactpoly.product_at``, ``exactpoly.det_at``).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .exactpoly import (
    Matrix,
    Poly,
    binary_components,
    det_at,
    power_divides,
    product_at,
    strip_factor,
)

__all__ = [
    "Certificate",
    "certify",
    "equivariant",
    "evaluation_point",
    "membership_failure",
    "membership_witness",
    "saito_constant",
]


def membership_failure(factors, matrix: Matrix, m: int) -> tuple[int, int, int, str] | None:
    """None when every column lies in D^(m) along every factor, else
    (factor index, column index, divisions done, residual) of the first
    failure, by factor and then by column."""
    return next(_failures(factors, range(len(factors)), matrix, m), None)


def _failures(factors, indices, matrix: Matrix, m: int):
    """The first failure along each of the factors at indices, in order."""
    if m == 0:
        return
    columns = [[matrix[i][j] for i in range(matrix.rows)] for j in range(matrix.cols)]
    for fi in indices:
        failure = _first_failure(factors[fi], columns, m)
        if failure is not None:
            yield fi, *failure


def _first_failure(q: Poly, columns, m: int) -> tuple[int, int, str] | None:
    """(column index, divisions done, residual) of the first column not in
    D^(m) along the factor q."""
    test = _line_test(q) if q.degree() == 1 else _orbit_test(q)
    for j, column in enumerate(columns):
        failure = test(column, m)
        if failure is not None:
            return j, *failure
    return None


def equivariant(matrix: Matrix, m: int, generators) -> bool:
    """Whether g[P] = rho^T P rho (m even) or g[P] = rho^T P (m odd) for
    every generator, a signed permutation matrix rho given by its images
    (pi(j), s_j) (``exactpoly.signed_permutation``), g[p] =
    p.substitute_linear(rho) = p.rekey(images).  Entry (a, b) of the law
    reads s_a s_b g[P_ab] = P_pi(a)pi(b) or s_a g[P_ab] = P_pi(a)b, so each
    entry is re-keyed once per generator and compared."""
    for images in generators:
        columns = tuple((b, 1) for b in range(len(images))) if m % 2 else images
        for a, (pa, sa) in enumerate(images):
            for b, (pb, sb) in enumerate(columns):
                if matrix[a][b].rekey(images, sa * sb) != matrix[pa][pb]:
                    return False
    return True


def membership_witness(factors, failure: tuple[int, int, int, str]) -> dict:
    fi, j, step, residual = failure
    return {"factor": str(factors[fi]), "column": j + 1, "divisions_done": step,
            "residual": residual}


def _line_test(alpha: Poly):
    """alpha^m | theta(alpha) for the linear form alpha, decided by
    ``power_divides``; only a failure runs the m exact divisions
    (``strip_factor``) that give its witness."""
    ell = alpha.nvars
    # a canonical factor has integer coefficients
    coeffs = [(i, int(c)) for i in range(ell)
              if (c := alpha.coefficient(tuple(int(t == i) for t in range(ell))))]

    def failure(column, m: int) -> tuple[int, str] | None:
        cur = Poly.zero(ell)
        for i, c in coeffs:
            if column[i]:
                cur = cur + column[i] * c
        if power_divides(cur, alpha, m):
            return None
        cur, done = strip_factor(cur, alpha, m)
        return done, str(cur)

    return failure


def _orbit_test(q: Poly):
    """Membership along the mirror lines x1 = t x2 of a binary form q of
    degree > 1, irreducible over Q and prime to x2, t a root of
    q~(t) = q(t, 1): q~ must divide a^(j)(t) - t b^(j)(t) for every j < m,
    where a, b are theta(x1), theta(x2) at x2 = 1, one homogeneous degree
    at a time.  It runs on integer coefficient lists over the common
    denominator of a and b, which changes no divisibility."""
    q_t = binary_components(q)[0][q.degree()]

    def failure(column, m: int) -> tuple[int, str] | None:
        (parts_a, den_a), (parts_b, den_b) = map(binary_components, column)
        den = math.lcm(den_a, den_b)
        for deg in sorted(set(parts_a) | set(parts_b)):
            a = [c * (den // den_a) for c in parts_a.get(deg, ())]
            b = [c * (den // den_b) for c in parts_b.get(deg, ())]
            for j in range(m):
                residual = a + [0] * (len(b) + 1 - len(a))
                for i, c in enumerate(b):
                    residual[i + 1] -= c
                if not _divides(q_t, residual):
                    terms = {(i,): Fraction(c, den) for i, c in enumerate(residual) if c}
                    return j, str(Poly(1, terms)).replace("x1", "t")
                a = [i * c for i, c in enumerate(a)][1:]
                b = [i * c for i, c in enumerate(b)][1:]
        return None

    return failure


def _divides(q: list[int], r: list[int]) -> bool:
    """Whether the primitive integer polynomial q (leading coefficient last)
    divides r; by Gauss's lemma an exact quotient is integral."""
    r = list(r)
    lead, n = q[-1], len(q)
    while len(r) >= n:
        top = r.pop()
        if top:
            quo, rem = divmod(top, lead)
            if rem:
                return False
            base = len(r) - n + 1
            for i in range(n - 1):
                r[base + i] -= quo * q[i]
    return not any(r)


def _primes():
    n = 2
    while True:
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            yield n
        n += 1


@functools.lru_cache(maxsize=64)
def evaluation_point(nvars: int, factors: tuple[Poly, ...]) -> tuple[tuple[int, ...], Fraction]:
    """The first window of nvars consecutive primes on which no factor
    vanishes, and the value there of the product of the factors."""
    primes = _primes()
    window = [next(primes) for _ in range(nvars)]
    for _ in range(64):
        q_value = product_at(factors, window)
        if q_value:
            return tuple(window), q_value
        window = window[1:] + [next(primes)]
    raise ValueError("no window of 64 consecutive primes avoids every factor")


def saito_constant(matrix: Matrix, factors, m: int) -> tuple[Fraction | None, dict | None]:
    """(c, None) with det P = c Q^m, c != 0, or (None, witness), given
    membership.  The witness names the condition that failed, "degrees"
    (with the column degrees) or "evaluation" (with the point and value).

    Proof.  Take a mirror H with form alpha (a real root of an orbit factor
    gives a real line) and change coordinates so that alpha = x_1, which
    scales det P by a nonzero constant.  By membership the first row of P,
    theta_j(alpha), is divisible by alpha^m, so alpha^m | det P.  Distinct
    mirrors have coprime forms whose product is Q up to a constant, so
    Q^m | det P.  Each term of det P takes one entry per column, so det P
    is zero or homogeneous of degree sum deg theta_j = m |A| = deg Q^m.
    Hence det P = c Q^m with c constant, and c = det P(p) / Q(p)^m as
    Q(p) != 0.  If det P(p) = 0 then det P = 0 and P is no basis, so a
    failure is exact too.
    """
    column_degrees: list[int | None] = []
    for j in range(matrix.cols):
        degree = None
        for i in range(matrix.rows):
            e = matrix[i][j]
            if not e:
                continue
            d = e.degree()
            if degree is None:
                degree = d
            if d != degree or not e.is_homogeneous():
                return None, {"condition": "degrees", "entry": [i + 1, j + 1], "degree": d,
                              "column_degree": degree, "homogeneous": e.is_homogeneous()}
        column_degrees.append(degree)
    expected = m * sum(q.degree() for q in factors)
    if None in column_degrees or sum(column_degrees) != expected:
        return None, {"condition": "degrees", "column_degrees": column_degrees,
                      "expected_sum": expected}
    point, q_value = evaluation_point(matrix.rows, tuple(factors))
    value = det_at(matrix, point)
    if not value:
        return None, {"condition": "evaluation", "point": list(point), "value": "0"}
    return value / q_value**m, None


class Certificate(NamedTuple):
    """The membership failure (None: every column is in D^(m)), then the
    constant or the witness of Saito's criterion."""

    membership: tuple[int, int, int, str] | None
    constant: Fraction | None
    witness: dict | None


def certify(matrix: Matrix, system, m: int) -> Certificate:
    """Saito's criterion for P = matrix over a catalog entry: membership,
    then degrees and the evaluation (``saito_constant``).

    Membership is decided on the first factor of each of
    system.factor_orbits once ``equivariant`` proves the law below for
    each of system.signed_generators.  If the proof or any of those
    factors fails, every factor is scanned (``membership_failure``), so a
    failure is always the first one and its witness that of the full scan.

    Proof.  Let rho send x_j to s_j x_pi(j), g[p](x) = p(rho^T x) the
    substitution ``Poly.substitute_linear(rho)``, and let P satisfy g[P] =
    rho^T P rho (m even) or g[P] = rho^T P (m odd), g applied entrywise.
    The law passes to products, (rho_1 rho_2)[p] = rho_1[rho_2[p]] and the
    constant rho_2 commutes with rho_1[.], so it holds for every element of
    the group; as rho^T = rho^{-1}, g[alpha] = alpha o g^{-1} is the usual
    action g alpha on linear forms.  For alpha = c . x the row of
    theta_j(alpha) is c^T P, and g[alpha] = (rho c) . x.  As g fixes
    constants, g[c^T P] = c^T g[P], which is (rho c)^T P rho or (rho c)^T
    P: the row of theta_j(g[alpha]) is g[c^T P] rho^{-1} (m even) or
    g[c^T P] (m odd).  g is a ring automorphism, so alpha^m |
    theta_j(alpha) for every j gives g[alpha]^m | g[theta_j(alpha)], and
    g[alpha]^m divides each constant combination of these, each
    theta_j(g[alpha]).  So membership along alpha gives membership along g
    alpha for every g, g^{-1} alpha among them: along the whole orbit.  The
    generators permute the factors up to units (Q is anti-invariant, which
    the catalog checks), so the orbit of a factor is factors up to units.
    A factor q of degree > 1 stands for its mirror lines, alpha a root form
    over C: g maps the lines of q onto those of the factor g[q], and the
    argument runs line by line.
    """
    factors = system.factors
    representatives = (orbit[0] for orbit in system.factor_orbits)
    if m and (not equivariant(matrix, m, system.signed_generators)
              or any(_failures(factors, representatives, matrix, m))):
        failure = membership_failure(factors, matrix, m)
        if failure is not None:
            witness = {"condition": "membership", **membership_witness(factors, failure)}
            return Certificate(failure, None, witness)
    return Certificate(None, *saito_constant(matrix, factors, m))
