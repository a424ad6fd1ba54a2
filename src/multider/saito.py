"""Saito's criterion: a basis certificate without a symbolic determinant.

The columns theta_1..theta_l of an l x l polynomial matrix P form a basis
of D^(m)(A) (Ziegler 1989; Abe, Terao and Wakefield 2007) when

* membership: every theta_j lies in D^(m)(A), exactly per hyperplane and
  per irrational mirror line (``membership_failure``);
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

from .exactpoly import Matrix, Poly, binary_components, det_at, divide_exact, product_at

__all__ = [
    "Certificate",
    "certify",
    "evaluation_point",
    "membership_failure",
    "membership_witness",
    "saito_constant",
]


def membership_failure(factors, matrix: Matrix, m: int) -> tuple[int, int, int, str] | None:
    """None when every column lies in D^(m) along every factor, else
    (factor index, column index, divisions done, residual) of the first
    failure, by factor and then by column."""
    if m == 0:
        return None
    columns = [[matrix[i][j] for i in range(matrix.rows)] for j in range(matrix.cols)]
    for fi, q in enumerate(factors):
        test = _line_test(q) if q.degree() == 1 else _orbit_test(q)
        for j, column in enumerate(columns):
            failure = test(column, m)
            if failure is not None:
                return fi, j, failure[0], failure[1]
    return None


def membership_witness(factors, failure: tuple[int, int, int, str]) -> dict:
    fi, j, step, residual = failure
    return {"factor": str(factors[fi]), "column": j + 1, "divisions_done": step,
            "residual": residual}


def _line_test(alpha: Poly):
    """alpha^m | theta(alpha) for the linear form alpha, by m exact divisions."""
    ell = alpha.nvars
    # a canonical factor has integer coefficients
    coeffs = [(i, int(c)) for i in range(ell)
              if (c := alpha.coefficient(tuple(int(t == i) for t in range(ell))))]

    def failure(column, m: int) -> tuple[int, str] | None:
        cur = Poly.zero(ell)
        for i, c in coeffs:
            if column[i]:
                cur = cur + column[i] * c
        for step in range(m):
            nxt = divide_exact(cur, alpha)
            if nxt is None:
                return step, str(cur)
            cur = nxt
        return None

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


def certify(matrix: Matrix, factors, m: int) -> Certificate:
    """Membership, then degrees and the evaluation (``saito_constant``)."""
    failure = membership_failure(factors, matrix, m)
    if failure is not None:
        witness = {"condition": "membership", **membership_witness(factors, failure)}
        return Certificate(failure, None, witness)
    return Certificate(None, *saito_constant(matrix, factors, m))
