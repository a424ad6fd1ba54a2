"""Exact sparse multivariate polynomials and arrangement-factored fractions.

Everything downstream (invariant catalogs, primitive-derivation pipeline,
determinant certificates) rests on the guarantee that arithmetic here is
exact.  Coefficients are exact rationals; nothing is ever rounded, and
equality of polynomials is literal equality of their canonical form.

Representations:

* ``Poly``: sparse polynomial.  Its coefficients are Python ints over one
  positive common denominator, coprime to all of them, so every kernel
  runs on integers; ``fractions.Fraction`` appears only where values enter
  or leave (constructor, accessors, evaluation, returned scales), and text
  (``str``, ``poly_to_records``, ``poly_to_json``) is formatted from the
  integer form by one helper.  Terms are stored in a dict keyed by a
  packed integer encoding of the exponent vector.  The packing puts the
  total degree in the most significant field, followed by the exponents
  of x1, x2, ... in order, so comparing packed keys as plain integers is
  exactly the graded lexicographic order.  That gives
  deterministic leading terms and deterministic serialization for free.

* ``ArrFrac``: a rational function whose denominator is kept factored as
  a product of irreducible polynomials (linear forms for the classical
  arrangements, plus the few irreducible orbit factors of the dihedral
  cases).  The numerator is reduced against every denominator factor at
  construction, so pole orders along each hyperplane can be read off the
  exponent map directly.  No general multivariate gcd is needed, or
  implemented: every pole in this problem domain lies along a known
  arrangement factor.

* ``Matrix``: small dense matrices over ``Poly`` or ``ArrFrac``, with an
  exact determinant/adjugate routine for polynomial matrices
  (``mat_det_adj``, a fraction-free cofactor expansion with memoised
  minors).  A product with a fraction entry anywhere forms each entry as
  one sum of unreduced products over their common denominator and
  reduces it once; the reduced form is canonical, so this equals reducing
  term by term.  The unreduced pieces of such sums (``product_pair``,
  ``ArrFrac.gradient_pairs``, ``sum_pairs``, ``Matrix.product_pairs``) serve
  other fused sums too, such as a derivation applied to a fraction, and
  ``pairs_equal`` compares two unreduced fractions without reducing
  either.  No certificate takes the determinant of a large
  polynomial matrix: ``saito`` evaluates it at one point instead.

Exact division runs a division plan, built once per divisor and kept in a
bounded cache: its content and the kernel for its primitive part (monomial,
linear form or general heap).  ``strip_factor`` divides by one factor as
often as it can, up to a limit, on the integer terms and canonicalises once;
every reduction runs through it.  ``power_divides`` decides whether
alpha^m divides a polynomial, alpha linear, from a plan per divisor by its
width, and forms no quotient: the membership test of ``saito`` runs on it.
``ArrFrac.gradient_pairs`` forms all l partial derivatives by one quotient rule.

All values are immutable after construction; all operations are pure.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Poly",
    "ArrFrac",
    "Matrix",
    "divide_exact",
    "strip_factor",
    "power_divides",
    "is_constant_multiple",
    "canonical_factor",
    "product_pair",
    "sum_pairs",
    "pairs_equal",
    "mat_det_adj",
    "adjugate_row",
    "poly_to_records",
    "poly_to_json",
    "poly_from_records",
    "rat_mat_mul",
    "rat_mat_inv",
    "rat_det",
    "det_at",
    "product_at",
    "values_at",
    "binary_components",
    "signed_permutation",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# ---------------------------------------------------------------------------
# packed exponent keys
# ---------------------------------------------------------------------------

_FIELD = 16
_MASK = (1 << _FIELD) - 1
_MAX_EXP = (1 << (_FIELD - 1)) - 1  # keep the top bit of each field free

_LAYOUTS: dict[int, tuple[tuple[int, ...], int, int]] = {}


def _layout(nvars: int) -> tuple[tuple[int, ...], int, int]:
    """Field layout for packed keys: (variable shifts, degree shift, guard)."""
    cached = _LAYOUTS.get(nvars)
    if cached is None:
        shifts = tuple(_FIELD * (nvars - 1 - i) for i in range(nvars))
        deg_shift = _FIELD * nvars
        guard = 0
        for s in shifts:
            guard |= 1 << (s + _FIELD - 1)
        cached = (shifts, deg_shift, guard)
        _LAYOUTS[nvars] = cached
    return cached


def _pack(exps: Sequence[int], shifts: Sequence[int], deg_shift: int) -> int:
    key = 0
    total = 0
    for e, s in zip(exps, shifts):
        if e < 0 or e > _MAX_EXP:
            raise ValueError(f"exponent {e} out of range")
        key |= e << s
        total += e
    return key | (total << deg_shift)


def _unpack(key: int, shifts: Sequence[int]) -> tuple[int, ...]:
    return tuple((key >> s) & _MASK for s in shifts)


# ---------------------------------------------------------------------------
# Poly
# ---------------------------------------------------------------------------


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Instances are immutable.  The polynomial is ``_t / _d``: ``_t`` maps
    packed exponent keys to nonzero ``int`` coefficients and ``_d`` is one
    positive ``int`` denominator with gcd(``_d``, every coefficient) = 1.
    That form is canonical, so equality and hashing compare it literally.
    The zero polynomial has an empty map and ``_d == 1``.
    """

    __slots__ = ("nvars", "_t", "_d", "_hash")

    def __init__(self, nvars: int, terms: Mapping[Sequence[int], Fraction | int] = ()):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        shifts, deg_shift, _ = _layout(nvars)
        packed: dict[int, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise ValueError("exponent vector length does not match nvars")
                c = Fraction(coeff)
                if c:
                    key = _pack(exps, shifts, deg_shift)
                    c0 = packed.get(key)
                    c = c if c0 is None else c0 + c
                    if c:
                        packed[key] = c
                    elif key in packed:
                        del packed[key]
        self.nvars = nvars
        self._t, self._d = _over_lcm(packed)
        self._hash = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _raw(cls, nvars: int, ints: dict[int, int], den: int) -> "Poly":
        """Wrap terms that are already in canonical form."""
        p = object.__new__(cls)
        p.nvars = nvars
        p._t = ints
        p._d = den
        p._hash = None
        return p

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls._raw(nvars, {}, 1)

    @classmethod
    def const(cls, nvars: int, value) -> "Poly":
        c = Fraction(value)
        return cls._raw(nvars, {0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        """The polynomial x_{index+1} (0-based index)."""
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        shifts, deg_shift, _ = _layout(nvars)
        return cls._raw(nvars, {(1 << shifts[index]) | (1 << deg_shift): 1}, 1)

    # -- inspection -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._t)

    def __len__(self) -> int:
        return len(self._t)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._t:
            return -1
        _, deg_shift, _ = _layout(self.nvars)
        return max(self._t) >> deg_shift

    def is_homogeneous(self) -> bool:
        if len(self._t) <= 1:
            return True
        _, deg_shift, _ = _layout(self.nvars)
        return (max(self._t) >> deg_shift) == (min(self._t) >> deg_shift)

    def is_constant(self) -> bool:
        return not self._t or (len(self._t) == 1 and 0 in self._t)

    def constant_value(self) -> Fraction:
        if not self._t:
            return _ZERO
        if len(self._t) == 1 and 0 in self._t:
            return Fraction(self._t[0], self._d)
        raise ValueError(f"not a constant polynomial: {self}")

    def items(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms as (exponent tuple, coefficient), leading term first (graded-lex)."""
        shifts, _, _ = _layout(self.nvars)
        t, d = self._t, self._d
        return [(_unpack(k, shifts), Fraction(t[k], d)) for k in sorted(t, reverse=True)]

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        if not self._t:
            raise ValueError("zero polynomial has no leading term")
        shifts, _, _ = _layout(self.nvars)
        k = max(self._t)
        return _unpack(k, shifts), Fraction(self._t[k], self._d)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        shifts, deg_shift, _ = _layout(self.nvars)
        return Fraction(self._t.get(_pack(exps, shifts, deg_shift), 0), self._d)

    # -- hashing / equality ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self._d == other._d and self._t == other._t

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.nvars, self._d, frozenset(self._t.items())))
            self._hash = h
        return h

    # -- arithmetic -----------------------------------------------------------

    def _check_compatible(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other):
        if isinstance(other, Poly):
            self._check_compatible(other)
            if not self._t:
                return other
            if not other._t:
                return self
            return _sum(self, other, 1)
        if isinstance(other, (int, Fraction)):
            return self + Poly.const(self.nvars, other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Poly):
            self._check_compatible(other)
            if not other._t:
                return self
            return _sum(self, other, -1)
        if isinstance(other, (int, Fraction)):
            return self - Poly.const(self.nvars, other)
        return NotImplemented

    def __neg__(self) -> "Poly":
        return Poly._raw(self.nvars, {k: -c for k, c in self._t.items()}, self._d)

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check_compatible(other)
            return _mul_poly(self, other)
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly.zero(self.nvars)
            if other == 1:
                return self
            c = Fraction(other)
            num = c.numerator
            return _canon(
                self.nvars, {k: v * num for k, v in self._t.items()}, self._d * c.denominator
            )
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus and substitution --------------------------------------------

    def diff(self, index: int) -> "Poly":
        """Formal partial derivative with respect to x_{index+1} (0-based)."""
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range")
        shifts, deg_shift, _ = _layout(self.nvars)
        s = shifts[index]
        drop = (1 << s) | (1 << deg_shift)
        out: dict[int, int] = {}
        for k, c in self._t.items():
            e = (k >> s) & _MASK
            if e:
                out[k - drop] = c * e
        return _canon(self.nvars, out, self._d)

    def substitute_linear(self, matrix: Sequence[Sequence[Fraction | int]]) -> "Poly":
        """Replace each x_j by sum_i matrix[i][j] * x_i.

        With matrix equal to the representing matrix of a group element this
        is the contragredient action on polynomials.  A signed permutation
        matrix (the reflection generators of B and D) is a re-keying
        (``rekey``); any other runs ``_evaluate``.
        """
        n = self.nvars
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("substitution matrix size does not match nvars")
        if not self._t:
            return self
        images = signed_permutation(matrix)
        if images is not None:
            return self.rekey(images)

        shifts, deg_shift, _ = _layout(n)
        images = []
        for j in range(n):
            ints, den = _over_lcm({
                (1 << shifts[i]) | (1 << deg_shift): Fraction(matrix[i][j])
                for i in range(n)
                if matrix[i][j]
            })
            images.append(Poly._raw(n, ints, den))
        return self._evaluate(images)

    def rekey(self, images: tuple[tuple[int, int], ...], sign: int = 1) -> "Poly":
        """sign times self with each x_j replaced by s_j x_pi(j), images[j] =
        (pi(j), s_j): the substitution of a signed permutation matrix
        (``signed_permutation``).  Exponent fields move and signs flip, with
        no arithmetic, by a plan built once per permutation (``_rekey_plan``)."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        keep, moves, odd = _rekey_plan(images)
        flip = int(sign < 0)
        out: dict[int, int] = {}
        for k, c in self._t.items():
            key = k & keep
            for src, dst in moves:
                key |= ((k >> src) & _MASK) << dst
            out[key] = -c if ((k & odd).bit_count() ^ flip) & 1 else c
        return Poly._raw(self.nvars, out, self._d)

    def substitute_polys(self, images: Sequence["Poly"]) -> "Poly":
        """Evaluate self at arbitrary polynomial arguments, one per variable."""
        n = self.nvars
        if len(images) != n:
            raise ValueError("need one image polynomial per variable")
        if not self._t:
            return Poly.zero(images[0].nvars if images else n)
        return self._evaluate(images)

    def _evaluate(self, images: Sequence["Poly"]) -> "Poly":
        """sum_k c_k prod_j images[j]^e_kj, on the integer numerators of self
        and of the images: every term is summed into one dict over the
        common denominator prod_j d_j^E_j (d_j the denominator of images[j],
        E_j the top exponent of x_j), canonicalised once."""
        n = self.nvars
        m = images[0].nvars
        shifts, _, _ = _layout(n)
        tops = [max((k >> s) & _MASK for k in self._t) for s in shifts]
        dens = [img._d for img in images]
        power_cache: list[dict[int, Poly]] = [dict() for _ in range(n)]

        def img_power(j: int, e: int) -> Poly:
            cache = power_cache[j]
            got = cache.get(e)
            if got is None:
                got = Poly._raw(m, images[j]._t, 1) ** e
                cache[e] = got
            return got

        one = Poly._raw(m, {0: 1}, 1)
        acc: dict[int, int] = {}
        get = acc.get
        for k, c in self._t.items():
            term = one
            for j in range(n):
                e = (k >> shifts[j]) & _MASK
                if e < tops[j]:
                    c *= dens[j] ** (tops[j] - e)
                if e:
                    term = term * img_power(j, e)
            for kt, ct in term._t.items():
                acc[kt] = get(kt, 0) + c * ct
        den = self._d * math.prod(d**e for d, e in zip(dens, tops))
        return _canon(m, {k: v for k, v in acc.items() if v}, den)

    # -- rendering ------------------------------------------------------------

    def __str__(self) -> str:
        if not self._t:
            return "0"
        shifts, _, _ = _layout(self.nvars)
        t, d = self._t, self._d
        parts: list[str] = []
        for k in sorted(t, reverse=True):
            v = t[k]
            mono = "*".join(
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(_unpack(k, shifts))
                if e
            )
            a = abs(v)
            if not mono:
                body = _coeff_text(a, d)
            elif a == d:
                body = mono
            else:
                body = f"{_coeff_text(a, d)}*{mono}"
            if not parts:
                parts.append(body if v > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if v > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _numerator_at(p: Poly, powers: list[list[int]], point: Sequence[int]) -> int:
    """The integer numerator of p at an integer point; powers[i] caches the
    powers of point[i] and is shared between calls at the same point."""
    shifts, _, _ = _layout(p.nvars)
    total = 0
    for k, c in p._t.items():
        for s, x, pw in zip(shifts, point, powers):
            e = (k >> s) & _MASK
            if e:
                while len(pw) <= e:
                    pw.append(pw[-1] * x)
                c *= pw[e]
        total += c
    return total


def binary_components(p: Poly) -> tuple[dict[int, list[int]], int]:
    """The homogeneous components of a polynomial in x1, x2 at x2 = 1, as
    dense integer coefficient lists in t = x1 by degree, over p's
    denominator."""
    if p.nvars != 2:
        raise ValueError("binary_components needs a polynomial in two variables")
    shifts, deg_shift, _ = _layout(2)
    parts: dict[int, list[int]] = {}
    for k, c in p._t.items():
        e1 = (k >> shifts[0]) & _MASK
        coeffs = parts.setdefault(k >> deg_shift, [])
        if len(coeffs) <= e1:
            coeffs.extend([0] * (e1 + 1 - len(coeffs)))
        coeffs[e1] = c
    return parts, p._d


def _over_lcm(fracs: Mapping[int, Fraction]) -> tuple[dict[int, int], int]:
    """Canonical (integer terms, denominator) of nonzero Fraction terms.

    Over the least common denominator the numerators already share no
    factor with it, so no further reduction is needed.
    """
    den = math.lcm(*(c.denominator for c in fracs.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in fracs.items()}, den


def _canon(nvars: int, ints: dict[int, int], den: int) -> Poly:
    """The Poly ints / den in canonical form.

    ints holds nonzero integers and den is a nonzero integer; the sign of
    den moves to the numerators and the common content is divided out.
    """
    if den < 0:
        den = -den
        ints = {k: -v for k, v in ints.items()}
    if den != 1:
        g = math.gcd(den, *ints.values())
        if g != 1:
            den //= g
            ints = {k: v // g for k, v in ints.items()}
    return Poly._raw(nvars, ints, den)


def _sum(a: Poly, b: Poly, sign: int) -> Poly:
    """a + sign * b for nonzero a and b, over the lcm of their denominators."""
    da, db = a._d, b._d
    if da == db:
        out = dict(a._t)
        den = da
    else:
        g = math.gcd(da, db)
        lift = db // g
        sign *= da // g
        den = da * lift
        out = {k: v * lift for k, v in a._t.items()}
    get = out.get
    for k, c in b._t.items():
        c0 = get(k)
        c = c * sign if c0 is None else c0 + c * sign
        if c:
            out[k] = c
        else:
            del out[k]
    return _canon(a.nvars, out, den)


def signed_permutation(matrix) -> tuple[tuple[int, int], ...] | None:
    """(pi(j), s_j) for every column j when the square matrix is a signed
    permutation, column j holding s_j = +-1 in row pi(j), so that it sends
    x_j to s_j x_pi(j) (``Poly.rekey``); None otherwise."""
    images: list[tuple[int, int]] = []
    seen = set()
    for j in range(len(matrix)):
        hit = None
        for i, row in enumerate(matrix):
            v = row[j]
            if v:
                if hit is not None or v not in (1, -1):
                    return None
                hit = (i, 1 if v == 1 else -1)
        if hit is None or hit[0] in seen:
            return None
        seen.add(hit[0])
        images.append(hit)
    return tuple(images)


@functools.lru_cache(maxsize=256)
def _rekey_plan(images: tuple[tuple[int, int], ...]) -> tuple[int, tuple, int]:
    """The plan of ``Poly.rekey`` for the signed permutation x_j -> s_j
    x_pi(j), images[j] = (pi(j), s_j), built once per permutation: (keep,
    moves, odd).  keep masks the degree field and the fields of the
    variables that stay in place, moves holds (source shift, target shift)
    of every other variable, and odd masks the low bit of the field of every
    x_j sent to -x_pi(j), so a term changes sign exactly when an odd number
    of those bits is set."""
    shifts, deg_shift, _ = _layout(len(images))
    keep, moves, odd = ~((1 << deg_shift) - 1), [], 0
    for j, (i, s) in enumerate(images):
        if i == j:
            keep |= _MASK << shifts[j]
        else:
            moves.append((shifts[j], shifts[i]))
        if s < 0:
            odd |= 1 << shifts[j]
    return keep, tuple(moves), odd


# ---------------------------------------------------------------------------
# multiplication kernels
# ---------------------------------------------------------------------------


def _mul_poly(a: Poly, b: Poly) -> Poly:
    if not a._t or not b._t:
        return Poly.zero(a.nvars)
    ia, ib = a._t, b._t
    if len(ia) > len(ib):
        ia, ib = ib, ia
    if len(ia) == 1:
        # a one-term operand shifts the other's keys, so no two products collide
        (ka, ca), = ia.items()
        return _canon(a.nvars, {ka + kb: ca * cb for kb, cb in ib.items()}, a._d * b._d)
    items_b = list(ib.items())
    raw: dict[int, int] = {}
    get = raw.get
    for ka, ca in ia.items():
        for kb, cb in items_b:
            k = ka + kb
            v = get(k)
            raw[k] = ca * cb if v is None else v + ca * cb
    return _canon(a.nvars, {k: v for k, v in raw.items() if v}, a._d * b._d)


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------
#
# Every kernel divides the integer numerator N of num by the primitive part
# P of the divisor (integer coefficients with no common factor).  By Gauss's
# lemma an exact quotient N / P has integer coefficients, so a coefficient
# that does not divide exactly proves that no quotient exists.


def divide_exact(num: Poly, div: Poly) -> Poly | None:
    """Exact quotient q with q*div == num, or None when no such q exists.

    Never returns an approximate quotient: the remainder is tracked term by
    term and any nonzero residue aborts with None.
    """
    q, count = strip_factor(num, div, 1)
    return q if count else None


def strip_factor(num: Poly, div: Poly, limit: int) -> tuple[Poly, int]:
    """(num / div^c, c) for the largest c <= limit with div^c | num.

    The divisions run on the integer terms of num with the division plan of
    div, and only the last quotient is brought to canonical form; c < limit
    means that the next exact division failed.  Zero is returned with limit.
    """
    if num.nvars != div.nvars:
        raise ValueError("variable count mismatch in division")
    if not div._t:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num._t:
        return num, limit
    g, dd, kernel = _division_plan(div)
    t, count = num._t, 0
    while count < limit:
        q = kernel(t)
        if q is None:
            break
        t, count = q, count + 1
    if not count:
        return num, 0
    # num / div^c = (N / num._d) / ((g / div._d) * P)^c = Q * div._d^c / (g^c * num._d)
    if dd != 1:
        lift = dd**count
        t = {k: v * lift for k, v in t.items()}
    return _canon(num.nvars, t, g**count * num._d), count


@functools.lru_cache(maxsize=256)
def _division_plan(div: Poly):
    """(content g, div._d, kernel) for a nonzero divisor, built once per
    divisor: kernel maps the integer terms N of a numerator to N / P, P the
    primitive part of div, or to None when P does not divide N."""
    shifts, deg_shift, guard = _layout(div.nvars)
    g = math.gcd(*div._t.values())
    items = sorted(((k, v // g) for k, v in div._t.items()), reverse=True)
    kd, cd = items[0]
    if len(items) == 1:
        # a primitive monomial is +-x^kd
        kernel = functools.partial(_divide_monomial, guard, kd, cd)
    elif kd >> deg_shift == 1 and items[-1][0] >> deg_shift == 1:
        # dedicated kernel for linear forms, the divisors that dominate the
        # reduction work of the pipeline
        sa = next(s for s in shifts if (kd >> s) & _MASK)
        kernel = functools.partial(
            _divide_linear, sa, kd, cd, tuple((k - kd, -c) for k, c in items[1:])
        )
    else:
        kernel = functools.partial(_divide_general, guard, kd, cd, tuple(items[1:]))
    return g, div._d, kernel


def power_divides(num: Poly, div: Poly, m: int) -> bool:
    """Whether div^m divides num, for a homogeneous linear form div.

    Constants are units, so this asks whether P^m divides the integer
    numerator N of num, P the primitive part of div; no quotient is brought
    to canonical form.  The test is planned once per divisor by its shape:

    * P = +-x_a: every term of N has an x_a exponent of at least m.
    * P = x_a -+ x_b: group the terms of N by their key with the x_a and
      x_b fields cleared, the total degree kept.  A group is a binary form
      g = sum c_i x_a^i x_b^(d-i) times one monomial x'^mu in the other
      variables, and P^m | N exactly when P^m | g for every group: N is
      uniquely sum_mu x'^mu G_mu with G_mu in Q[x_a, x_b], a quotient
      N / P^m splits the same way as P lies in Q[x_a, x_b], and P is
      homogeneous, so P^m | G_mu iff P^m divides each homogeneous part.
      As the coefficient of x_a is not 0, P^m | g iff (t -+ 1)^m | g(t, 1):
      dehomogenising keeps a quotient, and a quotient r of g(t, 1) has
      degree <= d - m, so x_b^(d-m) r(x_a / x_b) is its homogenisation.
      The factor t^lo of g(t, 1) is prime to t -+ 1 and is dropped, and
      t + 1 becomes t - 1 at -t.  Each of the m synthetic divisions by
      t - 1 of the integer coefficient list is a running sum whose last
      entry, the remainder, must vanish.
    * Any other P, such as 2 x_i + sum_{j != i} x_j: N is split into x_a
      levels once, and the m divisions run on the level form
      (``_linear_step``, the step of ``_divide_linear``); by Gauss's lemma
      every quotient is integral, so a coefficient that c_a does not
      divide ends the test.
    """
    if num.nvars != div.nvars:
        raise ValueError("variable count mismatch in division")
    test = _power_plan(div)
    return not num._t or m <= 0 or test(num._t, m)


@functools.lru_cache(maxsize=256)
def _power_plan(div: Poly):
    """The test of ``power_divides`` for div, as a function of the integer
    terms of a nonzero numerator and m."""
    shifts, deg_shift, _ = _layout(div.nvars)
    if not div._t or any(k >> deg_shift != 1 for k in div._t):
        raise ValueError(f"power_divides needs a homogeneous linear form, not {div}")
    g = math.gcd(*div._t.values())
    items = sorted(((k, v // g) for k, v in div._t.items()), reverse=True)
    (ka, ca), rest = items[0], items[1:]
    sa = next(s for s in shifts if (ka >> s) & _MASK)
    if not rest:
        return functools.partial(_power_monomial, sa)
    if len(rest) == 1 and ca == 1 and rest[0][1] in (1, -1):
        (kb, cb), = rest
        sb = next(s for s in shifts if (kb >> s) & _MASK)
        return functools.partial(_power_binary, sa, sb, cb == 1)
    step = functools.partial(_linear_step, ka, ca, tuple((k - ka, -c) for k, c in rest))
    return functools.partial(_power_levels, sa, step)


def _power_monomial(sa, nt: dict[int, int], m: int) -> bool:
    return all((k >> sa) & _MASK >= m for k in nt)


def _power_levels(sa, step, nt: dict[int, int], m: int) -> bool:
    levels = _split_levels(sa, nt)
    if max(levels) < m:
        return False
    for _ in range(m):
        levels = step(levels)
        if levels is None:
            return False
    return True


def _power_binary(sa, sb, flip, nt: dict[int, int], m: int) -> bool:
    groups: dict[int, dict[int, int]] = {}
    for k, v in nt.items():
        i = (k >> sa) & _MASK
        groups.setdefault(k - (i << sa) - (((k >> sb) & _MASK) << sb), {})[i] = v
    for group in groups.values():
        lo, hi = min(group), max(group)
        if hi - lo < m:
            return False
        # g(t, 1) / t^lo, leading coefficient first
        coeffs = [group.get(i, 0) for i in range(hi, lo - 1, -1)]
        if flip:
            coeffs[1::2] = [-c for c in coeffs[1::2]]
        for _ in range(m):
            coeffs = list(itertools.accumulate(coeffs))
            if coeffs.pop():
                return False
    return True


def _divide_monomial(guard, kd, sign, nt: dict[int, int]) -> dict[int, int] | None:
    q = {}
    for k, c in nt.items():
        if (((k | guard) - kd) & guard) != guard:
            return None
        q[k - kd] = c * sign
    return q


def _divide_linear(sa, one_a, c1, rest, nt: dict[int, int]) -> dict[int, int] | None:
    """Synthetic division by a primitive homogeneous linear form: the
    numerator split into x_a levels, one ``_linear_step``, and the
    quotient levels merged back."""
    levels = _linear_step(one_a, c1, rest, _split_levels(sa, nt))
    if levels is None:
        return None
    quotient: dict[int, int] = {}
    for level in levels.values():
        quotient.update(level)
    return quotient


def _split_levels(sa, nt: dict[int, int]) -> dict[int, dict[int, int]]:
    """The terms of nt by their exponent of x_a (field shift sa); a level
    keeps the full keys of its terms."""
    levels: dict[int, dict[int, int]] = {}
    for k, v in nt.items():
        levels.setdefault((k >> sa) & _MASK, {})[k] = v
    return levels


def _linear_step(
    one_a, c1, rest, levels: dict[int, dict[int, int]]
) -> dict[int, dict[int, int]] | None:
    """One exact division of a numerator in level form by a primitive
    homogeneous linear form, giving the quotient in level form.

    Writing the divisor as c_a x_a + S (x_a its graded-lex leading variable,
    key one_a; rest holds (key - one_a, -c) per term of S) and the numerator
    as sum x_a^i P_i, the quotient levels satisfy
    Q_{i-1} = (P_i - S Q_i) / c_a descending from the top, with
    remainder P_0 - S Q_0 that must vanish identically.  Every level is
    integral when the division is exact, so a coefficient that c_a does
    not divide ends the search at once.  Cost is linear in the number of
    terms times the divisor width, and no heap is needed because every
    generated key stays on its x_a level.  The top level of the quotient
    is P_d / c_a, so it is never empty.  The remainder is formed in
    levels[0], which the caller no longer reads.
    """
    d = max(levels)
    if d == 0:
        return None

    quotient: dict[int, dict[int, int]] = {}
    q_prev: dict[int, int] = {}
    for i in range(d - 1, -1, -1):
        cur = {k - one_a: v for k, v in levels.get(i + 1, {}).items()}
        for shift_ab, cb in rest:
            for k, v in q_prev.items():
                k2c = k + shift_ab
                w = cur.get(k2c)
                nv = cb * v if w is None else w + cb * v
                if nv:
                    cur[k2c] = nv
                elif k2c in cur:
                    del cur[k2c]
        if c1 != 1:
            for k, v in cur.items():
                qv, r = divmod(v, c1)
                if r:
                    return None
                cur[k] = qv
        quotient[i] = cur
        q_prev = cur

    rem = levels.get(0, {})
    for shift_ab, cb in rest:
        for k, v in q_prev.items():
            k2c = k + shift_ab + one_a
            w = rem.get(k2c)
            nv = cb * v if w is None else w + cb * v
            if nv:
                rem[k2c] = nv
            elif k2c in rem:
                del rem[k2c]
    return None if rem else quotient


def _divide_general(guard, kd, cd, rest, nt: dict[int, int]) -> dict[int, int] | None:
    """Leading-term division by a primitive divisor with leading term cd x^kd
    and further terms rest, with a lazy max-heap over the working remainder."""
    rem = dict(nt)
    heap = [-k for k in rem]
    heapq.heapify(heap)
    q: dict[int, int] = {}
    while heap:
        k = -heapq.heappop(heap)
        c = rem.pop(k, None)
        if c is None:
            continue
        if (((k | guard) - kd) & guard) != guard:
            return None
        cq, r = divmod(c, cd)
        if r:
            return None
        kq = k - kd
        q[kq] = cq
        for kr, cr in rest:
            kk = kq + kr
            w = rem.get(kk)
            if w is None:
                rem[kk] = -cq * cr
                heapq.heappush(heap, -kk)
            else:
                nv = w - cq * cr
                if nv:
                    rem[kk] = nv
                else:
                    del rem[kk]
    return q


def is_constant_multiple(a: Poly, b: Poly) -> Fraction | None:
    """Nonzero c with a == c*b, 1 for the pair of zeros, None otherwise."""
    if a.nvars != b.nvars:
        raise ValueError("variable count mismatch")
    ta, tb = a._t, b._t
    if not ta and not tb:
        return _ONE
    if not ta or not tb or len(ta) != len(tb):
        return None
    ka, kb = max(ta), max(tb)
    if ka != kb:
        return None
    # a == c*b iff the integer numerators are proportional term by term
    la, lb = ta[ka], tb[kb]
    for k, v in tb.items():
        w = ta.get(k)
        if w is None or w * lb != v * la:
            return None
    return Fraction(la * b._d, lb * a._d)


# ---------------------------------------------------------------------------
# canonical irreducible factors and linear forms
# ---------------------------------------------------------------------------


def canonical_factor(p: Poly) -> tuple[Poly, Fraction]:
    """Scale p to integer coprime coefficients with positive leading one.

    Returns (canonical, scale) with p == scale * canonical.  Canonical
    factors are what denominator maps are keyed by; their denominator is 1.
    """
    if not p._t:
        raise ValueError("zero polynomial cannot be a factor")
    g = math.gcd(*p._t.values())
    if p._t[max(p._t)] < 0:
        g = -g
    scale = Fraction(g, p._d)
    # primitive integer input (a stored factor, or its image under a signed
    # permutation) needs no rescaling
    if scale == 1:
        return p, scale
    if scale == -1:
        return -p, scale
    return Poly._raw(p.nvars, {k: v // g for k, v in p._t.items()}, 1), scale


@functools.lru_cache(maxsize=256)
def factor_sort_key(f: Poly):
    """Deterministic total order on canonical factors (graded-lex on terms)."""
    return tuple(sorted(f._t.items(), reverse=True))


def sorted_factors(factors: Iterable[Poly]) -> list[Poly]:
    return sorted(factors, key=factor_sort_key, reverse=True)


@functools.lru_cache(maxsize=256)
def _factor_power(f: Poly, e: int) -> Poly:
    """f**e for a canonical factor; products reuse the same few powers."""
    return f**e


def product_pair(a: "ArrFrac", num: Poly, den: Mapping[Poly, int]) -> tuple[Poly, dict[Poly, int]]:
    """The unreduced product a * num / prod f^den as (numerator,
    denominator exponents)."""
    out = dict(a.den)
    for f, e in den.items():
        out[f] = out.get(f, 0) + e
    return a.num * num, out


def sum_pairs(
    nvars: int, pairs: Sequence[tuple[Poly, Mapping[Poly, int]]]
) -> tuple[Poly, dict[Poly, int]]:
    """The unreduced sum of the fractions num / prod f^den.

    Each numerator is lifted to the common denominator (the per-factor
    maximum over the pairs) one factor power at a time (``_lift``), and the
    lifts are added; ``ArrFrac(*sum_pairs(...))`` reduces the sum once, and
    that reduced form is canonical.
    """
    den: dict[Poly, int] = {}
    for _, d in pairs:
        for f, e in d.items():
            if den.get(f, 0) < e:
                den[f] = e
    total = Poly.zero(nvars)
    for num, d in pairs:
        total = total + _lift(num, d, den)
    return total, den


def _lift(num: Poly, d: Mapping[Poly, int], den: Mapping[Poly, int]) -> Poly:
    """The numerator of num / prod f^d over the larger denominator den:
    num multiplied by one cached factor power f^(den_f - d_f) at a time.
    The surplus is never expanded; each product merges terms as it goes."""
    for f, e in den.items():
        surplus = e - d.get(f, 0)
        if surplus > 0:
            num = num * _factor_power(f, surplus)
    return num


def pairs_equal(a: tuple[Poly, Mapping[Poly, int]], b: tuple[Poly, Mapping[Poly, int]]) -> bool:
    """Whether the fractions a = (num, den) and b are equal, compared
    unreduced: N_a / d_a = N_b / d_b exactly when the numerators agree over
    the per-factor maximum of d_a and d_b.  Neither side is reduced."""
    (num_a, den_a), (num_b, den_b) = a, b
    if not num_a or not num_b:
        return not num_a and not num_b
    if den_a == den_b:
        return num_a == num_b
    den = dict(den_a)
    for f, e in den_b.items():
        if den.get(f, 0) < e:
            den[f] = e
    return _lift(num_a, den_a, den) == _lift(num_b, den_b, den)


# ---------------------------------------------------------------------------
# ArrFrac
# ---------------------------------------------------------------------------


class ArrFrac:
    """Rational function with a factored denominator over arrangement forms.

    The invariant maintained by every constructor and operation: the
    numerator is not divisible by any denominator factor, and every stored
    exponent is positive.  A polynomial is an ArrFrac with an empty map.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Mapping[Poly, int] = ()):
        if den:
            work = dict(den)
            if num:
                reduced: dict[Poly, int] = {}
                for f in sorted_factors(work):
                    e = work[f]
                    if e < 0:
                        raise ValueError("denominator exponents must be positive")
                    num, done = strip_factor(num, f, e)
                    if e > done:
                        reduced[f] = e - done
                work = reduced
            else:
                work = {}
        else:
            work = {}
        self.num = num
        self.den = work

    @classmethod
    def _raw(cls, num: Poly, den: dict[Poly, int]) -> "ArrFrac":
        f = object.__new__(cls)
        f.num = num
        f.den = den
        return f

    @classmethod
    def from_poly(cls, p: Poly) -> "ArrFrac":
        return cls._raw(p, {})

    # -- inspection -----------------------------------------------------------

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_polynomial(self) -> bool:
        return not self.den

    def as_poly(self) -> Poly:
        if self.den:
            raise ValueError(f"not a polynomial: {self}")
        return self.num

    def degree(self) -> int:
        """Degree as a rational function; -1 only for zero (num degree convention)."""
        if not self.num:
            return -1
        return self.num.degree() - sum(
            e * f.degree() for f, e in self.den.items()
        )

    # -- equality -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            other = ArrFrac.from_poly(other)
        if not isinstance(other, ArrFrac):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    # -- arithmetic -----------------------------------------------------------

    @staticmethod
    def _coerce(value, nvars) -> "ArrFrac":
        if isinstance(value, ArrFrac):
            return value
        if isinstance(value, Poly):
            return ArrFrac.from_poly(value)
        if isinstance(value, (int, Fraction)):
            return ArrFrac.from_poly(Poly.const(nvars, value))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other, self.nvars)
        if other is NotImplemented:
            return NotImplemented
        if not self.den and not other.den:
            return ArrFrac.from_poly(self.num + other.num)
        return ArrFrac(*sum_pairs(
            self.nvars, [(self.num, self.den), (other.num, other.den)]
        ))

    def __sub__(self, other):
        other = self._coerce(other, self.nvars)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "ArrFrac":
        return ArrFrac._raw(-self.num, dict(self.den))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return ArrFrac.from_poly(Poly.zero(self.nvars))
            return ArrFrac._raw(self.num * other, dict(self.den))
        other = self._coerce(other, self.nvars)
        if other is NotImplemented:
            return NotImplemented
        if not self.num or not other.num:
            return ArrFrac.from_poly(Poly.zero(self.nvars))
        return ArrFrac(*product_pair(self, other.num, other.den))

    __rmul__ = __mul__

    # -- calculus and substitution --------------------------------------------

    def diff(self, index: int) -> "ArrFrac":
        """Partial derivative: the index-th of ``gradient_pairs``, reduced."""
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range")
        return ArrFrac(*self.gradient_pairs()[index])

    def gradient_pairs(self) -> list[tuple[Poly, dict[Poly, int]]]:
        """The l unreduced partial derivatives as (numerator, denominator
        exponents), by one quotient rule on the factored form: with
        u = prod f^e and F = prod f, the i-th numerator over u * F is
        d_i num * F - num * sum_f e_f * d_i f * prod_{g != f} g.  The
        cofactors prod_{g != f} g come once for all i from prefix and suffix
        products, and a linear factor's d_i f enters as a scalar.
        """
        n = self.nvars
        if not self.den:
            return [(self.num.diff(i), {}) for i in range(n)]
        den_new = {f: e + 1 for f, e in self.den.items()}
        factors = sorted_factors(self.den)
        one = Poly.const(n, 1)
        prefix, suffix = [one], [one]
        for f in factors:
            prefix.append(prefix[-1] * f)
        for f in reversed(factors[1:]):
            suffix.append(f * suffix[-1])
        cofactors = [p * s for p, s in zip(prefix, reversed(suffix))]
        pairs = []
        for i in range(n):
            dlog = Poly.zero(n)
            for f, cofactor in zip(factors, cofactors):
                df = f.diff(i)
                if df:
                    e = self.den[f]
                    dlog = dlog + cofactor * (df.constant_value() * e if df.is_constant() else df * e)
            num_new = self.num.diff(i) * prefix[-1]
            if dlog:
                num_new = num_new - self.num * dlog
            pairs.append((num_new, dict(den_new)))
        return pairs

    def substitute_linear(self, matrix) -> "ArrFrac":
        """Replace each x_j by sum_i matrix[i][j] * x_i.  An invertible
        matrix is a ring automorphism s, so the result stays reduced: s(f)
        dividing s(num) would make f divide num, and distinct canonical
        factors map to distinct ones.  A singular matrix is reduced."""
        num = self.num.substitute_linear(matrix)
        scale = _ONE
        den: dict[Poly, int] = {}
        for f, e in self.den.items():
            g, s = canonical_factor(f.substitute_linear(matrix))
            den[g] = den.get(g, 0) + e
            scale = scale * s**e
        num = num * (1 / scale)
        return ArrFrac._raw(num, den) if rat_det(matrix) else ArrFrac(num, den)

    # -- rendering ------------------------------------------------------------

    def __str__(self) -> str:
        if not self.den:
            return str(self.num)
        dens = " * ".join(
            f"({f})^{e}" if e > 1 else f"({f})"
            for f, e in sorted(self.den.items(), key=lambda kv: factor_sort_key(kv[0]), reverse=True)
        )
        return f"({self.num}) / [{dens}]"

    def __repr__(self) -> str:
        return f"ArrFrac({self})"


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class Matrix:
    """Dense matrix over Poly or ArrFrac entries.

    Products and determinants treat a matrix with an ArrFrac entry
    anywhere as a matrix over ArrFrac.
    """

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries: Sequence[Sequence]):
        rows = [list(r) for r in entries]
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged matrix")
        self.rows = len(rows)
        self.cols = cols
        self._e = rows

    @classmethod
    def identity(cls, n: int, nvars: int) -> "Matrix":
        """The n x n identity over Poly in nvars variables; a product with a
        fraction matrix promotes it."""
        return cls.from_rational([[int(i == j) for j in range(n)] for i in range(n)], nvars)

    @classmethod
    def from_rational(cls, grid, nvars: int) -> "Matrix":
        """A matrix of rational constants as constant polynomials; ``@`` and
        ``product_pairs`` promote it wherever the other factor has a
        fraction entry."""
        return cls([[Poly.const(nvars, v) for v in row] for row in grid])

    def __getitem__(self, i: int) -> list:
        return self._e[i]

    def entries(self) -> Iterator[tuple[int, int, object]]:
        for i in range(self.rows):
            for j in range(self.cols):
                yield i, j, self._e[i][j]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "Matrix":
        return Matrix([[self._e[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def map(self, fn) -> "Matrix":
        return Matrix([[fn(v) for v in row] for row in self._e])

    def to_frac(self) -> "Matrix":
        return self.map(lambda v: v if isinstance(v, ArrFrac) else ArrFrac.from_poly(v))

    def has_frac(self) -> bool:
        return any(isinstance(v, ArrFrac) for row in self._e for v in row)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Matrix product.  Over fractions each entry is one sum of the
        unreduced products over their common denominator (``product_pairs``),
        reduced once."""
        if self.has_frac() or other.has_frac():
            return Matrix([[ArrFrac(*pair) for pair in row] for row in self.product_pairs(other)])
        if self.cols != other.rows:
            raise ValueError("matrix shape mismatch")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = None
                for k in range(self.cols):
                    term = self._e[i][k] * other._e[k][j]
                    acc = term if acc is None else acc + term
                row.append(acc)
            out.append(row)
        return Matrix(out)

    def product_pairs(self, other: "Matrix") -> list[list[tuple[Poly, dict[Poly, int]]]]:
        """The entries of self @ other over fractions, unreduced: each is
        the sum of its products over their common denominator, as
        (numerator, denominator exponents)."""
        if self.cols != other.rows:
            raise ValueError("matrix shape mismatch")
        a, b = self.to_frac()._e, other.to_frac()._e
        nvars = a[0][0].nvars
        return [
            [
                sum_pairs(nvars, [
                    product_pair(a[i][k], b[k][j].num, b[k][j].den)
                    for k in range(self.cols)
                    if a[i][k] and b[k][j]
                ])
                for j in range(other.cols)
            ]
            for i in range(self.rows)
        ]

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shape mismatch")
        return Matrix(
            [
                [self._e[i][j] + other._e[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shape mismatch")
        return Matrix(
            [
                [self._e[i][j] - other._e[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __neg__(self) -> "Matrix":
        return self.map(lambda v: -v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(
            self._e[i][j] == other._e[i][j]
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def __str__(self) -> str:
        return "[" + ",\n ".join("[" + ", ".join(str(v) for v in row) + "]" for row in self._e) + "]"

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# determinant and adjugate
# ---------------------------------------------------------------------------


def mat_det_adj(matrix: Matrix) -> tuple[Poly, Matrix]:
    """Exact determinant and adjugate of a square polynomial matrix, with
    det * M^{-1} == adj.

    A fraction-free cofactor expansion along the first remaining row,
    each minor computed once.  A singular matrix yields det == 0 with the
    classical adjugate still valid.  A matrix over ArrFrac raises
    TypeError; its two callers, J(f)^{-1} (``derivations.jf_inverse``) and
    (B^(k))^{-1} (``derivations.step_matrix``), invert polynomial matrices.
    """
    if not matrix.is_square():
        raise ValueError("determinant of a non-square matrix")
    if matrix.has_frac():
        raise TypeError("mat_det_adj takes a polynomial matrix; clear the denominators first")
    n = matrix.rows
    minor = _minor_table(matrix)
    full = (1 << n) - 1
    return minor(full, full), Matrix([_cofactors(matrix, minor, i) for i in range(n)])


def adjugate_row(matrix: Matrix, i: int) -> list[Poly]:
    """Row i of adj M for a square polynomial matrix M: the n cofactors on
    the columns of M other than i, by the minors of ``mat_det_adj``."""
    return _cofactors(matrix, _minor_table(matrix), i)


def _cofactors(matrix: Matrix, minor, i: int) -> list[Poly]:
    """Row i of adj M from the minor table of M: (-1)^(i+j) times the minor
    on the rows other than j and the columns other than i."""
    n = matrix.rows
    if n == 1:
        return [Poly.const(matrix[0][0].nvars, 1)]
    full = (1 << n) - 1
    row = []
    for j in range(n):
        sub = minor(full ^ (1 << j), full ^ (1 << i))
        row.append(-sub if (i + j) & 1 else sub)
    return row


def _minor_table(matrix: Matrix):
    """The minor on a row mask and a column mask, memoised across calls."""
    memo: dict[tuple[int, int], Poly] = {}
    zero = Poly.zero(matrix[0][0].nvars)

    def minor(rmask: int, cmask: int) -> Poly:
        got = memo.get((rmask, cmask))
        if got is not None:
            return got
        r = (rmask & -rmask).bit_length() - 1
        if rmask == (1 << r):
            result = matrix[r][(cmask & -cmask).bit_length() - 1]
        else:
            sub_r = rmask ^ (1 << r)
            result = zero
            sign = 1
            cm = cmask
            while cm:
                c = (cm & -cm).bit_length() - 1
                cm &= cm - 1
                entry = matrix[r][c]
                if entry:
                    sub = minor(sub_r, cmask ^ (1 << c))
                    if sub:
                        t = entry * sub
                        result = result + t if sign > 0 else result - t
                sign = -sign
        memo[(rmask, cmask)] = result
        return result

    return minor


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _coeff_text(v: int, d: int) -> str:
    """str(Fraction(v, d)), formatted from the integer form: a gcd is taken
    only when the denominator is not 1."""
    if d == 1:
        return str(v)
    g = math.gcd(v, d)
    return str(v // g) if g == d else f"{v // g}/{d // g}"


def poly_to_records(p: Poly) -> list[dict]:
    """Terms as JSON-ready records, leading term first (graded-lex order)."""
    shifts, _, _ = _layout(p.nvars)
    t, d = p._t, p._d
    return [{"coefficient": _coeff_text(t[k], d), "exponents": list(_unpack(k, shifts))}
            for k in sorted(t, reverse=True)]


_TERM_TEMPLATES: dict[tuple[str, int], str] = {}


def poly_to_json(p: Poly, nl: str) -> str:
    """The text json.dumps(poly_to_records(p), indent=2) gives at the depth
    whose newline-plus-indent is nl, written from the packed terms with one
    template per (nl, nvars)."""
    t = p._t
    if not t:
        return "[]"
    i0 = nl + "  "
    template = _TERM_TEMPLATES.get((nl, p.nvars))
    if template is None:
        i1, i2 = i0 + "  ", i0 + "    "
        template = _TERM_TEMPLATES[nl, p.nvars] = (
            f'{{{i1}"coefficient": "%s",{i1}"exponents": [{i2}'
            + f",{i2}".join(["%d"] * p.nvars) + f"{i1}]{i0}}}")
    shifts, _, _ = _layout(p.nvars)
    d = p._d
    terms = [template % (_coeff_text(t[k], d), *[(k >> s) & _MASK for s in shifts])
             for k in sorted(t, reverse=True)]
    return "[" + i0 + f",{i0}".join(terms) + nl + "]"


def poly_from_records(records: Iterable[Mapping], nvars: int) -> Poly:
    terms = {}
    for rec in records:
        exps = tuple(rec["exponents"])
        terms[exps] = terms.get(exps, _ZERO) + Fraction(rec["coefficient"])
    return Poly(nvars, terms)


# ---------------------------------------------------------------------------
# small exact linear algebra over the rationals
# ---------------------------------------------------------------------------


def rat_mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum((a[i][t] * b[t][j] for t in range(k) if a[i][t] and b[t][j]), _ZERO)
              for j in range(m))
        for i in range(n)
    )


def product_at(polys: Iterable[Poly], point: Sequence[int]) -> Fraction:
    """The value of the product of polys at an integer point, on the integer
    form: one Fraction for the whole product."""
    powers = [[1] for _ in point]
    num = den = 1
    for p in polys:
        num *= _numerator_at(p, powers, point)
        den *= p._d
    return Fraction(num, den)


def values_at(entries: Iterable["Poly | ArrFrac"], point: Sequence[int]) -> list[Fraction]:
    """The values of polynomials or fractions at an integer point off every
    pole, on the integer form, with one table of the powers of the point
    and each denominator factor evaluated once."""
    powers = [[1] for _ in point]
    at: dict[Poly, int] = {}
    values = []
    for e in entries:
        if isinstance(e, Poly):
            values.append(Fraction(_numerator_at(e, powers, point), e._d))
            continue
        num, den = _numerator_at(e.num, powers, point), e.num._d
        for f, k in e.den.items():
            if f not in at:
                at[f] = _numerator_at(f, powers, point)
            num *= f._d**k
            den *= at[f] ** k
        values.append(Fraction(num, den))
    return values


def det_at(matrix: Matrix, point: Sequence[int]) -> Fraction:
    """det of a polynomial matrix at an integer point, on the integer form:
    each column is evaluated over the lcm of its denominators and the
    integer determinant is taken by fraction-free (Bareiss) elimination."""
    powers = [[1] for _ in point]
    n = matrix.rows
    cols = []
    scale = 1
    for j in range(matrix.cols):
        column = [matrix[i][j] for i in range(n)]
        den = math.lcm(*(e._d for e in column))
        cols.append([_numerator_at(e, powers, point) * (den // e._d) for e in column])
        scale *= den
    a = [list(row) for row in zip(*cols)]
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            pivot = next((r for r in range(k + 1, n) if a[r][k]), None)
            if pivot is None:
                return Fraction(0)
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return Fraction(sign * a[n - 1][n - 1], scale)


def rat_det(a) -> Fraction:
    n = len(a)
    m = [list(map(Fraction, row)) for row in a]
    det = _ONE
    for i in range(n):
        piv = next((r for r in range(i, n) if m[r][i]), None)
        if piv is None:
            return _ZERO
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            det = -det
        det *= m[i][i]
        inv = 1 / m[i][i]
        for r in range(i + 1, n):
            if m[r][i]:
                factor = m[r][i] * inv
                for c in range(i, n):
                    m[r][c] -= factor * m[i][c]
    return det


def rat_mat_inv(a):
    n = len(a)
    m = [list(map(Fraction, row)) + [_ONE if i == j else _ZERO for j in range(n)] for i, row in enumerate(a)]
    for i in range(n):
        piv = next((r for r in range(i, n) if m[r][i]), None)
        if piv is None:
            raise ValueError("singular rational matrix")
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
        inv = 1 / m[i][i]
        m[i] = [v * inv for v in m[i]]
        for r in range(n):
            if r != i and m[r][i]:
                factor = m[r][i]
                m[r] = [v - factor * w for v, w in zip(m[r], m[i])]
    return tuple(tuple(row[n:]) for row in m)
