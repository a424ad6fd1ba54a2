"""Exact sparse multivariate polynomials and arrangement-factored fractions.

Everything downstream (invariant catalogs, primitive-derivation pipeline,
determinant certificates) rests on the guarantee that arithmetic here is
exact.  Coefficients are exact rationals; nothing is ever rounded, and
equality of polynomials is literal equality of their canonical form.

Representations:

* ``Poly``: sparse polynomial.  Its coefficients are Python ints over one
  positive common denominator, coprime to all of them, so every kernel
  runs on integers; ``fractions.Fraction`` appears only where values enter
  or leave (the constructor, ``items``, ``coefficient``, ``leading``,
  ``constant_value``, ``product_at``, ``det_at``, rendering, and the scales
  returned by ``is_constant_multiple`` and ``canonical_factor``).  Terms are stored in
  a dict keyed by a packed integer encoding of the exponent vector.  The
  packing puts the total degree in the most significant field, followed
  by the exponents of x1, x2, ... in order, so comparing packed keys as
  plain integers is exactly the graded lexicographic order.  That gives
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
  term by term.  No certificate takes the determinant of a large
  polynomial matrix: ``saito`` evaluates it at one point instead.

All values are immutable after construction; all operations are pure.
"""

from __future__ import annotations

import functools
import heapq
import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Poly",
    "ArrFrac",
    "Matrix",
    "UnsupportedDenominator",
    "divide_exact",
    "is_constant_multiple",
    "canonical_factor",
    "expand_factor_powers",
    "mat_det_adj",
    "poly_to_records",
    "poly_from_records",
    "rat_mat_mul",
    "rat_mat_inv",
    "rat_det",
    "det_at",
    "product_at",
    "binary_components",
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


class UnsupportedDenominator(ValueError):
    """A division produced a denominator outside the arrangement factors.

    Carries the irreducible residual as a witness.  In the derivation
    pipeline this is unreachable (all determinants are constant multiples
    of powers of the defining polynomial); seeing it means a bug, so it is
    surfaced loudly instead of being generalised away.
    """

    def __init__(self, residual: "Poly"):
        super().__init__(
            f"denominator does not factor over the arrangement forms: {residual}"
        )
        self.residual = residual


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

    def __rsub__(self, other):
        return (-self) + other

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
        is the contragredient action on polynomials.
        """
        n = self.nvars
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("substitution matrix size does not match nvars")
        if not self._t:
            return self
        shifts, deg_shift, _ = _layout(n)

        # Fast path: signed permutation matrices (ubiquitous as reflection
        # generators): remap exponents and track the sign.
        perm = _signed_permutation(matrix, n)
        if perm is not None:
            out: dict[int, int] = {}
            for k, c in self._t.items():
                key = k & ~(((1 << deg_shift) - 1))  # keep degree field
                sign = 1
                for j in range(n):
                    e = (k >> shifts[j]) & _MASK
                    if e:
                        i, sgn = perm[j]
                        key |= e << shifts[i]
                        if sgn < 0 and (e & 1):
                            sign = -sign
                out[key] = c if sign > 0 else -c
            return Poly._raw(n, out, self._d)

        images = []
        for j in range(n):
            ints, den = _over_lcm({
                (1 << shifts[i]) | (1 << deg_shift): Fraction(matrix[i][j])
                for i in range(n)
                if matrix[i][j]
            })
            images.append(Poly._raw(n, ints, den))
        return self._evaluate(images)

    def substitute_polys(self, images: Sequence["Poly"]) -> "Poly":
        """Evaluate self at arbitrary polynomial arguments, one per variable."""
        n = self.nvars
        if len(images) != n:
            raise ValueError("need one image polynomial per variable")
        if not self._t:
            return Poly.zero(images[0].nvars if images else n)
        return self._evaluate(images)

    def _evaluate(self, images: Sequence["Poly"]) -> "Poly":
        """sum_k c_k prod_j images[j]^e_kj, on the integer numerators of self."""
        n = self.nvars
        m = images[0].nvars
        shifts, _, _ = _layout(n)
        power_cache: list[dict[int, Poly]] = [dict() for _ in range(n)]

        def img_power(j: int, e: int) -> Poly:
            cache = power_cache[j]
            got = cache.get(e)
            if got is None:
                got = images[j] ** e
                cache[e] = got
            return got

        acc = Poly.zero(m)
        for k, c in sorted(self._t.items(), reverse=True):
            term = Poly._raw(m, {0: c}, 1)
            for j in range(n):
                e = (k >> shifts[j]) & _MASK
                if e:
                    term = term * img_power(j, e)
            acc = acc + term
        return _canon(m, acc._t, acc._d * self._d)

    # -- rendering ------------------------------------------------------------

    def __str__(self) -> str:
        if not self._t:
            return "0"
        parts: list[str] = []
        for exps, c in self.items():
            factors = [
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(exps)
                if e
            ]
            mono = "*".join(factors)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
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


def _signed_permutation(matrix, n) -> list[tuple[int, int]] | None:
    """Return [(target index, sign)] per column when matrix is a signed permutation."""
    perm: list[tuple[int, int]] = []
    seen = set()
    for j in range(n):
        hit = None
        for i in range(n):
            v = matrix[i][j]
            if v:
                if hit is not None or v not in (1, -1):
                    return None
                hit = (i, 1 if v == 1 else -1)
        if hit is None or hit[0] in seen:
            return None
        seen.add(hit[0])
        perm.append(hit)
    return perm


# ---------------------------------------------------------------------------
# multiplication kernels
# ---------------------------------------------------------------------------


def _mul_poly(a: Poly, b: Poly) -> Poly:
    if not a._t or not b._t:
        return Poly.zero(a.nvars)
    ia, ib = a._t, b._t
    if len(ia) > len(ib):
        ia, ib = ib, ia
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
    if num.nvars != div.nvars:
        raise ValueError("variable count mismatch in division")
    if not div._t:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num._t:
        return num
    n = num.nvars
    g = math.gcd(*div._t.values())
    dt = div._t if g == 1 else {k: v // g for k, v in div._t.items()}

    if len(dt) == 1:
        # a primitive monomial is +-x^kd
        (kd, sign), = dt.items()
        _, _, guard = _layout(n)
        q = {}
        for k, c in num._t.items():
            if (((k | guard) - kd) & guard) != guard:
                return None
            q[k - kd] = c * sign
    elif div.degree() == 1 and div.is_homogeneous():
        # dedicated kernel for linear forms, the divisors that dominate the
        # reduction work of the pipeline
        q = _divide_linear(n, num._t, dt)
    else:
        q = _divide_general(n, num._t, dt)
    if q is None:
        return None
    # num / div = (N / num._d) / ((g / div._d) * P) = Q * div._d / (g * num._d)
    dd = div._d
    if dd != 1:
        q = {k: v * dd for k, v in q.items()}
    return _canon(n, q, g * num._d)


def _divide_linear(n: int, nt: dict[int, int], dt: dict[int, int]) -> dict[int, int] | None:
    """Synthetic division by a primitive homogeneous linear form.

    Writing the divisor as c_a x_a + S (x_a its graded-lex leading
    variable) and the numerator as sum x_a^i P_i, the quotient levels
    satisfy Q_{i-1} = (P_i - S Q_i) / c_a descending from the top, with
    remainder P_0 - S Q_0 that must vanish identically.  Every level is
    integral when the division is exact, so a coefficient that c_a does
    not divide ends the search at once.  Cost is linear in the number of
    terms times the divisor width, and no heap is needed because every
    generated key stays on its x_a level.
    """
    shifts, deg_shift, _ = _layout(n)
    items = sorted(dt.items(), reverse=True)
    (k1, c1) = items[0]
    a_idx = next(i for i, s in enumerate(shifts) if (k1 >> s) & _MASK)
    sa = shifts[a_idx]
    rest = []
    for k2, c2 in items[1:]:
        b_idx = next(i for i, s in enumerate(shifts) if (k2 >> s) & _MASK)
        rest.append(((1 << shifts[b_idx]) - (1 << sa), -c2))

    levels: dict[int, dict[int, int]] = {}
    for k, v in nt.items():
        levels.setdefault((k >> sa) & _MASK, {})[k] = v
    d = max(levels)
    if d == 0:
        return None

    one_a = (1 << sa) | (1 << deg_shift)
    quotient: dict[int, int] = {}
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
        quotient.update(cur)
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


def _divide_general(n: int, nt: dict[int, int], dt: dict[int, int]) -> dict[int, int] | None:
    """Leading-term division by a primitive divisor, with a lazy max-heap
    over the working remainder."""
    _, _, guard = _layout(n)
    kd = max(dt)
    cd = dt[kd]
    rest = [(k, c) for k, c in sorted(dt.items(), reverse=True) if k != kd]

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


def factor_sort_key(f: Poly):
    """Deterministic total order on canonical factors (graded-lex on terms)."""
    return tuple(sorted(f._t.items(), reverse=True))


def sorted_factors(factors: Iterable[Poly]) -> list[Poly]:
    return sorted(factors, key=factor_sort_key, reverse=True)


@functools.lru_cache(maxsize=256)
def _factor_power(f: Poly, e: int) -> Poly:
    """f**e for a canonical factor; products reuse the same few powers."""
    return f**e


def expand_factor_powers(nvars: int, powers: Mapping[Poly, int]) -> Poly:
    """The polynomial prod f^e over a factor-exponent map."""
    acc = Poly.const(nvars, 1)
    for f in sorted_factors(powers):
        e = powers[f]
        if e:
            acc = acc * _factor_power(f, e)
    return acc


def _common_denominator(
    nvars: int, pairs: Sequence[tuple[Poly, Mapping[Poly, int]]]
) -> tuple[list[Poly], dict[Poly, int]]:
    """Rewrite the fractions num / prod f^den over one denominator.

    The common denominator is the per-factor maximum over the pairs.
    Returns (numerators, denominator), numerators in the order of pairs.
    """
    den: dict[Poly, int] = {}
    for _, d in pairs:
        for f, e in d.items():
            if den.get(f, 0) < e:
                den[f] = e
    nums = []
    for num, d in pairs:
        lift = {f: e - d.get(f, 0) for f, e in den.items() if e > d.get(f, 0)}
        nums.append(num * expand_factor_powers(nvars, lift) if lift else num)
    return nums, den


def _product_pair(a: "ArrFrac", b: "ArrFrac") -> tuple[Poly, dict[Poly, int]]:
    """The unreduced product a * b as (numerator, denominator exponents)."""
    den = dict(a.den)
    for f, e in b.den.items():
        den[f] = den.get(f, 0) + e
    return a.num * b.num, den


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
                    while e > 0:
                        q = divide_exact(num, f)
                        if q is None:
                            break
                        num = q
                        e -= 1
                    if e:
                        reduced[f] = e
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

    def __hash__(self) -> int:
        return hash((self.num, frozenset(self.den.items())))

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
        (na, nb), den = _common_denominator(
            self.nvars, [(self.num, self.den), (other.num, other.den)]
        )
        return ArrFrac(na + nb, den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other, self.nvars)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

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
        return ArrFrac(*_product_pair(self, other))

    __rmul__ = __mul__

    def inverse(self, extra_factors: Iterable[Poly] = ()) -> "ArrFrac":
        """Reciprocal, factoring the numerator over known arrangement forms.

        Raises UnsupportedDenominator when the numerator does not reduce to
        a constant against the candidate factors.
        """
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        candidates = dict.fromkeys(list(self.den) + list(extra_factors))
        rem = self.num
        new_den: dict[Poly, int] = {}
        for f in sorted_factors(candidates):
            while True:
                q = divide_exact(rem, f)
                if q is None:
                    break
                rem = q
                new_den[f] = new_den.get(f, 0) + 1
        if not rem.is_constant():
            raise UnsupportedDenominator(rem)
        c = rem.constant_value()
        new_num = expand_factor_powers(self.nvars, self.den) * (1 / c)
        return ArrFrac(new_num, new_den)

    def div(self, other, extra_factors: Iterable[Poly] = ()) -> "ArrFrac":
        other = self._coerce(other, self.nvars)
        return self * other.inverse(extra_factors)

    def __truediv__(self, other):
        return self.div(other)

    # -- calculus and substitution --------------------------------------------

    def diff(self, index: int) -> "ArrFrac":
        """Partial derivative via the quotient rule on the factored form.

        With u = prod f^e the result is (num' * prod f - num * dlog) / (u * prod f)
        where dlog = sum_f e_f * f' * prod_{g != f} g, assembled with
        prefix/suffix products so each factor is touched once.
        """
        if not self.den:
            return ArrFrac.from_poly(self.num.diff(index))
        den_new = {f: e + 1 for f, e in self.den.items()}
        factors = sorted_factors(self.den)
        n = len(factors)
        one = Poly.const(self.nvars, 1)
        prefix = [one]
        for f in factors:
            prefix.append(prefix[-1] * f)
        suffix = [one] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix[i] = suffix[i + 1] * factors[i]
        prod_all = prefix[n]
        dlog = Poly.zero(self.nvars)
        for i, f in enumerate(factors):
            df = f.diff(index)
            if df:
                dlog = dlog + (prefix[i] * suffix[i + 1]) * df * self.den[f]
        num_new = self.num.diff(index) * prod_all
        if dlog:
            num_new = num_new - self.num * dlog
        return ArrFrac(num_new, den_new)

    def substitute_linear(self, matrix) -> "ArrFrac":
        num = self.num.substitute_linear(matrix)
        scale = _ONE
        den: dict[Poly, int] = {}
        for f, e in self.den.items():
            g, s = canonical_factor(f.substitute_linear(matrix))
            den[g] = den.get(g, 0) + e
            scale = scale * s**e
        return ArrFrac(num * (1 / scale), den)

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
    def identity(cls, n: int, nvars: int, frac: bool = False) -> "Matrix":
        one = Poly.const(nvars, 1)
        zero = Poly.zero(nvars)
        if frac:
            one, zero = ArrFrac.from_poly(one), ArrFrac.from_poly(zero)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def from_rational(cls, grid, nvars: int, frac: bool = False) -> "Matrix":
        def lift(v):
            p = Poly.const(nvars, v)
            return ArrFrac.from_poly(p) if frac else p

        return cls([[lift(v) for v in row] for row in grid])

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

    def to_poly(self) -> "Matrix":
        def conv(v):
            return v.as_poly() if isinstance(v, ArrFrac) else v

        return self.map(conv)

    def has_frac(self) -> bool:
        return any(isinstance(v, ArrFrac) for row in self._e for v in row)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Matrix product.  Over fractions each entry is one sum of the
        unreduced products over their common denominator, reduced once."""
        if self.cols != other.rows:
            raise ValueError("matrix shape mismatch")
        if self.has_frac() or other.has_frac():
            a, b = self.to_frac()._e, other.to_frac()._e
            nvars = a[0][0].nvars
            out = []
            for i in range(self.rows):
                row = []
                for j in range(other.cols):
                    pairs = [
                        _product_pair(a[i][k], b[k][j])
                        for k in range(self.cols)
                        if a[i][k] and b[k][j]
                    ]
                    nums, den = _common_denominator(nvars, pairs)
                    row.append(ArrFrac(sum(nums, Poly.zero(nvars)), den))
                out.append(row)
            return Matrix(out)
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

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self @ other
        return self.map(lambda v: v * other)

    __rmul__ = __mul__

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
    classical adjugate still valid.  A matrix over ArrFrac is cleared of
    its denominators by the caller (as ``verify._jacobian_inverse`` does).
    """
    if not matrix.is_square():
        raise ValueError("determinant of a non-square matrix")
    if matrix.has_frac():
        raise TypeError("mat_det_adj takes a polynomial matrix; clear the denominators first")
    n = matrix.rows
    minor = _minor_table(matrix)
    full = (1 << n) - 1
    det = minor(full, full)
    if n == 1:
        return det, Matrix([[Poly.const(det.nvars, 1)]])
    adj_rows = []
    for i in range(n):
        row = []
        for j in range(n):
            sub = minor(full ^ (1 << j), full ^ (1 << i))
            row.append(-sub if (i + j) & 1 else sub)
        adj_rows.append(row)
    return det, Matrix(adj_rows)


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


def poly_to_records(p: Poly) -> list[dict]:
    """Terms as JSON-ready records, leading term first (graded-lex order).

    Each coefficient prints as str(Fraction(v, d)) would, formatted from
    the integer form: a gcd is taken only when the denominator is not 1.
    """
    shifts, _, _ = _layout(p.nvars)
    t, d = p._t, p._d
    out = []
    for k in sorted(t, reverse=True):
        v = t[k]
        if d == 1:
            text = str(v)
        else:
            g = math.gcd(v, d)
            text = str(v // g) if g == d else f"{v // g}/{d // g}"
        out.append({"coefficient": text, "exponents": list(_unpack(k, shifts))})
    return out


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
