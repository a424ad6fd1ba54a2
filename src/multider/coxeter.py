"""Catalog of the classical Coxeter arrangements with explicit invariant data.

Each entry fixes one concrete choice of coordinates and basic invariants
for an irreducible reflection arrangement of type A, B (= C), D or I2(m),
and carries everything the derivation pipeline needs: the hyperplane
factors, the defining polynomial Q, the basic invariants f_1 <= ... <= f_l
(by degree), the exponents and Coxeter number, the Gram matrix of the
invariant form in these coordinates, and matrices for a set of generating
reflections.

The types E6..E8, F4, H3 and H4 are intentionally absent: their invariant
data is not part of this catalog.

Correctness of the catalog is load bearing for every certificate built on
top of it, so the numerical relations between the pieces are cross-checked
at construction time rather than trusted:

* deg f_i = m_i + 1 with ascending degrees, h = m_l + 1,
  m_i + m_{l+1-i} = h, and sum m_i = number of hyperplanes;
* every basic invariant is fixed by every stored generator;
* the Gram matrix is symmetric positive definite and invariant under the
  generators;
* Q is anti-invariant under each generator (tested factor by factor);
* det J(f) is a nonzero constant multiple of Q (the constant is stored),
  by Saito's criterion on P_1 = Gram J(f) (``saito``): its columns are in
  D(A) (by exact division along every factor), their degrees m_j sum to
  |A|, and det J(f) is nonzero at one point.

Conventions worth knowing when comparing output against other sources:
hyperplane forms are normalised so the first nonzero coefficient is +1,
and Q is the integer-primitive product of the stored irreducible factors,
so both are fixed only up to the scalars these choices pin down.

For I2(m) the realisation is orthonormal (Gram = identity) with
f2 = Re((x1 + i x2)^m).  In these coordinates the individual mirror lines
are rational only in degenerate cases (m = 4 most notably), so the
hyperplane list stores the irreducible-over-Q factors of Q; a factor of
degree d > 1 groups a Galois orbit of d mirror lines, and membership
along them is tested through q(t, 1), exactly for each line (see
``verify``).  Likewise only the mirrors that are rational lines yield
rational reflection matrices, so for m other than 4 the stored generators
span a proper subgroup; the invariance assertions run over what is
representable.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

from .exactpoly import (
    Matrix,
    Poly,
    canonical_factor,
    divide_exact,
    rat_det,
    rat_mat_mul,
    sorted_factors,
)
from .saito import membership_failure, membership_witness, saito_constant

__all__ = [
    "CoxeterSystem",
    "CatalogError",
    "build_system",
    "get_system",
    "parse_key",
    "symmetric_polys",
    "catalog_entries",
]


class CatalogError(RuntimeError):
    """An internal consistency check of a catalog entry failed."""


class CoxeterSystem:
    """Immutable bundle of arrangement data for one catalog entry."""

    __slots__ = (
        "key",
        "family",
        "rank",
        "order_param",
        "factors",
        "invariants",
        "exponents",
        "h",
        "gram",
        "generators",
        "_q_poly",
        "det_jf_constant",
        "orbit_level",
    )

    def __init__(self, key, family, rank, order_param, factors, invariants,
                 exponents, gram, generators):
        self.key = key
        self.family = family
        self.rank = rank
        self.order_param = order_param
        self.factors = tuple(sorted_factors(factors))
        self.invariants = tuple(invariants)
        self.exponents = tuple(exponents)
        self.h = self.exponents[-1] + 1
        self.gram = tuple(tuple(Fraction(v) for v in row) for row in gram)
        self.generators = tuple(
            tuple(tuple(Fraction(v) for v in row) for row in g) for g in generators
        )
        self._q_poly = None
        self.orbit_level = any(f.degree() > 1 for f in self.factors)
        self.det_jf_constant = _certify(self)

    @property
    def nvars(self) -> int:
        return self.rank

    @property
    def q_poly(self) -> Poly:
        """Q expanded, built on first use: no certificate needs it."""
        if self._q_poly is None:
            q = Poly.const(self.rank, 1)
            for f in self.factors:
                q = q * f
            self._q_poly = q
        return self._q_poly

    @property
    def num_hyperplanes(self) -> int:
        return sum(f.degree() for f in self.factors)

    @property
    def q_factor_map(self) -> dict[Poly, int]:
        return dict.fromkeys(self.factors, 1)

    def jacobian_of_invariants(self) -> Matrix:
        return Matrix(
            [[fj.diff(i) for fj in self.invariants] for i in range(self.rank)]
        )

    def gram_matrix(self, frac: bool = False) -> Matrix:
        return Matrix.from_rational(self.gram, self.rank, frac=frac)

    def describe(self) -> dict:
        return {
            "key": self.key,
            "family": self.family,
            "rank": self.rank,
            "coxeter_number": self.h,
            "exponents": list(self.exponents),
            "num_hyperplanes": self.num_hyperplanes,
            "invariant_degrees": [f.degree() for f in self.invariants],
            "orbit_level_membership": self.orbit_level,
        }

    def __repr__(self) -> str:
        return f"CoxeterSystem({self.key})"


# ---------------------------------------------------------------------------
# symmetric polynomial building blocks
# ---------------------------------------------------------------------------


def symmetric_polys(kind: str, i: int, ell: int) -> Poly:
    """Classical symmetric polynomials in ell variables.

    kind "complete_sq" is the complete homogeneous symmetric polynomial
    evaluated at squared variables (degree 2i, invariant for type B); it is
    zero for i < 0 and one for i = 0.  "elementary" and "power_sum" are the
    usual e_i and p_i.
    """
    if ell < 1:
        raise ValueError("ell must be positive")
    if kind == "complete_sq":
        if i < 0:
            return Poly.zero(ell)
        terms: dict[tuple[int, ...], Fraction] = {}
        for combo in itertools.combinations_with_replacement(range(ell), i):
            exps = [0] * ell
            for j in combo:
                exps[j] += 2
            terms[tuple(exps)] = Fraction(1)
        return Poly(ell, terms) if terms else Poly.const(ell, 1)
    if kind == "elementary":
        if i < 0 or i > ell:
            return Poly.zero(ell)
        terms = {}
        for combo in itertools.combinations(range(ell), i):
            exps = [0] * ell
            for j in combo:
                exps[j] = 1
            terms[tuple(exps)] = Fraction(1)
        return Poly(ell, terms) if terms else Poly.const(ell, 1)
    if kind == "power_sum":
        if i < 0:
            return Poly.zero(ell)
        if i == 0:
            return Poly.const(ell, ell)
        terms = {}
        for j in range(ell):
            exps = [0] * ell
            exps[j] = i
            terms[tuple(exps)] = Fraction(1)
        return Poly(ell, terms)
    raise ValueError(f"unknown symmetric polynomial kind: {kind!r}")


# ---------------------------------------------------------------------------
# family builders
# ---------------------------------------------------------------------------


def _transposition(n, a, b):
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    rows[a][a] = rows[b][b] = Fraction(0)
    rows[a][b] = rows[b][a] = Fraction(1)
    return rows


def _build_b(rank: int) -> CoxeterSystem:
    xs = [Poly.variable(rank, i) for i in range(rank)]
    factors = [canonical_factor(x)[0] for x in xs]
    for i, j in itertools.combinations(range(rank), 2):
        factors.append(canonical_factor(xs[i] - xs[j])[0])
        factors.append(canonical_factor(xs[i] + xs[j])[0])
    invariants = [
        sum((x ** (2 * i) for x in xs), Poly.zero(rank)) * Fraction(1, 2 * i)
        for i in range(1, rank + 1)
    ]
    exponents = [2 * i - 1 for i in range(1, rank + 1)]
    gram = [[Fraction(int(i == j)) for j in range(rank)] for i in range(rank)]
    flip = [[Fraction(int(i == j)) for j in range(rank)] for i in range(rank)]
    flip[0][0] = Fraction(-1)
    generators = [flip] + [_transposition(rank, i, i + 1) for i in range(rank - 1)]
    return CoxeterSystem(f"B{rank}", "B", rank, None, factors, invariants,
                         exponents, gram, generators)


def _build_d(rank: int) -> CoxeterSystem:
    if rank < 3:
        raise ValueError("type D needs rank >= 3")
    xs = [Poly.variable(rank, i) for i in range(rank)]
    factors = []
    for i, j in itertools.combinations(range(rank), 2):
        factors.append(canonical_factor(xs[i] - xs[j])[0])
        factors.append(canonical_factor(xs[i] + xs[j])[0])
    power = [
        sum((x ** (2 * i) for x in xs), Poly.zero(rank)) * Fraction(1, 2 * i)
        for i in range(1, rank)
    ]
    e_top = symmetric_polys("elementary", rank, rank)
    invariants = sorted(power + [e_top], key=lambda f: (f.degree(), len(f) == rank))
    exponents = [f.degree() - 1 for f in invariants]
    gram = [[Fraction(int(i == j)) for j in range(rank)] for i in range(rank)]
    twist = [[Fraction(int(i == j)) for j in range(rank)] for i in range(rank)]
    twist[0][0] = twist[1][1] = Fraction(0)
    twist[0][1] = twist[1][0] = Fraction(-1)
    generators = [_transposition(rank, i, i + 1) for i in range(rank - 1)] + [twist]
    return CoxeterSystem(f"D{rank}", "D", rank, None, factors, invariants,
                         exponents, gram, generators)


def _build_a(rank: int) -> CoxeterSystem:
    """Type A_rank realised essentially: coordinates are the restrictions of
    the first rank ambient coordinates to the hyperplane where all rank+1
    of them sum to zero, i.e. the last one is substituted by minus the sum."""
    n = rank + 1
    xs = [Poly.variable(rank, i) for i in range(rank)]
    total = sum(xs, Poly.zero(rank))
    images = xs + [-total]

    def power_sum_sub(k: int) -> Poly:
        return sum((im**k for im in images), Poly.zero(rank))

    invariants = [power_sum_sub(k) for k in range(2, rank + 2)]
    exponents = list(range(1, rank + 1))
    factors = []
    for i, j in itertools.combinations(range(n), 2):
        factors.append(canonical_factor(images[i] - images[j])[0])
    # Gram matrix of the restricted coordinates: inner products of the
    # projections of the ambient orthonormal basis onto the sum-zero space.
    proj = [
        [Fraction(int(i == k)) - Fraction(1, n) for k in range(n)]
        for i in range(rank)
    ]
    gram = [
        [sum((proj[i][k] * proj[j][k] for k in range(n)), Fraction(0))
         for j in range(rank)]
        for i in range(rank)
    ]
    generators = [_transposition(rank, i, i + 1) for i in range(rank - 1)]
    last = [[Fraction(int(i == j)) for j in range(rank)] for i in range(rank)]
    for i in range(rank):
        last[i][rank - 1] = Fraction(-1)
    generators.append(last)
    return CoxeterSystem(f"A{rank}", "A", rank, None, factors, invariants,
                         exponents, gram, generators)


def _dihedral_re_im(m: int) -> tuple[Poly, Poly]:
    """Re((x1 + i x2)^m) and Im((x1 + i x2)^m) as integer polynomials."""
    re_terms: dict[tuple[int, int], Fraction] = {}
    im_terms: dict[tuple[int, int], Fraction] = {}
    for k in range(m + 1):
        c = Fraction(math.comb(m, k))
        if k % 2 == 0:
            re_terms[(m - k, k)] = c * (-1) ** (k // 2)
        else:
            im_terms[(m - k, k)] = c * (-1) ** ((k - 1) // 2)
    return Poly(2, re_terms), Poly(2, im_terms)


def _exact_quotient(num: Poly, divisors) -> Poly:
    for div in divisors:
        quotient = divide_exact(num, div)
        if quotient is None:
            raise CatalogError(f"cyclotomic factor {div} does not divide {num}")
        num = quotient
    return num


def _rational_irreducible_factors(m: int) -> list[Poly]:
    """Irreducible factors over Q of Im((x1 + i x2)^m), by cyclotomic grouping.

    With t = x1/x2, the mirror lines other than x2 = 0 are the roots of
    L_m(t) = ((t+i)^m - (t-i)^m)/2i, i.e. the t with w = (t+i)/(t-i) an m-th
    root of unity other than 1.  Grouping them by the order d of w, for
    d | m, gives the factors G_d = L_d / prod_{e | d, e < d} G_e of degree
    phi(d); homogenised, Im((x1 + i x2)^d) = prod_{e | d} G_e with G_1 = x2.
    When 4 | d, G_d splits by the value of w^(d/4) (i or -i) into A_d B_d,
    where A_d is (1+i)((t+i)^(d/4) - i(t-i)^(d/4)) = 2 (Re - Im)(t+i)^(d/4)
    divided by A_e (d/e = 1 mod 4) or B_e (d/e = 3 mod 4) for every e < d
    with 4 | e and d/e odd.  Every quotient is checked to be exact.
    """
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    g: dict[int, Poly] = {}
    a: dict[int, Poly] = {}
    b: dict[int, Poly] = {}
    out = []
    for d in divisors:
        g[d] = _exact_quotient(_dihedral_re_im(d)[1],
                               [g[e] for e in g if d % e == 0])
        if d % 4:
            out.append(g[d])
            continue
        re_n, im_n = _dihedral_re_im(d // 4)
        a[d] = _exact_quotient(re_n - im_n, [
            a[e] if (d // e) % 4 == 1 else b[e]
            for e in a if d % e == 0 and (d // e) % 2 == 1
        ])
        b[d] = _exact_quotient(g[d], [a[d]])
        out += [a[d], b[d]]
    return [canonical_factor(f)[0] for f in out]


def _build_i2(m: int) -> CoxeterSystem:
    if m < 3:
        raise ValueError("I2(m) needs m >= 3")
    re_m = _dihedral_re_im(m)[0]
    x1 = Poly.variable(2, 0)
    x2 = Poly.variable(2, 1)
    f1 = (x1**2 + x2**2) * Fraction(1, 2)
    invariants = [f1, re_m]
    exponents = [1, m - 1]
    factors = _rational_irreducible_factors(m)
    gram = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    generators = [[[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]]
    if m % 2 == 0:
        generators.append([[Fraction(-1), Fraction(0)], [Fraction(0), Fraction(1)]])
    if m % 4 == 0:
        generators.append([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    return CoxeterSystem(f"I2({m})", "I2", 2, m, factors, invariants,
                         exponents, gram, generators)


# ---------------------------------------------------------------------------
# construction-time certification
# ---------------------------------------------------------------------------


def _certify(system: CoxeterSystem) -> Fraction:
    ell = system.rank
    degs = [f.degree() for f in system.invariants]
    if degs != sorted(degs):
        raise CatalogError(f"{system.key}: invariant degrees not ascending")
    if [d - 1 for d in degs] != list(system.exponents):
        raise CatalogError(f"{system.key}: exponents do not match invariant degrees")
    if sum(system.exponents) != system.num_hyperplanes:
        raise CatalogError(f"{system.key}: exponent sum != number of hyperplanes")
    if system.h != system.exponents[-1] + 1:
        raise CatalogError(f"{system.key}: Coxeter number mismatch")
    for i in range(ell):
        if system.exponents[i] + system.exponents[ell - 1 - i] != system.h:
            raise CatalogError(f"{system.key}: exponent duality broken at {i}")

    for row in range(ell):
        for col in range(row):
            if system.gram[row][col] != system.gram[col][row]:
                raise CatalogError(f"{system.key}: Gram matrix not symmetric")
    for k in range(1, ell + 1):
        minor = [row[:k] for row in system.gram[:k]]
        if rat_det(minor) <= 0:
            raise CatalogError(f"{system.key}: Gram matrix not positive definite")

    for g in system.generators:
        if rat_mat_mul(rat_mat_mul(_transpose(g), system.gram), g) != system.gram:
            raise CatalogError(f"{system.key}: generator does not preserve the form")
        for f in system.invariants:
            if f.substitute_linear(g) != f:
                raise CatalogError(f"{system.key}: invariant not fixed by a generator")
        _check_anti_invariance(system, g)

    # Saito's criterion at m = 1 on P_1 = Gram J(f), whose column j has
    # degree m_j: membership, sum m_j = |A| (checked above) and one
    # evaluation give det P_1 = det Gram det J(f) = c Q.
    jf = system.jacobian_of_invariants()
    failure = membership_failure(system.factors, system.gram_matrix() @ jf, 1)
    if failure is not None:
        raise CatalogError(f"{system.key}: a column of Gram J(f) is not in D(A): "
                           f"{membership_witness(system.factors, failure)}")
    # J(f) has the column degrees of P_1 and det J(f)(p) != 0 iff det P_1(p) != 0
    constant, witness = saito_constant(jf, system.factors, 1)
    if constant is None:
        raise CatalogError(
            f"{system.key}: det J(f) is not a nonzero constant multiple of Q: {witness}"
        )
    return constant


def _check_anti_invariance(system: CoxeterSystem, g) -> None:
    """Q(g x) = det(g) Q(x), tested factor by factor.

    Each factor's image is scale * canonical factor; by unique
    factorisation Q is anti-invariant iff the canonical images permute
    the stored factors and the scales multiply to det(g).  This avoids
    substituting the expanded Q.
    """
    images = [canonical_factor(f.substitute_linear(g)) for f in system.factors]
    scale = Fraction(1)
    for _, s in images:
        scale *= s
    if {f for f, _ in images} != set(system.factors) or scale != rat_det(g):
        raise CatalogError(f"{system.key}: Q not anti-invariant under a generator")


def _transpose(g):
    n = len(g)
    return tuple(tuple(g[j][i] for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# public catalog interface
# ---------------------------------------------------------------------------

_SYSTEM_CACHE: dict[tuple, CoxeterSystem] = {}

_KEY_RE = re.compile(r"^([ABD])(\d+)$|^I2\((\d+)\)$", re.IGNORECASE)


def build_system(family: str, rank: int, order_param: int | None = None) -> CoxeterSystem:
    """Construct (and certify) a catalog entry.

    Supported: A_l (l >= 1), B_l (= C_l, l >= 1), D_l (l >= 3; D3 carries
    the A3 numerology and is kept as an independent cross-check), and
    I2(m) with m >= 3 and rank 2.
    """
    family = family.upper()
    cache_key = (family, rank, order_param)
    cached = _SYSTEM_CACHE.get(cache_key)
    if cached is not None:
        return cached
    if rank < 1:
        raise ValueError("rank must be positive")
    if family == "A":
        system = _build_a(rank)
    elif family == "B":
        system = _build_b(rank)
    elif family == "D":
        system = _build_d(rank)
    elif family == "I2":
        if rank != 2:
            raise ValueError("I2(m) has rank 2")
        if order_param is None:
            raise ValueError("I2 needs its order parameter m")
        system = _build_i2(order_param)
    else:
        raise ValueError(f"unsupported family: {family!r}")
    _SYSTEM_CACHE[cache_key] = system
    return system


def parse_key(key: str) -> tuple[str, int, int | None]:
    m = _KEY_RE.match(key.strip())
    if not m:
        raise KeyError(f"unrecognised system key: {key!r}")
    if m.group(3) is not None:
        return "I2", 2, int(m.group(3))
    return m.group(1).upper(), int(m.group(2)), None


def get_system(key: str) -> CoxeterSystem:
    family, rank, order = parse_key(key)
    return build_system(family, rank, order)


def catalog_entries(max_rank: int = 5, dihedral_orders=(3, 4, 5, 6, 7, 8)) -> list[CoxeterSystem]:
    """The default systems listed by the command line catalog."""
    out = []
    for rank in range(1, max_rank + 1):
        out.append(build_system("A", rank))
    for rank in range(2, max_rank + 1):
        out.append(build_system("B", rank))
    for rank in range(3, max_rank + 1):
        out.append(build_system("D", rank))
    for m in dihedral_orders:
        out.append(build_system("I2", 2, m))
    return out
