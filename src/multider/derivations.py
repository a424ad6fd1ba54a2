"""The primitive-derivation pipeline over a catalog arrangement.

Given a catalog system with basic invariants f_1, ..., f_l (degrees
ascending) the primitive derivation D is the derivation of the fraction
field with D f_i = 0 for i < l and D f_l = 1.  Its coordinate vector
(D x_1, ..., D x_l) is the bottom row of J(f)^{-1} (``jf_inverse``,
memoised), and iterating D on the coordinates produces the rational vectors
D^k x whose poles lie along the arrangement only.  Every application of D
(``apply_derivation``) is one sum over a common denominator
(``derivation_pair``), reduced once.

From these the module constructs:

* ``p_matrix``: the l x l polynomial matrix whose columns are the
  coefficient vectors of a free basis of the module D^(m) of derivations
  theta with theta(alpha_H) divisible by alpha_H^m for every hyperplane:
  P_0 = Gram and P_m = P_{m-1} C_m, with the step matrix C_m = J(f) for
  odd m and -(B^(m/2))^{-1} P_1^T for even m (``step_matrix``; det B^(m/2)
  is a nonzero constant).  Columns have degree k*h (even m) or k*h + m_j
  (odd m), k = m // 2.  Each step forms one entry per orbit of the
  signed-permutation generators and re-keys the others from it (the fill
  law at ``p_matrix``), by the transversals of the catalog entry.  That
  the columns are a basis is Saito's criterion (``saito_certificate``),
  which needs nothing else.

* ``saito_certificate``: Saito's criterion on the memoised P_m
  (membership, degree sum, one evaluation; see ``saito``), computed once
  per P_m, with membership on one factor per orbit of the entry once P_m
  is proved equivariant.  Its constant is det P_m / Q^m.

* ``certify_direct_formula``: the direct formula C(k): P_{2k} J(D^k x) =
  Gram, from C(k - 1) by D[P_{2k-1}] C_{2k} = -P_{2k-2}, with no D^k x
  formed; odd m follows, Gram J(D^k x)^{-1} J(f) = P_{2k} J(f).  Building
  P_2 certifies C(1), since it reads the D[P_1] that B^(1) is built from
  and so guards B^(1).  C(k) for k >= 2 is certified where it is read
  (``certify_direct_formulas``): by ``verify``, ``jdkx_det_constant`` and
  the definition route of ``bmatrix``.

* ``jdkx_inverse`` = Gram^{-1} P_{2k} and ``jdkx_det_constant`` = det Gram
  / (det P_{2k} / Q^(2k)) = det J(D^k x) Q^(2k), consequences of C(k).

* ``b_matrix``: B^(k) = -J(f)^T Gram J(D^k x) J(D^{k-1} x)^{-1} J(f), as
  J(f)^T D[P_1] for k = 1 (D f = e_l proves it equal to the definition; the
  certificate of C(1) reads the same D[P_1]) and by the closed form
  k*B^(1) + (k-1)*B^(1)^T for k >= 2; C(k - 1) and C(k) prove the two equal.

Every step that the theory promises to be polynomial is asserted to be so;
a failed assertion raises PipelineError, which always indicates a bug (in
this code or its inputs), never a property of the mathematics.

Everything is kept in one memo, ``_cache``, by two rules.  ``_memoised``
stores a result per (function, catalog key, parameter); the catalog is
deterministic, so a hit cannot change a result, only timings.  ``_recorded``
stores a derived result or a passed certificate with the objects it came
from, and serves it only while every one of them is the same object, so a
perturbed or doctored input never reads another's record.
``clear_caches`` empties the memo.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .coxeter import CoxeterSystem
from .exactpoly import (
    ArrFrac,
    Matrix,
    Poly,
    mat_det_adj,
    pairs_equal,
    product_pair,
    rat_det,
    rat_mat_inv,
    sum_pairs,
)
from .saito import Certificate, certify

__all__ = [
    "PipelineError",
    "DerivationBasis",
    "jacobian",
    "jf_inverse",
    "primitive_dx",
    "apply_derivation",
    "derivation_pair",
    "iterate_dkx",
    "jdkx",
    "jdkx_det_constant",
    "jdkx_inverse",
    "p_matrix",
    "step_matrix",
    "saito_certificate",
    "certify_direct_formula",
    "certify_direct_formulas",
    "b_matrix",
    "clear_caches",
]


class PipelineError(RuntimeError):
    """An identity the construction guarantees failed to hold."""


# (numerator, denominator exponents) of an unreduced fraction
_Pair = tuple[Poly, Mapping[Poly, int]]
# the one memo: ``_memoised`` results by (function name, catalog key,
# parameter), and ``_recorded`` (inputs, result) records by a key of their own
_cache: dict[tuple, object] = {}


def clear_caches() -> None:
    _cache.clear()


def _memoised(fn):
    """fn(system, *args), stored by (name, system.key, *args); a hit returns
    the very object that was stored.  fn checks its own arguments."""
    name = fn.__name__

    @functools.wraps(fn)
    def memo(system: CoxeterSystem, *args):
        key = (name, system.key, *args)
        result = _cache.get(key)
        if result is None:
            result = _cache[key] = fn(system, *args)
        return result

    return memo


def _recorded(key: tuple, inputs: tuple, build):
    """build(), stored with its inputs and read back only while every input
    is the stored object; nothing is stored when build raises."""
    record = _cache.get(key)
    if record is not None and all(map(operator.is_, record[0], inputs)):
        return record[1]
    result = build()
    _cache[key] = (inputs, result)
    return result


# ---------------------------------------------------------------------------
# Jacobians and the primitive derivation
# ---------------------------------------------------------------------------


def jacobian(entries) -> Matrix:
    """J(g)_{ij} = d g_j / d x_i for a vector of fractions (or polynomials)."""
    gs = [g if isinstance(g, ArrFrac) else ArrFrac.from_poly(g) for g in entries]
    n = gs[0].nvars
    if len(gs) != n:
        raise ValueError("need exactly one component per variable")
    columns = [[ArrFrac(*pair) for pair in g.gradient_pairs()] for g in gs]
    return Matrix([[columns[j][i] for j in range(n)] for i in range(n)])


@_memoised
def jf_inverse(system: CoxeterSystem) -> tuple[tuple[_Pair, ...], ...]:
    """J(f)^{-1} = adj J(f) / (c Q) unreduced, as (numerator, denominator
    exponents) pairs, with det J(f) = c Q certified when the catalog entry
    was built; computed once per system.  A caller reduces only the
    entries it reads: ``primitive_dx`` the last row.  The memo is read-only:
    rows are tuples, and every pair holds one read-only copy of Q's
    factor map."""
    _, adj = mat_det_adj(system.jacobian_of_invariants())
    inv_c = 1 / system.det_jf_constant
    den = MappingProxyType(dict(system.q_factor_map))
    return tuple(tuple((p * inv_c, den) for p in adj[i]) for i in range(adj.rows))


@_memoised
def primitive_dx(system: CoxeterSystem) -> tuple[ArrFrac, ...]:
    """Coordinates of the primitive derivation: the bottom row of J(f)^{-1}.

    Certified on construction by applying the resulting derivation to every
    basic invariant and checking D f_i = 0 (i < l), D f_l = 1.
    """
    ell = system.rank
    dx = tuple(ArrFrac(*pair) for pair in jf_inverse(system)[ell - 1])
    for i, f in enumerate(system.invariants):
        expect = Fraction(int(i == ell - 1))
        got = apply_derivation(f, dx)
        if got != ArrFrac.from_poly(Poly.const(ell, expect)):
            raise PipelineError(
                f"{system.key}: primitive derivation sends f_{i + 1} to {got}, "
                f"expected {expect}"
            )
    return dx


def apply_derivation(p, dx) -> ArrFrac:
    """Apply sum_j dx_j * d/dx_j to a polynomial or fraction: the sum of
    ``derivation_pair``, reduced once."""
    return ArrFrac(*derivation_pair(p, dx))


def derivation_pair(p, dx) -> tuple[Poly, dict[Poly, int]]:
    """sum_j dx_j * d p / d x_j unreduced, as (numerator, denominator
    exponents): the terms dx_j times the quotient-rule derivative, summed
    over their common denominator."""
    if not isinstance(p, ArrFrac):
        p = ArrFrac.from_poly(p)
    pairs = [
        product_pair(coeff, num, den)
        for coeff, (num, den) in zip(dx, p.gradient_pairs())
        if coeff and num
    ]
    return sum_pairs(p.nvars, pairs)


@_memoised
def iterate_dkx(system: CoxeterSystem, k: int) -> tuple[ArrFrac, ...]:
    """D^k applied to the coordinate vector; D^0 is the identity."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        result = tuple(
            ArrFrac.from_poly(Poly.variable(system.rank, j)) for j in range(system.rank)
        )
    else:
        dx = primitive_dx(system)
        prev = iterate_dkx(system, k - 1)
        result = tuple(apply_derivation(p, dx) for p in prev)
        allowed = set(system.factors)
        for j, entry in enumerate(result):
            bad = [f for f in entry.den if f not in allowed]
            if bad:
                raise PipelineError(
                    f"{system.key}: D^{k} x_{j + 1} has a pole along {bad[0]}, "
                    "outside the arrangement"
                )
    return result


@_memoised
def jdkx(system: CoxeterSystem, k: int) -> Matrix:
    return jacobian(iterate_dkx(system, k))


# ---------------------------------------------------------------------------
# the multiderivation basis matrices P_m
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivationBasis:
    """Columns of ``matrix`` are coefficient vectors (in the d/dx_i basis)
    of a basis of the m-derivation module; column j is homogeneous of
    degree ``degrees[j]``."""

    system_key: str
    m: int
    k: int
    matrix: Matrix
    degrees: tuple[int, ...]


def _expected_degrees(system: CoxeterSystem, m: int) -> tuple[int, ...]:
    k = m // 2
    if m % 2 == 0:
        return (k * system.h,) * system.rank
    return tuple(k * system.h + e for e in system.exponents)


def _wrong_degree(mat: Matrix, degrees) -> tuple[int, int] | None:
    """The first entry, column by column, that is not zero or homogeneous
    of its column's degree."""
    return next(((i, j) for j in range(mat.cols) for i in range(mat.rows) if mat[i][j] and (
        not mat[i][j].is_homogeneous() or mat[i][j].degree() != degrees[j])), None)


@_memoised
def p_matrix(system: CoxeterSystem, m: int) -> DerivationBasis:
    """P_m by induction through the closed-form invariant matrices B^(k),
    one orbit of entries at a time (``_orbit_product``).

    Every entry is checked to be homogeneous of its column's degree.  An
    even step seeds the product record of ``certify_direct_formula`` with
    the P_{2k}, P_{2k-1} and C_{2k} it multiplied, so that the memoised
    P_{2k} is not formed again as that product.  Only
    P_2 certifies its direct formula C(1) here: the certificate reads the
    D[P_1] that B^(1) is built from, so a wrong B^(1) raises PipelineError.
    C(k) for k >= 2 is certified by the code that reads it.

    The fill law.  Let rho be a stored generator that is a signed
    permutation, sending x_j to s_j x_pi(j), and g[p](x) = p(rho^T x)
    (``Poly.substitute_linear``).  Then g[P_m] = rho^T P_m rho for even m
    and g[P_m] = rho^T P_m for odd m, that is, entry by entry,

        P_pi(a)pi(b) = s_a s_b g[P_ab] (m even),  P_pi(a)b = s_a g[P_ab] (m odd).

    Proof, by induction on m.  P_0 = Gram and rho^T Gram rho = Gram (the
    catalog checks it).  Differentiating f(rho^T x) = f(x) for each basic
    invariant gives rho g[J(f)] = J(f), so g[J(f)] = rho^{-1} J(f), and an
    odd step gives g[P_{2k} J(f)] = rho^T P_{2k} rho rho^{-1} J(f).  By the
    odd case at m = 1, g[P_1^T] = P_1^T rho; B^(k) is invariant (the
    derivation D is, D f_i being constant), so g[C_{2k}] = C_{2k} rho and
    g[P_{2k-1} C_{2k}] = rho^T P_{2k-1} C_{2k} rho.  The law passes to
    products of generators (``saito.certify``), so each entry
    follows from one representative of its orbit under the group they
    generate: the representative is a row-by-column product and every
    other entry is re-keyed from it, with no arithmetic.  The product
    record that an even step seeds rests on this law for the P_{2k-1} and
    C_{2k} it read.  They obey it once C(k - 1) and the identity of C(k)
    are certified (``certify_direct_formula``, which reads the record only
    after both): P_{2k-2} is then Gram J(D^{k-1} x)^{-1}, equivariant as D
    is invariant, P_{2k-1} its step by J(f), and C_{2k} = -D[P_{2k-1}]^{-1}
    P_{2k-2}.  Saito's criterion proves the law again on every P_m it
    certifies (``saito.equivariant``).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    k = m // 2
    if m == 0:
        mat = system.gram_matrix()
    else:
        step = step_matrix(system, m)
        prev = p_matrix(system, m - 1).matrix
        mat = _orbit_product(system, prev, step, m % 2)
    degrees = _expected_degrees(system, m)
    bad = _wrong_degree(mat, degrees)
    if bad:
        raise PipelineError(f"{system.key}: entry ({bad[0] + 1},{bad[1] + 1}) of P_{m} has "
                            f"degree {mat[bad[0]][bad[1]].degree()}, expected {degrees[bad[1]]}")
    if m and m % 2 == 0:
        _cache[("product", system.key, k)] = ((mat, prev, step), None)
    if m == 2:
        certify_direct_formula(system, 1, mat)
    return DerivationBasis(system.key, m, k, mat, degrees)


def _orbit_product(system: CoxeterSystem, prev: Matrix, step: Matrix, parity: int) -> Matrix:
    """prev @ step for the step of P_m of this parity, by the fill law of
    ``p_matrix``: each representative entry is a row-by-column product, and
    each other entry of its orbit the representative re-keyed by one group
    element (``CoxeterSystem.transversals``)."""
    ell = system.rank
    rows: list[list] = [[None] * ell for _ in range(ell)]
    for (a, b), fills in system.transversals[parity]:
        entry = prev[a][0] * step[0][b]
        for i in range(1, ell):
            entry = entry + prev[a][i] * step[i][b]
        rows[a][b] = entry
        for (i, j), element, sign in fills:
            rows[i][j] = entry.rekey(element, sign)
    return Matrix(rows)


# ``perfbench/tracer.py`` looks this name up; the inductive route is now the
# only one, so it is ``p_matrix`` itself.
p_matrix_recursive = p_matrix


@_memoised
def step_matrix(system: CoxeterSystem, m: int) -> Matrix:
    """The polynomial matrix C_m with P_m = P_{m-1} C_m, m >= 1: J(f) for
    odd m, -(B^(m/2))^{-1} P_1^T for even m (det B^(m/2) is a nonzero
    constant, so the inverse is polynomial), memoised."""
    if m % 2 == 1:
        return system.jacobian_of_invariants()
    k = m // 2
    det_b, adj_b = mat_det_adj(b_matrix(system, k))
    if not det_b.is_constant():
        raise PipelineError(f"{system.key}: det B^({k}) is not constant: {det_b}")
    c = det_b.constant_value()
    if c == 0:
        raise PipelineError(f"{system.key}: B^({k}) is singular")
    return -(adj_b.map(lambda p: p * (1 / c)) @ p_matrix(system, 1).matrix.transpose())


def saito_certificate(system: CoxeterSystem, basis: DerivationBasis) -> Certificate:
    """Saito's criterion for basis (``saito.certify``), recorded with the
    basis object it certified: once per memoised P_m, and again when
    another basis (a doctored copy) came in between."""
    return _recorded(("saito", system.key, basis.m), (basis,),
                     lambda: certify(basis.matrix, system, basis.m))


def certify_direct_formula(system: CoxeterSystem, k: int, p_even: Matrix) -> None:
    """Certify C(k), k >= 1: P_{2k} J(D^k x) = Gram, that is, P_{2k} = Gram
    J(D^k x)^{-1}, given C(k - 1) (C(0) is P_0 = Gram), by the identity
    D[P_{2k-1}] C_{2k} = -P_{2k-2}, D[M] being D applied entrywise.

    Proof.  Write Y = J(D^{k-1} x) and Z = J(D^k x).  The chain rule gives
    Z = J(Dx) Y + D[Y], and D f = e_l (``primitive_dx``) gives D[J(f)] =
    -J(Dx) J(f).  With D[Y^{-1}] = -Y^{-1} D[Y] Y^{-1}, then

        D[Y^{-1} J(f)] = -Y^{-1} (D[Y] + J(Dx) Y) Y^{-1} J(f) = -Y^{-1} Z Y^{-1} J(f).

    C(k - 1) gives Y^{-1} = Gram^{-1} P_{2k-2}; with P_{2k-1} = P_{2k-2} J(f),
    P_{2k} = P_{2k-1} C_{2k} and Gram constant,

        D[P_{2k-1}] C_{2k} = -P_{2k-2} Z Gram^{-1} P_{2k}.

    P_{2k-2} is invertible by C(k - 1), so the identity holds exactly when
    Z Gram^{-1} P_{2k} = I, which is C(k).

    Each entry of D[P_{2k-1}] is reduced once (``apply_derivation``); for
    k >= 2 they are polynomials on every catalog system tried (to m 8, rank
    5 to m 4), so the product with C_{2k} is one over polynomials, compared
    with -P_{2k-2} by ``pairs_equal``; a PipelineError names the first entry
    that differs.  C_{2k} is the memoised ``step_matrix``.  p_even is then
    checked against P_{2k-1} C_{2k}.  Each check is a record (``_recorded``):
    the identity on (P_{2k-1}, C_{2k}, P_{2k-2}, D x), the product on
    (P_{2k}, P_{2k-1}, C_{2k}), which ``p_matrix`` seeds when it builds
    P_{2k} (exact by its fill law once the identity holds).  So a doctored
    P_{2k} or C_{2k} fails, and the memoised P_{2k} costs no product and,
    once certified, no identity.  At k = 1 it reads
    the D[P_1] that B^(1) = J(f)^T D[P_1] was built from (``_d_p1``); the
    identity then holds exactly when C_2 = -(B^(1))^{-1} P_1^T for that
    B^(1), so a memoised B^(1) with a sign slip or a wrong entry fails it.
    The caller certifies C(k - 1) first (``certify_direct_formulas``).
    """
    step = step_matrix(system, 2 * k)
    p_odd = p_matrix(system, 2 * k - 1).matrix
    p_prev = p_matrix(system, 2 * k - 2).matrix
    dx = primitive_dx(system)

    def identity() -> None:
        d_odd = _d_p1(system, p_odd, dx) if k == 1 else p_odd.map(
            lambda e: apply_derivation(e, dx))
        for i, row in enumerate(d_odd.product_pairs(step)):
            for j, lhs in enumerate(row):
                if not pairs_equal(lhs, (-p_prev[i][j], {})):
                    raise PipelineError(
                        f"{system.key}: entry ({i + 1},{j + 1}) of D[P_{2 * k - 1}] "
                        f"C_{2 * k} is {ArrFrac(*lhs)}, expected {-p_prev[i][j]}"
                    )

    def product() -> None:
        for i, j, e in (p_odd @ step).entries():
            if p_even[i][j] != e:
                raise PipelineError(
                    f"{system.key}: entry ({i + 1},{j + 1}) of P_{2 * k} is "
                    f"{p_even[i][j]}, expected P_{2 * k - 1} C_{2 * k} = {e}"
                )

    _recorded(("direct", system.key, k), (p_odd, step, p_prev, dx), identity)
    _recorded(("product", system.key, k), (p_even, p_odd, step), product)


def certify_direct_formulas(system: CoxeterSystem, top: int) -> None:
    """Certify C(1), ..., C(top) in order, each on the memoised P_{2k}
    (``certify_direct_formula``); the first that fails raises
    PipelineError.  Every reader of the direct formula calls this."""
    for k in range(1, top + 1):
        certify_direct_formula(system, k, p_matrix(system, 2 * k).matrix)


def _d_p1(system: CoxeterSystem, p1: Matrix, dx: tuple[ArrFrac, ...]) -> Matrix:
    """D[P_1], D (coordinates dx) applied entrywise to P_1 = Gram J(f),
    each entry reduced once (``apply_derivation``).  B^(1) and the
    certificate of C(1) both read it.  It is a record on (P_1, D x)
    (``_recorded``), formed again when either is another object, so a
    perturbed memo never serves a later caller."""
    return _recorded(("d_p1", system.key), (p1, dx),
                     lambda: p1.map(lambda e: apply_derivation(e, dx)))


def jdkx_inverse(system: CoxeterSystem, k: int) -> Matrix:
    """Gram^{-1} P_{2k}, a polynomial matrix: J(D^k x)^{-1} when C(k)
    holds.  It certifies nothing; its one reader, ``jdg(dx).ii`` in
    ``verify``, is itself the product Gram^{-1} P_2 J(D x) = I."""
    gram_inv = Matrix.from_rational(rat_mat_inv(system.gram), system.rank)
    return gram_inv @ p_matrix(system, 2 * k).matrix


def jdkx_det_constant(system: CoxeterSystem, k: int) -> Fraction:
    """The constant det J(D^k x) * Q^(2k) = det Gram / (det P_{2k} / Q^(2k)),
    with det P_{2k} / Q^(2k) the constant of the memoised certificate.  It
    rests on C(k), which is certified first (``certify_direct_formulas``);
    a failure of either raises PipelineError."""
    certify_direct_formulas(system, k)
    cert = saito_certificate(system, p_matrix(system, 2 * k))
    if cert.constant is None:
        raise PipelineError(
            f"{system.key}: det P_{2 * k} is not a nonzero constant multiple of "
            f"Q^{2 * k}: {cert.witness}"
        )
    return rat_det(system.gram) / cert.constant


# ---------------------------------------------------------------------------
# the invariant matrices B^(k)
# ---------------------------------------------------------------------------


@_memoised
def b_matrix(system: CoxeterSystem, k: int) -> Matrix:
    """The invariant matrix B^(k) over Poly, entry (i, j) of degree
    m_i + m_j - h: B^(1) = J(f)^T D[P_1], and B^(k) = k B^(1) +
    (k-1) B^(1)^T for k >= 2.

    B^(1) is the definition -J(f)^T Gram J(D x) J(f), with no J(D x)
    formed.  ``primitive_dx`` certifies D f_j = delta_{jl}; its derivative
    by x_a is

        sum_c d_a(D x_c) d_c f_j + sum_c D x_c d_c d_a f_j = 0,

    that is, J(D x) J(f) + D[J(f)] = 0.  Gram is constant, so D[P_1] =
    Gram D[J(f)] = -Gram J(D x) J(f), and -J(f)^T Gram J(D x) J(f) =
    J(f)^T D[P_1].  D[P_1] is the one ``_d_p1`` records for the certificate
    of C(1); the product is one over fractions, and an entry that keeps a
    denominator raises PipelineError.

    The definition B_def^(k) = -J(f)^T Gram J(D^k x) J(D^(k-1) x)^{-1} J(f)
    is not computed for k >= 2; the certificates of C(k - 1) and C(k)
    prove it equal to the closed form B_c^(k).  C(j): P_{2j} J(D^j x) = Gram
    (``certify_direct_formula``) makes P_{2j} invertible with J(D^j x) =
    P_{2j}^{-1} Gram.  With C(k - 1), C(k), P_1 = Gram J(f) (Gram
    symmetric) and P_{2k-1} = P_{2k-2} J(f):

        B_def^(k) = -J(f)^T Gram P_{2k}^{-1} Gram Gram^{-1} P_{2k-2} J(f)
                  = -P_1^T P_{2k}^{-1} P_{2k-1}.

    The even step built P_{2k} = -P_{2k-1} (B_c^(k))^{-1} P_1^T, so
    P_{2k}^{-1} = -(P_1^T)^{-1} B_c^(k) P_{2k-1}^{-1} (P_{2k} invertible
    makes P_1 and P_{2k-1} invertible), and B_def^(k) = B_c^(k).  Building
    P_{2k} certifies only C(1); a reader of B_def^(k) certifies C(1), ...,
    C(k) (``certify_direct_formulas``).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k == 1:
        d_p = _d_p1(system, p_matrix(system, 1).matrix, primitive_dx(system))
        work = system.jacobian_of_invariants().transpose() @ d_p
        for i, j, e in work.entries():
            if not e.is_polynomial():
                raise PipelineError(f"{system.key}: entry ({i + 1},{j + 1}) of "
                                    f"B^(1) did not clear its denominator: {e}")
        return work.map(lambda e: e.as_poly())
    b1 = b_matrix(system, 1)
    return b1.map(lambda p: p * k) + b1.transpose().map(lambda p: p * (k - 1))
