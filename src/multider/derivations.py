"""The primitive-derivation pipeline over a catalog arrangement.

Given a catalog system with basic invariants f_1, ..., f_l (degrees
ascending) the primitive derivation D is the derivation of the fraction
field with D f_i = 0 for i < l and D f_l = 1.  Its coordinate vector
(D x_1, ..., D x_l) is the bottom row of J(f)^{-1}, and iterating D on the
coordinates produces the rational vectors D^k x whose poles lie along the
arrangement only.

From these the module constructs:

* ``p_matrix``: the l x l polynomial matrix whose columns are the
  coefficient vectors of a free basis of the module D^(m) of derivations
  theta with theta(alpha_H) divisible by alpha_H^m for every hyperplane.
  It is built by induction: P_0 = Gram, P_m = P_{m-1} J(f) for odd m, and
  P_m = -P_{m-1} (B^(m/2))^{-1} P_1^T for positive even m, with B^(m/2) in
  closed form, so only constant-determinant matrices are ever inverted.
  Each even step is certified against the paper's direct formula
  P_{2k} = Gram J(D^k x)^{-1} by the exact product P_{2k} J(D^k x) = Gram
  (``certify_direct_formula``).  Odd m needs no identity of its own:
  Gram J(D^k x)^{-1} J(f) = P_{2k} J(f) is the odd step itself.  Columns
  are homogeneous of degree k*h (even m) or k*h + m_j (odd m), k = m // 2.

* ``saito_certificate``: Saito's criterion on the memoised P_m
  (membership, degree sum, one evaluation; see ``saito``), computed once
  per P_m.  Its constant is det P_m / Q^m.

* ``jdkx_inverse`` and ``jdkx_det_constant``: J(D^k x)^{-1} = Gram^{-1}
  P_{2k} and det J(D^k x) * Q^(2k) = det Gram / (det P_{2k} / Q^(2k)),
  both consequences of the certified product identity.

* ``b_matrix``: the invariant matrix
  B^(k) = -J(f)^T Gram J(D^k x) J(D^{k-1} x)^{-1} J(f), by that definition
  or through the closed form k*B^(1) + (k-1)*B^(1)^T.

Every step that the theory promises to be polynomial is asserted to be so;
a failed assertion raises PipelineError, which always indicates a bug (in
this code or its inputs), never a property of the mathematics.

All results are memoised per (catalog key, parameter); the catalog is
deterministic, so cache hits cannot change results, only timings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coxeter import CoxeterSystem
from .exactpoly import (
    ArrFrac,
    Matrix,
    Poly,
    mat_det_adj,
    rat_det,
    rat_mat_inv,
)
from .saito import Certificate, certify

__all__ = [
    "PipelineError",
    "DerivationBasis",
    "BMatrix",
    "jacobian",
    "primitive_dx",
    "apply_derivation",
    "iterate_dkx",
    "jdkx",
    "jdkx_det_constant",
    "jdkx_inverse",
    "p_matrix",
    "step_matrix",
    "saito_certificate",
    "certify_direct_formula",
    "b_matrix",
    "clear_caches",
]


class PipelineError(RuntimeError):
    """An identity the construction guarantees failed to hold."""


_dx_cache: dict[str, tuple[ArrFrac, ...]] = {}
_dkx_cache: dict[tuple[str, int], tuple[ArrFrac, ...]] = {}
_jdkx_cache: dict[tuple[str, int], Matrix] = {}
_pm_cache: dict[tuple[str, int], "DerivationBasis"] = {}
_b_cache: dict[tuple[str, int, str], "BMatrix"] = {}
_saito_cache: dict[tuple[str, int], Certificate] = {}


def clear_caches() -> None:
    for cache in (_dx_cache, _dkx_cache, _jdkx_cache, _pm_cache, _b_cache, _saito_cache):
        cache.clear()


# ---------------------------------------------------------------------------
# Jacobians and the primitive derivation
# ---------------------------------------------------------------------------


def jacobian(entries) -> Matrix:
    """J(g)_{ij} = d g_j / d x_i for a vector of fractions (or polynomials)."""
    gs = [g if isinstance(g, ArrFrac) else ArrFrac.from_poly(g) for g in entries]
    n = gs[0].nvars
    if len(gs) != n:
        raise ValueError("need exactly one component per variable")
    return Matrix([[gs[j].diff(i) for j in range(n)] for i in range(n)])


def primitive_dx(system: CoxeterSystem) -> tuple[ArrFrac, ...]:
    """Coordinates of the primitive derivation: the bottom row of J(f)^{-1}.

    Certified on construction by applying the resulting derivation to every
    basic invariant and checking D f_i = 0 (i < l), D f_l = 1.
    """
    cached = _dx_cache.get(system.key)
    if cached is not None:
        return cached
    ell = system.rank
    # det J(f) = c Q with c certified when the catalog entry was built
    _, adj = mat_det_adj(system.jacobian_of_invariants())
    inv_c = 1 / system.det_jf_constant
    dx = tuple(
        ArrFrac(adj[ell - 1][j] * inv_c, system.q_factor_map) for j in range(ell)
    )
    for i, f in enumerate(system.invariants):
        expect = Fraction(int(i == ell - 1))
        got = apply_derivation(f, dx)
        if got != ArrFrac.from_poly(Poly.const(ell, expect)):
            raise PipelineError(
                f"{system.key}: primitive derivation sends f_{i + 1} to {got}, "
                f"expected {expect}"
            )
    _dx_cache[system.key] = dx
    return dx


def apply_derivation(p, dx) -> ArrFrac:
    """Apply sum_j dx_j * d/dx_j to a polynomial or fraction."""
    if not isinstance(p, ArrFrac):
        p = ArrFrac.from_poly(p)
    acc = None
    for j, coeff in enumerate(dx):
        dp = p.diff(j)
        if dp:
            term = coeff * dp
            acc = term if acc is None else acc + term
    if acc is None:
        return ArrFrac.from_poly(Poly.zero(p.nvars))
    return acc


def iterate_dkx(system: CoxeterSystem, k: int) -> tuple[ArrFrac, ...]:
    """D^k applied to the coordinate vector; D^0 is the identity."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    cached = _dkx_cache.get((system.key, k))
    if cached is not None:
        return cached
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
    _dkx_cache[(system.key, k)] = result
    return result


def jdkx(system: CoxeterSystem, k: int) -> Matrix:
    cached = _jdkx_cache.get((system.key, k))
    if cached is None:
        cached = jacobian(iterate_dkx(system, k))
        _jdkx_cache[(system.key, k)] = cached
    return cached


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


def _validate_columns(system: CoxeterSystem, m: int, mat: Matrix) -> tuple[int, ...]:
    degrees = _expected_degrees(system, m)
    for j in range(system.rank):
        for i in range(system.rank):
            e = mat[i][j]
            if e and (not e.is_homogeneous() or e.degree() != degrees[j]):
                raise PipelineError(
                    f"{system.key}: entry ({i + 1},{j + 1}) of P_{m} has degree "
                    f"{e.degree()}, expected {degrees[j]}"
                )
    return degrees


def p_matrix(system: CoxeterSystem, m: int) -> DerivationBasis:
    """P_m by induction through the closed-form invariant matrices B^(k).

    Every even step is certified against the direct formula, so a mistake
    anywhere in the chain raises PipelineError.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    cached = _pm_cache.get((system.key, m))
    if cached is not None:
        return cached
    k = m // 2
    if m == 0:
        mat = system.gram_matrix()
    else:
        mat = p_matrix(system, m - 1).matrix @ step_matrix(system, m)
        if m % 2 == 0:
            certify_direct_formula(system, k, mat)
    degrees = _validate_columns(system, m, mat)
    basis = DerivationBasis(system.key, m, k, mat, degrees)
    _pm_cache[(system.key, m)] = basis
    return basis


# ``perfbench/tracer.py`` looks this name up; the inductive route is now the
# only one, so it is ``p_matrix`` itself.
p_matrix_recursive = p_matrix


def step_matrix(system: CoxeterSystem, m: int) -> Matrix:
    """The polynomial matrix C_m with P_m = P_{m-1} C_m, m >= 1: J(f) for
    odd m, -(B^(m/2))^{-1} P_1^T for even m (det B^(m/2) is a nonzero
    constant, so the inverse is polynomial)."""
    if m % 2 == 1:
        return system.jacobian_of_invariants()
    k = m // 2
    det_b, adj_b = mat_det_adj(b_matrix(system, k, route="closed_form").matrix)
    if not det_b.is_constant():
        raise PipelineError(f"{system.key}: det B^({k}) is not constant: {det_b}")
    c = det_b.constant_value()
    if c == 0:
        raise PipelineError(f"{system.key}: B^({k}) is singular")
    return -(adj_b.map(lambda p: p * (1 / c)) @ p_matrix(system, 1).matrix.transpose())


def saito_certificate(system: CoxeterSystem, basis: DerivationBasis) -> Certificate:
    """Saito's criterion for basis (``saito.certify``), once per memoised
    P_m.  A basis that is not the memoised P_m (a doctored copy) is
    certified afresh and not stored."""
    key = (system.key, basis.m)
    memoised = _pm_cache.get(key) is basis
    if memoised:
        cached = _saito_cache.get(key)
        if cached is not None:
            return cached
    cert = certify(basis.matrix, system.factors, basis.m)
    if memoised:
        _saito_cache[key] = cert
    return cert


def certify_direct_formula(system: CoxeterSystem, k: int, p_even: Matrix) -> None:
    """Check P_{2k} J(D^k x) = Gram exactly, i.e. P_{2k} = Gram J(D^k x)^{-1}
    (J(D^k x) is invertible), without inverting J(D^k x).

    Raises PipelineError naming the first entry of the product that differs.
    """
    product = p_even @ jdkx(system, k)
    gram = system.gram_matrix(frac=True)
    for i, j, entry in product.entries():
        if entry != gram[i][j]:
            raise PipelineError(
                f"{system.key}: entry ({i + 1},{j + 1}) of P_{2 * k} J(D^{k} x) "
                f"is {entry}, expected {gram[i][j]}"
            )


def jdkx_inverse(system: CoxeterSystem, k: int) -> Matrix:
    """J(D^k x)^{-1} = Gram^{-1} P_{2k}; polynomial entries, as fractions."""
    gram_inv = Matrix.from_rational(rat_mat_inv(system.gram), system.rank, frac=True)
    return gram_inv @ p_matrix(system, 2 * k).matrix


def jdkx_det_constant(system: CoxeterSystem, k: int) -> Fraction:
    """The constant det J(D^k x) * Q^(2k) = det Gram / (det P_{2k} / Q^(2k)),
    with det P_{2k} / Q^(2k) the constant of the memoised certificate."""
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


@dataclass(frozen=True)
class BMatrix:
    system_key: str
    k: int
    route: str
    matrix: Matrix  # over Poly; entries invariant, degree m_i + m_j - h


def b_matrix(system: CoxeterSystem, k: int, route: str = "definition") -> BMatrix:
    """B^(k) = -J(f)^T Gram J(D^k x) J(D^{k-1} x)^{-1} J(f).

    The closed_form route expands k*B^(1) + (k-1)*B^(1)^T instead (both
    routes coincide for k = 1 where the closed form degenerates).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if route not in ("definition", "closed_form"):
        raise ValueError(f"unknown route: {route!r}")
    if route == "closed_form" and k == 1:
        route = "definition"
    cached = _b_cache.get((system.key, k, route))
    if cached is not None:
        return cached
    if route == "definition":
        jf = system.jacobian_of_invariants()
        work = jf.transpose() @ system.gram_matrix(frac=True) @ jdkx(system, k)
        if k > 1:
            work = work @ jdkx_inverse(system, k - 1)
        work = work @ jf
        rows = []
        for i in range(system.rank):
            row = []
            for j in range(system.rank):
                e = work[i][j]
                if not e.is_polynomial():
                    raise PipelineError(
                        f"{system.key}: entry ({i + 1},{j + 1}) of B^({k}) did not "
                        f"clear its denominator: {e}"
                    )
                row.append(-e.as_poly())
            rows.append(row)
        mat = Matrix(rows)
    else:
        b1 = b_matrix(system, 1, route="definition").matrix
        mat = b1.map(lambda p: p * k) + b1.transpose().map(lambda p: p * (k - 1))
    result = BMatrix(system.key, k, route, mat)
    _b_cache[(system.key, k, route)] = result
    return result
