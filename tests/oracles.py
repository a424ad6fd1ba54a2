"""Reference computations the package no longer performs, and injected
faults that the certificates must catch.

``b_by_definition`` is the definition of the invariant matrix B^(k), a
chain of four products over fractions.  The package builds B^(k) for
k >= 2 by the closed form and certifies the definition through the
product identities of P_m; the tests compare the two.

``jdg_ii_in_full`` and ``jdg_iv_in_full`` are the ``jdg`` identities ii
and iv with both sides formed and compared: D applied to J(g)^{-1} (and to
J(g)^{-1} J(f)) against the product on the right.  The package checks ii as
the product J(g)^{-1} J(g) = I and iv at g = D^k x as the certificate of
C(k + 1); the tests compare the statuses.

``equivariance_jdkx_in_full`` is g[J(D^k x)] = rho^-1 J(D^k x) rho on the
memoised J(D^k x), which the package checks as g[P_{2k}] = rho^T P_{2k}
rho given C(k).

``p_step_in_full`` is the step P_m = P_{m-1} C_m as one full matrix
product, which ``p_matrix`` forms only at one entry per orbit of the
signed-permutation symmetry; the tests compare the two.

``membership_by_division`` is Saito's membership test with m exact
divisions (``strip_factor``) per hyperplane and column, as it ran before
``power_divides`` decided it; the tests compare the failure witnesses.

``json_text`` is ``json.dumps(obj, indent=2)``, which printed every
``--format json`` output before ``cli._dumps`` wrote it; a ``Poly`` goes in
as its term records (``poly_to_records``), as the command line gave it.
"""

import dataclasses
import functools
import json

from multider import derivations
from multider.derivations import (
    PipelineError,
    apply_derivation,
    jacobian,
    jdkx,
    jdkx_inverse,
    jf_inverse,
    primitive_dx,
)
from multider.exactpoly import (
    ArrFrac,
    Matrix,
    Poly,
    mat_det_adj,
    poly_to_records,
    rat_mat_inv,
    strip_factor,
)
from multider.saito import _orbit_test


@functools.cache
def b_by_definition(system, k: int) -> Matrix:
    """B^(k) = -J(f)^T Gram J(D^k x) J(D^(k-1) x)^{-1} J(f), with
    J(D^(k-1) x)^{-1} = Gram^{-1} P_{2k-2}; PipelineError names an entry
    that keeps a denominator.  Cached per catalog system and k, since the
    value is deterministic and several tests compare against it."""
    jf = system.jacobian_of_invariants()
    work = jf.transpose() @ system.gram_matrix() @ jdkx(system, k)
    if k > 1:
        work = work @ jdkx_inverse(system, k - 1)
    work = work @ jf
    ell = system.rank
    for i in range(ell):
        for j in range(ell):
            if not work[i][j].is_polynomial():
                raise PipelineError(
                    f"{system.key}: entry ({i + 1},{j + 1}) of B^({k}) did not "
                    f"clear its denominator: {work[i][j]}"
                )
    return Matrix([[-work[i][j].as_poly() for j in range(ell)] for i in range(ell)])


def _level(g_key: str) -> int | None:
    return None if g_key == "f" else {"x": 0, "dx": 1}[g_key]


def _jacobian_and_inverse(system, g_key: str) -> tuple[Matrix, Matrix]:
    """J(g) and J(g)^{-1} as the pipeline holds them: the memoised J(D^k x)
    and Gram^{-1} P_{2k}, or J(f) and the memoised adj J(f) / (c Q)."""
    k = _level(g_key)
    if k is None:
        inv = Matrix([[ArrFrac(*pair) for pair in row] for row in jf_inverse(system)])
        return system.jacobian_of_invariants(), inv
    return jdkx(system, k), jdkx_inverse(system, k)


def _status(holds) -> str:
    """'pass' when holds() is true; 'fail' when it is false or the pipeline
    cannot build an object the identity reads (PipelineError)."""
    try:
        return "pass" if holds() else "fail"
    except PipelineError:
        return "fail"


def jdg_ii_in_full(system, g_key: str) -> str:
    """Identity ii, D[J(g)^{-1}] = -J(g)^{-1} D[J(g)] J(g)^{-1}, for g in
    {x, f, dx}, both sides formed."""
    def holds():
        dx = primitive_dx(system)
        jg, inv = _jacobian_and_inverse(system, g_key)
        d_jg = jg.map(lambda e: apply_derivation(e, dx))
        return inv.map(lambda e: apply_derivation(e, dx)) == -(inv @ d_jg @ inv)

    return _status(holds)


def jdg_iv_in_full(system, g_key: str) -> str:
    """Identity iv, D[J(g)^{-1} J(f)] = -J(g)^{-1} J(Dg) J(g)^{-1} J(f), for
    g in {x, f, dx}, both sides formed.  For g = D^k x, J(Dg) is taken from
    the direct formula as the inverse of W = Gram^{-1} P_{2k+2} (iv no
    longer reads the memoised J(D^(k+1) x), which identity i tests): the
    identity is compared times det W, with adj W in place of W^{-1}, so a W
    that is singular, or whose inverse has poles off the arrangement, is a
    failure, not an error."""
    def holds():
        dx = primitive_dx(system)
        jf = system.jacobian_of_invariants()
        _, inv = _jacobian_and_inverse(system, g_key)
        inv_jf = inv @ jf
        lhs = inv_jf.map(lambda e: apply_derivation(e, dx))
        k = _level(g_key)
        if k is None:
            jdg = jacobian([apply_derivation(f, dx) for f in system.invariants])
            return lhs == -(inv @ jdg @ inv_jf)
        det, adj = mat_det_adj(jdkx_inverse(system, k + 1))
        return bool(det) and lhs.map(lambda e: e * det) == -(inv @ adj @ inv_jf)

    return _status(holds)


def equivariance_jdkx_in_full(system, k: int, g) -> bool:
    """g[J(D^k x)] = rho^-1 J(D^k x) rho for the stored generator g."""
    ell = system.rank
    jk = jdkx(system, k)
    rho = Matrix.from_rational(g, ell)
    rho_inv = Matrix.from_rational(rat_mat_inv(g), ell)
    return jk.map(lambda e: e.substitute_linear(g)) == rho_inv @ jk @ rho


def p_step_in_full(system, m: int) -> Matrix:
    """P_{m-1} C_m, every entry a row-by-column product, from the memoised
    P_{m-1} and C_m."""
    return derivations.p_matrix(system, m - 1).matrix @ derivations.step_matrix(system, m)


def membership_by_division(factors, matrix: Matrix, m: int):
    """``saito.membership_failure`` with every hyperplane decided by m exact
    divisions of theta(alpha) by alpha: None, or (factor index, column
    index, divisions done, residual) of the first failure."""
    if m == 0:
        return None
    columns = [[matrix[i][j] for i in range(matrix.rows)] for j in range(matrix.cols)]
    for fi, q in enumerate(factors):
        if q.degree() == 1:
            ell = q.nvars
            coeffs = [(i, int(c)) for i in range(ell)
                      if (c := q.coefficient(tuple(int(t == i) for t in range(ell))))]
            for j, column in enumerate(columns):
                cur = Poly.zero(ell)
                for i, c in coeffs:
                    cur = cur + column[i] * c
                cur, done = strip_factor(cur, q, m)
                if done != m:
                    return fi, j, done, str(cur)
        else:
            test = _orbit_test(q)
            for j, column in enumerate(columns):
                failure = test(column, m)
                if failure is not None:
                    return fi, j, failure[0], failure[1]
    return None


def _poly_records(obj):
    if isinstance(obj, Poly):
        return poly_to_records(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def json_text(obj) -> str:
    """json.dumps(obj, indent=2), each Poly as its term records."""
    return json.dumps(obj, indent=2, default=_poly_records)


def doubled_entry(mat: Matrix) -> Matrix:
    """A copy of mat with entry (1,1), which must be nonzero, doubled."""
    rows = [[mat[i][j] for j in range(mat.cols)] for i in range(mat.rows)]
    assert rows[0][0]
    rows[0][0] = rows[0][0] * 2
    return Matrix(rows)


def perturb_step_matrix(monkeypatch, m: int) -> None:
    """Make ``derivations.step_matrix`` return C_m with entry (1,1) doubled;
    every other m is left alone."""
    real = derivations.step_matrix

    def perturbed(system, n):
        mat = real(system, n)
        return doubled_entry(mat) if n == m else mat

    monkeypatch.setattr(derivations, "step_matrix", perturbed)


def perturb_dx_memo(monkeypatch, system) -> None:
    """Double D x_1 in the memoised primitive derivation of system."""
    dx = derivations.primitive_dx(system)
    monkeypatch.setitem(derivations._cache, ("primitive_dx", system.key),
                        (dx[0] * 2,) + dx[1:])


def perturb_p_memo(monkeypatch, system, m: int) -> None:
    """Double entry (1,1) of the memoised P_m of system."""
    basis = derivations.p_matrix(system, m)
    monkeypatch.setitem(derivations._cache, ("p_matrix", system.key, m),
                        dataclasses.replace(basis, matrix=doubled_entry(basis.matrix)))


def perturb_jdkx_memo(monkeypatch, system, k: int) -> None:
    """Double entry (1,1) of the memoised J(D^k x)."""
    monkeypatch.setitem(derivations._cache, ("jdkx", system.key, k),
                        doubled_entry(derivations.jdkx(system, k)))


def perturb_jf_inverse_memo(monkeypatch, system) -> None:
    """Double the numerator of entry (1,1) of the memoised J(f)^{-1}, after
    the primitive derivation (its last row) has been read from it."""
    derivations.primitive_dx(system)
    rows = derivations.jf_inverse(system)
    (num, den), *rest = rows[0]
    assert num
    monkeypatch.setitem(derivations._cache, ("jf_inverse", system.key),
                        (((num * 2, den), *rest),) + rows[1:])


# the inputs of the certificate of C(2) on B2 that the controls perturb,
# each by one of the functions above
PERTURBATIONS = {
    "step": lambda monkeypatch, s: perturb_step_matrix(monkeypatch, 4),
    "dx": perturb_dx_memo,
    "p2": lambda monkeypatch, s: perturb_p_memo(monkeypatch, s, 2),
}

# the first link of the chain C(1), C(2) on B2 that each fault breaks: D x
# is read by C(1) through D[P_1], P_2 is checked against P_1 C_2 by C(1),
# and a perturbed C_4 leaves C(1) and fails C(2)
FIRST_BROKEN_LINK = {
    "dx": "entry (1,1) of D[P_1] C_2 is",
    "p2": "entry (1,1) of P_2 is -2/3*x1^4 + 2*x1^2*x2^2, expected P_1 C_2",
    "step": "entry (1,1) of D[P_3] C_4 is",
}
