"""Reference computations the package no longer performs, and injected
faults that the certificates must catch.

``b_by_definition`` is the definition of the invariant matrix B^(k), a
chain of four products over fractions.  The package builds B^(k) for
k >= 2 by the closed form and certifies the definition through the
product identities of P_m; the tests compare the two.
"""

import dataclasses
import functools

from multider import derivations
from multider.derivations import PipelineError, jdkx, jdkx_inverse
from multider.exactpoly import Matrix


@functools.cache
def b_by_definition(system, k: int) -> Matrix:
    """B^(k) = -J(f)^T Gram J(D^k x) J(D^(k-1) x)^{-1} J(f), with
    J(D^(k-1) x)^{-1} = Gram^{-1} P_{2k-2}; PipelineError names an entry
    that keeps a denominator.  Cached per catalog system and k, since the
    value is deterministic and several tests compare against it."""
    jf = system.jacobian_of_invariants()
    work = jf.transpose() @ system.gram_matrix(frac=True) @ jdkx(system, k)
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
    monkeypatch.setitem(derivations._dx_cache, system.key, (dx[0] * 2,) + dx[1:])


def perturb_p_memo(monkeypatch, system, m: int) -> None:
    """Double entry (1,1) of the memoised P_m of system."""
    basis = derivations.p_matrix(system, m)
    monkeypatch.setitem(derivations._pm_cache, (system.key, m),
                        dataclasses.replace(basis, matrix=doubled_entry(basis.matrix)))


# the inputs of the certificate of C(2) on B2 that the controls perturb,
# each by one of the functions above
PERTURBATIONS = {
    "step": lambda monkeypatch, s: perturb_step_matrix(monkeypatch, 4),
    "dx": perturb_dx_memo,
    "p2": lambda monkeypatch, s: perturb_p_memo(monkeypatch, s, 2),
}
