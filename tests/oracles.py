"""Reference computations the package no longer performs, and an
injected fault that the certificates must catch.

``b_by_definition`` is the definition of the invariant matrix B^(k), a
chain of four products over fractions.  The package builds B^(k) for
k >= 2 by the closed form and certifies the definition through the
product identities of P_m; the tests compare the two.
"""

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


def perturb_jdkx(monkeypatch, level: int) -> None:
    """Make ``derivations.jdkx`` return J(D^level x) with entry (1,1)
    doubled; every other level is left alone."""
    real = derivations.jdkx

    def perturbed(system, k):
        mat = real(system, k)
        if k != level:
            return mat
        rows = [[mat[i][j] for j in range(mat.cols)] for i in range(mat.rows)]
        assert rows[0][0]
        rows[0][0] = rows[0][0] * 2
        return Matrix(rows)

    monkeypatch.setattr(derivations, "jdkx", perturbed)
