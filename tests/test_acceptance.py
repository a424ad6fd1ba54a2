"""Acceptance suite: one test per criterion, every tolerance exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion with its wall-clock time.  The pipeline memoises per
(system, k) by design, so later criteria legitimately reuse work done by
earlier ones; all caches are cleared once at the start of the module so a
standalone run is honest about total cost.
"""

import time

import pytest

import propcheck
from oracles import b_by_definition
from multider import golden
from multider.coxeter import get_system, symmetric_polys
from multider.derivations import (
    b_matrix,
    clear_caches,
    jdkx,
    jdkx_det_constant,
    p_matrix,
)
from multider.exactpoly import is_constant_multiple
from multider.verify import (
    verify_b_properties,
    verify_degrees,
    verify_equivariance,
    verify_jdg_identities,
    verify_membership,
    verify_nesting,
    verify_recursion,
    verify_ziegler,
)

SYSTEMS = ("A2", "A3", "B2", "B3", "D4", "I2(5)", "I2(6)")

_done = False


@pytest.fixture(scope="module", autouse=True)
def _fresh_caches():
    global _done
    if not _done:
        clear_caches()
        _done = True
    yield


class _Criterion:
    def __init__(self, number, label, budget=None):
        self.number = number
        self.label = label
        self.budget = budget
        self.t0 = time.perf_counter()

    def finish(self, failed=False):
        elapsed = time.perf_counter() - self.t0
        status = "FAIL" if failed else "PASS"
        budget = f" (budget {self.budget:.0f}s)" if self.budget else ""
        print(f"[acceptance] criterion {self.number:2d} {self.label}: "
              f"{status} in {elapsed:.2f}s{budget}")
        if not failed and self.budget is not None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.1f}s > {self.budget:.0f}s")


def _run(crit, body):
    try:
        body()
    except BaseException:
        crit.finish(failed=True)
        raise
    crit.finish()


def test_criterion_01_b2_golden():
    crit = _Criterion(1, "B2 golden matrices", budget=1.0)

    def body():
        s = get_system("B2")
        assert p_matrix(s, 1).matrix == golden.b2_p1_matrix()
        assert is_constant_multiple(s.q_poly, golden.b2_q_poly()) in (1, -1)
        ratio = golden.matrix_constant_ratio(p_matrix(s, 3).matrix,
                                             golden.b2_p3_matrix())
        assert ratio == 1  # fixture records the resolved constant

    _run(crit, body)


def test_criterion_02_det_jdkx():
    crit = _Criterion(2, "det J(D^k x) * Q^2k constant, k = 1, 2", budget=120.0)

    def body():
        for key in SYSTEMS:
            s = get_system(key)
            for k in (1, 2):
                c = jdkx_det_constant(s, k)
                assert c != 0, (key, k)

    _run(crit, body)


def test_criterion_03_basis_suite_m_0_to_5():
    crit = _Criterion(3, "P_m polynomial + determinant + membership + degrees, "
                         "m = 0..5", budget=300.0)

    def body():
        for key in SYSTEMS:
            s = get_system(key)
            for m in range(6):
                basis = p_matrix(s, m)  # raises if any entry fails to clear
                assert verify_ziegler(s, basis).status == "pass", (key, m)
                mem = verify_membership(s, basis)
                assert mem.status == "pass", (key, m)
                if m > 0:
                    assert mem.detail["orbit_level"] == s.orbit_level
                assert verify_degrees(s, basis).status == "pass", (key, m)

    _run(crit, body)


def test_criterion_04_b_matrix_identities():
    crit = _Criterion(4, "B^(k) difference/closed-form/invariance, k = 1..3")

    def body():
        for key in ("B2", "B3", "D4", "A3"):
            s = get_system(key)
            b1 = b_by_definition(s, 1)
            assert b_matrix(s, 1) == b1, key
            want_diff = b1 + b1.transpose()
            for k in (1, 2, 3):
                bk = b_by_definition(s, k)
                bk1 = b_by_definition(s, k + 1)
                assert b_matrix(s, k + 1) == bk1, (key, k + 1)
                assert bk1 - bk == want_diff, (key, k)
                closed = b1.map(lambda p: p * (k + 1)) + b1.transpose().map(
                    lambda p: p * k)
                assert bk1 == closed, (key, k)
                for rec in verify_b_properties(s, k):
                    assert rec.status == "pass", (key, k, rec.name, rec.witness)

    _run(crit, body)


def test_criterion_05_type_b_b1_formula():
    crit = _Criterion(5, "type B closed form for B^(1), rank 2..4")

    def body():
        for rank in (2, 3, 4):
            s = get_system(f"B{rank}")
            got = b_matrix(s, 1)
            for i in range(1, rank + 1):
                for j in range(1, rank + 1):
                    want = (2 * j - 1) * symmetric_polys(
                        "complete_sq", i + j - rank - 1, rank)
                    assert got[i - 1][j - 1] == want, (rank, i, j)

    _run(crit, body)


def test_criterion_06_recursion_matches_direct():
    crit = _Criterion(6, "inductive P_m equals direct P_m, m <= 5")

    # P_{2k} J(D^k x) = Gram holds iff P_{2k} = Gram J(D^k x)^{-1}, since
    # J(D^k x) is invertible; odd m is then P_{2k} J(f) on both routes.
    def body():
        for key in SYSTEMS:
            s = get_system(key)
            gram = s.gram_matrix()
            for m in range(6):
                assert verify_recursion(s, m).status == "pass", (key, m)
                k = m // 2
                p_even = p_matrix(s, 2 * k).matrix
                assert p_even.to_frac() @ jdkx(s, k) == gram, (key, m)
                if m % 2:
                    assert (p_matrix(s, m).matrix
                            == p_even @ s.jacobian_of_invariants()), (key, m)

    _run(crit, body)


def test_criterion_07_jacobian_derivation_identities():
    crit = _Criterion(7, "J(Dg) identities for g in {x, f, Dx} on B2, B3")

    def body():
        for key in ("B2", "B3"):
            s = get_system(key)
            for rec in verify_jdg_identities(s):
                assert rec.status == "pass", (key, rec.name, rec.witness)

    _run(crit, body)


def test_criterion_08_equivariance():
    crit = _Criterion(8, "generator equivariance, k <= 2, on B2, B3, A2")

    def body():
        for key in ("B2", "B3", "A2"):
            s = get_system(key)
            for k in (0, 1, 2):
                m = 2 * k + 1
                for rec in verify_equivariance(s, k, m):
                    assert rec.status == "pass", (key, k, rec.name, rec.witness)

    _run(crit, body)


def test_criterion_09_property_suites():
    crit = _Criterion(9, "randomised property suites, 1000 cases each", budget=60.0)

    def body():
        for name, suite in propcheck.ALL_SUITES:
            assert suite(1000) == 1000, name

    _run(crit, body)


def test_criterion_10_inclusion_chain():
    crit = _Criterion(10, "columns of P_{m+1} polynomial over P_m, B2/B3, m <= 3")

    def body():
        for key in ("B2", "B3"):
            s = get_system(key)
            for m in range(4):
                rec = verify_nesting(s, m + 1)
                assert rec.status == "pass", (key, m, rec.witness)

    _run(crit, body)
