"""Certification checks for the derivation pipeline.

Each check returns a CheckRecord with status pass, fail or skipped.  A
failing record always carries a witness (the offending hyperplane factor,
matrix entry, or identity side) so a red result is actionable.  Checks
never raise on mathematical failure; exceptions escaping from here mean a
programming error.

No check takes the determinant of a polynomial matrix of the pipeline:
the determinant claims are certified by Saito's criterion (``saito``),
the inclusion by one exact product.

The checks, by name as used in reports and on the command line:

* ziegler       det P_m is a nonzero constant multiple of Q^m, by Saito's
                criterion: every column is in D^(m) (membership), the
                columns are homogeneous with degrees summing to m |A|, and
                det P_m is nonzero at one fixed rational point p off every
                hyperplane; the constant det P_m(p) / Q(p)^m is recorded.
                A failure names the condition (membership, degrees or
                evaluation) with its witness.
* membership    theta_j(alpha_H) is divisible by alpha_H^m for every
                hyperplane factor and every column.  An irreducible factor
                q of degree d > 1 is a Galois orbit of d irrational mirror
                lines x1 = t x2 of a dihedral arrangement, t a root of
                q(t, 1); with a = theta_j(x1), b = theta_j(x2) at x2 = 1
                the test is exact per line: q(t, 1) divides
                a^(i)(t) - t b^(i)(t) for every i < m (each homogeneous
                degree apart).  Such records are flagged orbit_level.
* degrees       nonzero entries of column j are homogeneous of degree k*h
                (m even) or k*h + m_j (m odd).
* det-jdkx      det J(D^k x) * Q^(2k) is a nonzero rational constant:
                det Gram divided by the certified constant of P_{2k}.
* jdg           matrix identities relating J(D g), J(D x) and D applied
                entrywise, for g in {x, f, D x}.
* b-properties  polynomiality, invariance, degree table, southeast shape,
                antidiagonal relation, central block (type D, even rank),
                constant determinant (one evaluation: with the degree table
                det B^(k) is homogeneous of degree 2|A| - l h = 0), the
                difference identity B^(k+1) - B^(k) = B^(1) + B^(1)^T and
                the closed form B^(k+1) = (k+1) B^(1) + k B^(1)^T.
* equivariance  g[J(D^k x)] = rho^-1 J(D^k x) rho, g[J(f)] = rho^-1 J(f),
                and g[P_m] = rho^T P_m for odd m, for every stored
                generator.
* recursion     the inductive P_m matches the direct formula: the exact
                product P_{2k} J(D^k x) = Gram, k = m // 2 (odd m follows,
                since P_{2k+1} = P_{2k} J(f) is the direct formula too).
* nesting       the columns of P_m have polynomial coordinates in the
                columns of P_{m-1}: the exact product P_{m-1} C_m = P_m
                with the polynomial matrix C_m = J(f) (m odd) or
                -(B^(m/2))^{-1} P_1^T (m even).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .coxeter import CoxeterSystem
from .derivations import (
    DerivationBasis,
    PipelineError,
    apply_derivation,
    b_matrix,
    certify_direct_formula,
    jacobian,
    jdkx,
    jdkx_det_constant,
    jdkx_inverse,
    iterate_dkx,
    p_matrix,
    primitive_dx,
    saito_certificate,
    step_matrix,
)
from .exactpoly import ArrFrac, Matrix, det_at, expand_factor_powers, mat_det_adj, rat_mat_inv
from .saito import evaluation_point, membership_witness

__all__ = [
    "CheckRecord",
    "VerificationReport",
    "CHECK_NAMES",
    "verify_ziegler",
    "verify_membership",
    "verify_degrees",
    "verify_det_jdkx",
    "verify_jdg_identities",
    "verify_b_properties",
    "verify_equivariance",
    "verify_recursion",
    "verify_nesting",
    "resolve_checks",
    "run_verification",
]

CHECK_NAMES = (
    "ziegler",
    "membership",
    "degrees",
    "det-jdkx",
    "jdg",
    "b-properties",
    "equivariance",
    "recursion",
    "nesting",
)


@dataclass
class CheckRecord:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: dict = field(default_factory=dict)
    witness: dict | None = None
    elapsed: float = 0.0

    def to_dict(self, include_timings: bool = False) -> dict:
        out = {"name": self.name, "status": self.status, "detail": self.detail,
               "witness": self.witness}
        if include_timings:
            out["elapsed"] = round(self.elapsed, 6)
        return out


@dataclass
class VerificationReport:
    system: str
    params: dict
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self, include_timings: bool = False) -> dict:
        return {
            "system": self.system,
            "params": self.params,
            "passed": self.passed,
            "checks": [c.to_dict(include_timings) for c in self.checks],
        }


def _finish(record: CheckRecord, t0: float) -> CheckRecord:
    record.elapsed = time.perf_counter() - t0
    return record


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def verify_ziegler(system: CoxeterSystem, basis: DerivationBasis) -> CheckRecord:
    """Saito's criterion on basis (``derivations.saito_certificate``)."""
    t0 = time.perf_counter()
    cert = saito_certificate(system, basis)
    if cert.constant is not None:
        rec = CheckRecord("ziegler", "pass", {"m": basis.m, "constant": str(cert.constant)})
    else:
        rec = CheckRecord("ziegler", "fail", {"m": basis.m}, cert.witness)
    return _finish(rec, t0)


def verify_membership(system: CoxeterSystem, basis: DerivationBasis) -> CheckRecord:
    """Membership as recorded by the basis certificate, which Saito's
    criterion runs first, so ziegler and membership share it."""
    t0 = time.perf_counter()
    m = basis.m
    if m == 0:
        return _finish(
            CheckRecord("membership", "pass", {"m": 0, "vacuous": True}), t0
        )
    failure = saito_certificate(system, basis).membership
    if failure is None:
        return _finish(
            CheckRecord("membership", "pass", {"m": m, "orbit_level": system.orbit_level}), t0
        )
    # the flag reports whether an orbit factor was reached before the failure
    orbit_level = any(q.degree() > 1 for q in system.factors[:failure[0] + 1])
    rec = CheckRecord("membership", "fail", {"m": m, "orbit_level": orbit_level},
                      membership_witness(system.factors, failure))
    return _finish(rec, t0)


def verify_degrees(system: CoxeterSystem, basis: DerivationBasis) -> CheckRecord:
    t0 = time.perf_counter()
    k = basis.m // 2
    if basis.m % 2 == 0:
        expected = (k * system.h,) * system.rank
    else:
        expected = tuple(k * system.h + e for e in system.exponents)
    for j in range(system.rank):
        for i in range(system.rank):
            e = basis.matrix[i][j]
            if e and (not e.is_homogeneous() or e.degree() != expected[j]):
                rec = CheckRecord(
                    "degrees",
                    "fail",
                    {"m": basis.m, "expected": list(expected)},
                    {"entry": [i + 1, j + 1], "degree": e.degree()},
                )
                return _finish(rec, t0)
    return _finish(
        CheckRecord("degrees", "pass", {"m": basis.m, "column_degrees": list(expected)}),
        t0,
    )


def verify_det_jdkx(system: CoxeterSystem, k: int) -> CheckRecord:
    t0 = time.perf_counter()
    try:
        c = jdkx_det_constant(system, k)
    except PipelineError as err:
        return _finish(
            CheckRecord("det-jdkx", "fail", {"k": k}, {"reason": str(err)}), t0
        )
    return _finish(CheckRecord("det-jdkx", "pass", {"k": k, "constant": str(c)}), t0)


def _matrix_apply_d(mat: Matrix, dx) -> Matrix:
    return mat.map(lambda e: apply_derivation(e, dx))


def _resolve_g(system: CoxeterSystem, g_key):
    """The vector g, and k when g = D^k x (None otherwise)."""
    if isinstance(g_key, (list, tuple)):
        return [g if isinstance(g, ArrFrac) else ArrFrac.from_poly(g) for g in g_key], None
    if g_key == "f":
        return [ArrFrac.from_poly(f) for f in system.invariants], None
    if g_key == "x":
        k = 0
    elif g_key == "dx":
        k = 1
    elif g_key.startswith("d") and g_key.endswith("x"):
        k = int(g_key[1:-1])
    else:
        raise ValueError(f"unknown g selector: {g_key!r}")
    return list(iterate_dkx(system, k)), k


def _jacobian_inverse(system: CoxeterSystem, jg: Matrix, k: int | None):
    """J(g)^{-1}, or None when J(g) is singular.  For g = D^k x it is
    Gram^{-1} P_{2k}, which the product identity certifies."""
    if k is not None:
        return jdkx_inverse(system, k)
    # J(g) = N / d over the common denominator d, so J(g)^{-1} = d adj N / det N
    den: dict = {}
    for i in range(jg.rows):
        for j in range(jg.cols):
            for f, e in jg[i][j].den.items():
                den[f] = max(den.get(f, 0), e)
    d = ArrFrac.from_poly(expand_factor_powers(system.rank, den))
    det, adj = mat_det_adj(jg.map(lambda e: (e * d).as_poly()))
    if not det:
        return None
    scale = d * ArrFrac.from_poly(det).inverse(system.factors)
    return adj.map(lambda e: scale * e)


def verify_jdg_identities(system: CoxeterSystem, g_key: str = "x",
                          include_f_identity: bool = True) -> list[CheckRecord]:
    """Check J(Dg) = J(Dx) J(g) + D[J(g)] and its inverse-form companions."""
    records: list[CheckRecord] = []
    dx = primitive_dx(system)
    gs, level = _resolve_g(system, g_key)
    jg = jacobian(gs)
    dg = [apply_derivation(g, dx) for g in gs]
    jdg = jacobian(dg)
    jdx = jdkx(system, 1)
    tag = f"jdg({g_key})" if isinstance(g_key, str) else "jdg(custom)"

    t0 = time.perf_counter()
    lhs = jdg
    rhs = (jdx @ jg) + _matrix_apply_d(jg, dx)
    records.append(_finish(_eq_record(f"{tag}.i", lhs, rhs), t0))

    t0 = time.perf_counter()
    inv = _jacobian_inverse(system, jg, level)
    if inv is None:
        records.append(_finish(CheckRecord(f"{tag}.ii", "skipped", {"reason": "J(g) singular"}), t0))
        records.append(CheckRecord(f"{tag}.iv", "skipped", {"reason": "J(g) singular"}))
    else:
        d_jg = _matrix_apply_d(jg, dx)
        lhs = _matrix_apply_d(inv, dx)
        rhs = -(inv @ d_jg @ inv)
        records.append(_finish(_eq_record(f"{tag}.ii", lhs, rhs), t0))

        t0 = time.perf_counter()
        jf = system.jacobian_of_invariants()
        lhs = _matrix_apply_d(inv @ jf, dx)
        rhs = -(inv @ jdg @ inv @ jf)
        records.append(_finish(_eq_record(f"{tag}.iv", lhs, rhs), t0))

    if include_f_identity:
        t0 = time.perf_counter()
        jf = system.jacobian_of_invariants()
        lhs = _matrix_apply_d(jf, dx)
        rhs = -(jdx @ jf)
        records.append(_finish(_eq_record("jdg.iii", lhs, rhs), t0))
    return records


def _eq_record(name: str, lhs: Matrix, rhs: Matrix) -> CheckRecord:
    for i in range(lhs.rows):
        for j in range(lhs.cols):
            if lhs[i][j] != rhs[i][j]:
                return CheckRecord(
                    name,
                    "fail",
                    {},
                    {"entry": [i + 1, j + 1], "lhs": str(lhs[i][j]), "rhs": str(rhs[i][j])},
                )
    return CheckRecord(name, "pass")


def _central_block(system: CoxeterSystem) -> set[tuple[int, int]]:
    """0-based index pairs of the central 2x2 block for type D of even rank."""
    if system.family == "D" and system.rank % 2 == 0:
        p = system.rank // 2 - 1
        return {(p, p), (p, p + 1), (p + 1, p), (p + 1, p + 1)}
    return set()


def verify_b_properties(system: CoxeterSystem, k: int,
                        next_route: str = "definition") -> list[CheckRecord]:
    """Structural properties of B^(k) plus the step identities to B^(k+1)."""
    records: list[CheckRecord] = []
    ell = system.rank
    exps = system.exponents
    h = system.h
    central = _central_block(system)

    t0 = time.perf_counter()
    bk = b_matrix(system, k, route="definition").matrix
    bk_closed = b_matrix(system, k, route="closed_form").matrix
    records.append(_finish(_eq_record(f"b({k}).def_eq_closed", bk, bk_closed), t0))

    t0 = time.perf_counter()
    rec = CheckRecord(f"b({k}).degrees", "pass", {"rule": "m_i + m_j - h"})
    for i in range(ell):
        for j in range(ell):
            e = bk[i][j]
            want = exps[i] + exps[j] - h
            if e and (not e.is_homogeneous() or e.degree() != want):
                rec = CheckRecord(f"b({k}).degrees", "fail", {},
                                  {"entry": [i + 1, j + 1], "degree": e.degree(),
                                   "expected": want})
                break
        if rec.status == "fail":
            break
    degrees = _finish(rec, t0)
    records.append(degrees)

    t0 = time.perf_counter()
    rec = CheckRecord(f"b({k}).invariance", "pass",
                      {"generators": len(system.generators)})
    for gi, g in enumerate(system.generators):
        for i in range(ell):
            for j in range(ell):
                e = bk[i][j]
                if e and e.substitute_linear(g) != e:
                    rec = CheckRecord(f"b({k}).invariance", "fail", {},
                                      {"generator": gi + 1, "entry": [i + 1, j + 1]})
                    break
            if rec.status == "fail":
                break
        if rec.status == "fail":
            break
    records.append(_finish(rec, t0))

    t0 = time.perf_counter()
    rec = CheckRecord(f"b({k}).shape", "pass", {"rule": "zero when i + j <= l"})
    for i in range(ell):
        for j in range(ell):
            if i + j + 2 < ell + 1 and (i, j) not in central and bk[i][j]:
                rec = CheckRecord(f"b({k}).shape", "fail", {},
                                  {"entry": [i + 1, j + 1], "value": str(bk[i][j])})
                break
        if rec.status == "fail":
            break
    records.append(_finish(rec, t0))

    # The m-weighted symmetry m_i B_ij = m_j B_ji holds for B^(1); at level k
    # the antidiagonal carries (k + (k-1) m_i/m_j) B^(1)_ij, still a nonzero
    # constant but no longer m-symmetric (B2 already shows (7, 5) at k = 2).
    t0 = time.perf_counter()
    rec = CheckRecord(f"b({k}).antidiagonal", "pass",
                      {"rule": "entries in Q*; m_i B_ij = m_j B_ji at level 1"})
    b1m = b_matrix(system, 1, route="definition").matrix
    for i in range(ell):
        j = ell - 1 - i
        if (i, j) in central:
            continue
        e_ij, e_ji = bk[i][j], bk[j][i]
        ok = (e_ij.is_constant() and e_ji.is_constant()
              and e_ij.constant_value() != 0
              and b1m[i][j] * exps[i] == b1m[j][i] * exps[j])
        if not ok:
            rec = CheckRecord(f"b({k}).antidiagonal", "fail", {},
                              {"entry": [i + 1, j + 1], "b_ij": str(e_ij),
                               "b_ji": str(e_ji),
                               "b1_ij": str(b1m[i][j]), "b1_ji": str(b1m[j][i])})
            break
    records.append(_finish(rec, t0))

    if central:
        t0 = time.perf_counter()
        p = system.rank // 2 - 1
        block = [[bk[p][p], bk[p][p + 1]], [bk[p + 1][p], bk[p + 1][p + 1]]]
        b1 = b_matrix(system, 1, route="definition").matrix
        block1 = [[b1[p][p], b1[p][p + 1]], [b1[p + 1][p], b1[p + 1][p + 1]]]
        ok = all(e.is_constant() for row in block for e in row)
        ok = ok and block[0][1] == block[1][0]
        det0 = (block[0][0] * block[1][1] - block[0][1] * block[1][0])
        ok = ok and det0.is_constant() and det0.constant_value() != 0
        scale = 2 * k - 1  # central block of B^(k) is (2k-1) times that of B^(1)
        ok = ok and all(
            block[a][b] == block1[a][b] * scale for a in range(2) for b in range(2)
        )
        rec = CheckRecord(f"b({k}).central", "pass",
                          {"scale": scale}) if ok else CheckRecord(
            f"b({k}).central", "fail", {},
            {"block": [[str(e) for e in row] for row in block]})
        records.append(_finish(rec, t0))

    # with the degree table, each term of det B^(k) has degree
    # sum_i (m_i + m_sigma(i) - h) = 2|A| - l h = 0, so one value is det B^(k)
    t0 = time.perf_counter()
    name = f"b({k}).det_constant"
    if degrees.status != "pass":
        rec = CheckRecord(name, "skipped",
                          {"reason": f"b({k}).degrees failed; the value at a point "
                                     "is the determinant only for that degree table"})
    else:
        point, _ = evaluation_point(ell, system.factors)
        value = det_at(bk, point)
        rec = (CheckRecord(name, "pass", {"constant": str(value)}) if value
               else CheckRecord(name, "fail", {}, {"point": list(point), "value": "0"}))
    records.append(_finish(rec, t0))

    t0 = time.perf_counter()
    bk1 = b_matrix(system, k + 1, route=next_route).matrix
    b1 = b_matrix(system, 1, route="definition").matrix
    diff = bk1 - bk
    want = b1 + b1.transpose()
    records.append(_finish(_eq_record(f"b({k}).difference", diff, want), t0))
    records[-1].detail["next_route"] = next_route

    t0 = time.perf_counter()
    closed = b1.map(lambda p: p * (k + 1)) + b1.transpose().map(lambda p: p * k)
    records.append(_finish(_eq_record(f"b({k}).closed_formula", bk1, closed), t0))
    records[-1].detail["next_route"] = next_route
    return records


def verify_equivariance(system: CoxeterSystem, k: int, m: int) -> list[CheckRecord]:
    """Generator action on J(D^k x), J(f) and on P_m (odd m)."""
    records: list[CheckRecord] = []
    ell = system.rank
    jk = jdkx(system, k)
    jf = system.jacobian_of_invariants()
    basis = p_matrix(system, m) if m % 2 == 1 else None
    for gi, g in enumerate(system.generators):
        rho = Matrix.from_rational(g, ell, frac=True)
        rho_inv = Matrix.from_rational(rat_mat_inv(g), ell, frac=True)

        t0 = time.perf_counter()
        lhs = jk.map(lambda e: e.substitute_linear(g))
        rhs = rho_inv @ jk @ rho
        records.append(_finish(_eq_record(f"equivariance.g{gi + 1}.jdkx", lhs, rhs), t0))
        records[-1].detail["k"] = k

        t0 = time.perf_counter()
        lhs = jf.map(lambda e: e.substitute_linear(g))
        rhs = rho_inv @ jf
        records.append(_finish(_eq_record(f"equivariance.g{gi + 1}.jf", lhs, rhs), t0))

        if basis is not None:
            t0 = time.perf_counter()
            rho_t = Matrix.from_rational(
                tuple(tuple(g[a][b] for a in range(ell)) for b in range(ell)), ell
            )
            lhs = basis.matrix.map(lambda e: e.substitute_linear(g))
            rhs = rho_t @ basis.matrix
            records.append(
                _finish(_eq_record(f"equivariance.g{gi + 1}.p_odd", lhs, rhs), t0)
            )
            records[-1].detail["m"] = m
    return records


def verify_recursion(system: CoxeterSystem, m: int) -> CheckRecord:
    """The product identity P_{2k} J(D^k x) = Gram, recomputed even when
    P_{2k} comes from the memo."""
    t0 = time.perf_counter()
    k = m // 2
    try:
        certify_direct_formula(system, k, p_matrix(system, 2 * k).matrix)
    except PipelineError as err:
        return _finish(
            CheckRecord("recursion", "fail", {"m": m}, {"reason": str(err)}), t0
        )
    return _finish(CheckRecord("recursion", "pass", {"m": m}), t0)


def verify_nesting(system: CoxeterSystem, m: int) -> CheckRecord:
    """Columns of P_m in the polynomial span of the columns of P_{m-1}:
    the exact product P_{m-1} C_m equals P_m for the polynomial C_m of
    ``derivations.step_matrix``."""
    t0 = time.perf_counter()
    if m == 0:
        return _finish(
            CheckRecord("nesting", "skipped", {"reason": "m = 0 has no predecessor"}), t0
        )
    product = p_matrix(system, m - 1).matrix @ step_matrix(system, m)
    rec = _eq_record("nesting", product, p_matrix(system, m).matrix)
    rec.detail = {"m": m}
    return _finish(rec, t0)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def resolve_checks(checks) -> set[str]:
    """The check names a request selects; ValueError names any unknown one."""
    wanted = set(checks)
    if "all" in wanted:
        wanted = set(CHECK_NAMES)
    unknown = wanted - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    return wanted


def run_verification(system: CoxeterSystem, m: int,
                     checks=("all",)) -> VerificationReport:
    wanted = resolve_checks(checks)
    report = VerificationReport(system.key, {"m": m, "checks": sorted(wanted)})
    k = m // 2

    basis = None
    if wanted & {"ziegler", "membership", "degrees", "equivariance"}:
        try:
            basis = p_matrix(system, m)
        except PipelineError as err:
            report.checks.append(
                CheckRecord("construction", "fail", {"m": m}, {"reason": str(err)})
            )
            return report

    if "ziegler" in wanted:
        report.checks.append(verify_ziegler(system, basis))
    if "membership" in wanted:
        report.checks.append(verify_membership(system, basis))
    if "degrees" in wanted:
        report.checks.append(verify_degrees(system, basis))
    if "det-jdkx" in wanted:
        report.checks.append(verify_det_jdkx(system, k))
    if "jdg" in wanted:
        for i, g_key in enumerate(("x", "f", "dx")):
            report.checks.extend(
                verify_jdg_identities(system, g_key, include_f_identity=(i == 0))
            )
    if "b-properties" in wanted:
        report.checks.extend(verify_b_properties(system, max(1, k)))
    if "equivariance" in wanted:
        report.checks.extend(verify_equivariance(system, k, m))
    if "recursion" in wanted:
        report.checks.append(verify_recursion(system, m))
    if "nesting" in wanted:
        report.checks.append(verify_nesting(system, m))
    return report
