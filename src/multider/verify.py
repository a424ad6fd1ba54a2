"""Certification checks for the derivation pipeline.

Each check returns a CheckRecord with status pass, fail or skipped.  A
failing record always carries a witness (the offending hyperplane factor,
matrix entry, or identity side) so a red result is actionable.  Checks
never raise on mathematical failure; exceptions escaping from here mean a
programming error.

Each record carries a lap (``CheckRecord.elapsed``): a check starts one
clock (``_Laps``) at its top, and each record it stamps is charged the time
since the previous stamp, so the laps of a check add up to the check's time
and work two records share is charged to the first.  Building P_m before
the first check (``run_verification``) is charged to no record.  Laps are
never part of a record's ``to_dict``.

No check takes the determinant of a polynomial matrix of the pipeline:
the determinant claims are certified by Saito's criterion (``saito``),
the inclusion by one exact product.

Identities over fractions (``jdg``, ``equivariance``) are compared
unreduced: the last product or derivative of each side is a grid of
(numerator, denominator exponents) pairs compared by
``exactpoly.pairs_equal``, and only the first differing entry is reduced,
on both sides, for its witness.  Intermediate products are kept reduced,
since reduced they are smaller operands.

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
* jdg           ten records of matrix identities relating J(D g), J(D x)
                and D applied entrywise, for g in {x, f, D x}, and iii,
                D[J(f)] = -J(D x) J(f).  i, J(Dg) = J(Dx) J(g) + D[J(g)],
                is compared as it stands; for g = D^k x it reads the
                memoised J(D^(k+1) x), and for g = x (and in iii), J(D x)
                on the right is the Jacobian of the certified primitive
                derivation.  ii, D[J(g)^{-1}] = -J(g)^{-1} D[J(g)]
                J(g)^{-1}, is D applied to J(g)^{-1} J(g) = I, so the
                record is that product; for g = D^k x it reads the
                memoised J(D^k x).  iv at g = D^k x is the certificate of
                C(k + 1) (proof in ``verify_jdg_identities``); at g = f it
                is compared as it stands.
* b-properties  polynomiality, invariance, degree table, southeast shape,
                antidiagonal relation, central block (type D, even rank),
                constant determinant (one evaluation: with the degree table
                det B^(k) is homogeneous of degree 2|A| - l h = 0); by
                definition, B^(k) and B^(k+1) equal their closed forms and
                B^(k+1) - B^(k) = B^(1) + B^(1)^T, which follow from
                C(j): P_{2j} J(D^j x) = Gram for j <= k (def_eq_closed) or
                j <= k + 1 (proof in ``derivations.b_matrix``), each
                certified from C(j - 1) by D[P_{2j-1}] C_{2j} = -P_{2j-2}
                by the first record that reads it, and read from the record
                of that certificate afterwards, run again only when one of
                its inputs changed.  No product P_{2j-1} C_{2j} is formed
                for the memoised P_{2j}.
* equivariance  g[J(D^k x)] = rho^-1 J(D^k x) rho, g[J(f)] = rho^-1 J(f),
                and g[P_m] = rho^T P_m for odd m, for every stored
                generator.  The first is compared over polynomials as
                g[P_{2k}] = rho^T P_{2k} rho, its equivalent given C(k) and
                rho^T Gram rho = Gram (proof in ``verify_equivariance``);
                C(k) is read as for b-properties.
* recursion     the inductive P_m matches the direct formula: C(j) for
                j <= m // 2, certified and recorded as for b-properties
                (odd m follows, as P_{2k+1} = P_{2k} J(f)).
* nesting       the columns of P_m have polynomial coordinates in the
                columns of P_{m-1}: the exact product P_{m-1} C_m = P_m
                with the step matrix C_m (``derivations.step_matrix``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from .coxeter import CoxeterSystem
from .derivations import (
    DerivationBasis,
    PipelineError,
    _expected_degrees,
    _wrong_degree,
    apply_derivation,
    b_matrix,
    certify_direct_formulas,
    derivation_pair,
    jacobian,
    jdkx,
    jdkx_det_constant,
    jdkx_inverse,
    jf_inverse,
    p_matrix,
    primitive_dx,
    saito_certificate,
    step_matrix,
)
from .exactpoly import (
    ArrFrac,
    Matrix,
    det_at,
    pairs_equal,
    rat_mat_inv,
    sum_pairs,
)
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
    elapsed: float = 0.0  # the lap of _Laps.stamp; never serialised

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail,
                "witness": self.witness}


@dataclass
class VerificationReport:
    system: str
    params: dict
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "params": self.params,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


class _Laps:
    """The clock of one check, started where the check starts: each record
    it stamps is charged the time since the previous stamp, so the records
    of a check add up to the check's time and no work is charged twice."""

    def __init__(self) -> None:
        self._last = perf_counter()

    def stamp(self, record: CheckRecord) -> CheckRecord:
        now = perf_counter()
        record.elapsed, self._last = now - self._last, now
        return record


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def verify_ziegler(system: CoxeterSystem, basis: DerivationBasis) -> CheckRecord:
    """Saito's criterion on basis (``derivations.saito_certificate``)."""
    laps = _Laps()
    cert = saito_certificate(system, basis)
    if cert.constant is not None:
        rec = CheckRecord("ziegler", "pass", {"m": basis.m, "constant": str(cert.constant)})
    else:
        rec = CheckRecord("ziegler", "fail", {"m": basis.m}, cert.witness)
    return laps.stamp(rec)


def verify_membership(system: CoxeterSystem, basis: DerivationBasis) -> CheckRecord:
    """Membership as recorded by the basis certificate, which Saito's
    criterion runs first, so ziegler and membership share it."""
    laps = _Laps()
    m = basis.m
    if m == 0:
        return laps.stamp(CheckRecord("membership", "pass", {"m": 0, "vacuous": True}))
    failure = saito_certificate(system, basis).membership
    if failure is None:
        return laps.stamp(
            CheckRecord("membership", "pass", {"m": m, "orbit_level": system.orbit_level})
        )
    # the flag reports whether an orbit factor was reached before the failure
    orbit_level = any(q.degree() > 1 for q in system.factors[:failure[0] + 1])
    rec = CheckRecord("membership", "fail", {"m": m, "orbit_level": orbit_level},
                      membership_witness(system.factors, failure))
    return laps.stamp(rec)


def verify_degrees(system: CoxeterSystem, basis: DerivationBasis) -> CheckRecord:
    laps = _Laps()
    expected = _expected_degrees(system, basis.m)
    bad = _wrong_degree(basis.matrix, expected)
    if bad is None:
        rec = CheckRecord("degrees", "pass", {"m": basis.m, "column_degrees": list(expected)})
    else:
        rec = CheckRecord("degrees", "fail", {"m": basis.m, "expected": list(expected)},
                          {"entry": [bad[0] + 1, bad[1] + 1],
                           "degree": basis.matrix[bad[0]][bad[1]].degree()})
    return laps.stamp(rec)


def verify_det_jdkx(system: CoxeterSystem, k: int) -> CheckRecord:
    laps = _Laps()
    try:
        c = jdkx_det_constant(system, k)
    except PipelineError as err:
        return laps.stamp(CheckRecord("det-jdkx", "fail", {"k": k}, {"reason": str(err)}))
    return laps.stamp(CheckRecord("det-jdkx", "pass", {"k": k, "constant": str(c)}))


def _pairs(mat: Matrix) -> list[list[tuple]]:
    return [[(e.num, e.den) if isinstance(e, ArrFrac) else (e, {}) for e in mat[i]]
            for i in range(mat.rows)]


def _d_pairs(mat: Matrix, dx) -> list[list[tuple]]:
    return [[derivation_pair(e, dx) for e in mat[i]] for i in range(mat.rows)]


def _negated(grid: list[list[tuple]]) -> list[list[tuple]]:
    return [[(-num, den) for num, den in row] for row in grid]


def _chain_rule_rhs(rank: int, jdx: Matrix, jg: Matrix, d_jg) -> list[list[tuple]]:
    """J(Dx) J(g) + D[J(g)] for identity i, unreduced; d_jg is pairs."""
    return [[sum_pairs(rank, [pair, d]) for pair, d in zip(row, d_row)]
            for row, d_row in zip(jdx.product_pairs(jg), d_jg)]


def _jdkx_records(system: CoxeterSystem, k: int, jdx: Matrix,
                  laps: _Laps) -> list[CheckRecord]:
    """i, ii and iv at g = D^k x, k in {0, 1}; i reads jdx as J(D x)."""
    tag = ("jdg(x)", "jdg(dx)")[k]
    jg = jdkx(system, k)
    dx = primitive_dx(system)
    d_jg = _pairs(jg.map(lambda e: apply_derivation(e, dx)))
    rhs = _chain_rule_rhs(system.rank, jdx, jg, d_jg)
    records = [laps.stamp(_eq_record(f"{tag}.i", _pairs(jdkx(system, k + 1)), rhs))]

    product = jdkx_inverse(system, k).product_pairs(jg)
    one = _pairs(Matrix.identity(system.rank, system.rank))
    records.append(laps.stamp(_eq_record(f"{tag}.ii", product, one)))

    witness = _direct_formula_witness(system, k + 1)
    records.append(laps.stamp(_certified_record(f"{tag}.iv", witness, {})))
    return records


def verify_jdg_identities(system: CoxeterSystem) -> list[CheckRecord]:
    """The ten records jdg(x).i/ii/iv, jdg.iii, jdg(f).i/ii/iv and
    jdg(dx).i/ii/iv: J(Dg) = J(Dx) J(g) + D[J(g)] (i), D[J(g)^{-1}] =
    -J(g)^{-1} D[J(g)] J(g)^{-1} (ii) and D[J(g)^{-1} J(f)] = -J(g)^{-1}
    J(Dg) J(g)^{-1} J(f) (iv) for g in {x, f, D x}, and D[J(f)] = -J(Dx)
    J(f) (iii).  No J(g) is singular: J(x) = I, det J(f) = c Q is certified
    with the catalog entry, and J(D x)^{-1} = Gram^{-1} P_2 by C(1).

    i is compared as it stands; at g = D^k x its left side is the memoised
    J(D^(k+1) x).  J(D x) on its right is the Jacobian of the certified
    primitive derivation at g = x, as in iii, and the memoised one
    otherwise.  D[J(f)] is formed once, for iii and i at g = f.

    ii is D applied to J(g)^{-1} J(g) = I (D is a derivation, so
    D[Y^{-1}] Y + Y^{-1} D[Y] = 0), so the record is that product, compared
    with I.  For g = D^k x it is Gram^{-1} P_{2k} times the memoised
    J(D^k x), for g = f the memoised adj J(f) / (c Q), reduced, times J(f).

    iv at g = D^k x is the certificate of C(k + 1): P_{2k+2} J(D^(k+1) x) =
    Gram.  Write Y = J(D^k x), Z = J(D^(k+1) x).  C(k) gives Y^{-1} =
    Gram^{-1} P_{2k}, so with P_{2k+1} = P_{2k} J(f) iv reads
    D[P_{2k+1}] = -P_{2k} Z Gram^{-1} P_{2k+1}; times C_{2k+2} on the right
    (P_{2k+2} = P_{2k+1} C_{2k+2}, invertible) it is
    D[P_{2k+1}] C_{2k+2} = -P_{2k} Z Gram^{-1} P_{2k+2}, and with C(k + 1)
    that is D[P_{2k+1}] C_{2k+2} = -P_{2k}, the identity that certifies
    C(k + 1) from C(k) (``derivations.certify_direct_formula``).  The record
    certifies C(1), ..., C(k + 1) in order, reading any certificate already
    recorded on the same objects.  For g = f, iv is compared as it stands.
    """
    laps = _Laps()
    dx = primitive_dx(system)
    fresh_jdx = jacobian(dx)
    records = _jdkx_records(system, 0, fresh_jdx, laps)

    jf = system.jacobian_of_invariants()
    d_jf = _d_pairs(jf, dx)
    rhs = _negated(fresh_jdx.product_pairs(jf))
    records.append(laps.stamp(_eq_record("jdg.iii", d_jf, rhs)))

    jdf = jacobian([apply_derivation(f, dx) for f in system.invariants])
    rhs = _chain_rule_rhs(system.rank, jdkx(system, 1), jf, d_jf)
    records.append(laps.stamp(_eq_record("jdg(f).i", _pairs(jdf), rhs)))

    inv = Matrix([[ArrFrac(*pair) for pair in row] for row in jf_inverse(system)])
    one = _pairs(Matrix.identity(system.rank, system.rank))
    records.append(laps.stamp(_eq_record("jdg(f).ii", inv.product_pairs(jf), one)))

    inv_jf = inv @ jf
    rhs = _negated((inv @ jdf).product_pairs(inv_jf))
    records.append(laps.stamp(_eq_record("jdg(f).iv", _d_pairs(inv_jf, dx), rhs)))

    return records + _jdkx_records(system, 1, jdkx(system, 1), laps)


def _eq_record(name: str, lhs: list[list[tuple]], rhs: list[list[tuple]]) -> CheckRecord:
    """Entrywise equality of two grids of pairs (``pairs_equal``); the
    first differing entry is reduced on both sides for the witness."""
    for i, (lhs_row, rhs_row) in enumerate(zip(lhs, rhs)):
        for j, (a, b) in enumerate(zip(lhs_row, rhs_row)):
            if not pairs_equal(a, b):
                return CheckRecord(
                    name,
                    "fail",
                    {},
                    {"entry": [i + 1, j + 1], "lhs": str(ArrFrac(*a)), "rhs": str(ArrFrac(*b))},
                )
    return CheckRecord(name, "pass")


def _central_block(system: CoxeterSystem) -> set[tuple[int, int]]:
    """0-based index pairs of the central 2x2 block for type D of even rank."""
    if system.family == "D" and system.rank % 2 == 0:
        p = system.rank // 2 - 1
        return {(p, p), (p, p + 1), (p + 1, p), (p + 1, p + 1)}
    return set()


def _direct_formula_witness(system: CoxeterSystem, top: int) -> dict | None:
    """None when C(j) holds for every j <= top, each certified from C(j - 1)
    (``derivations.certify_direct_formulas``), else the failure of the
    first j that breaks it."""
    try:
        certify_direct_formulas(system, top)
    except PipelineError as err:
        return {"reason": str(err)}
    return None


def _certified_record(name: str, witness: dict | None, detail: dict) -> CheckRecord:
    return CheckRecord(name, "pass" if witness is None else "fail", detail, witness)


def verify_b_properties(system: CoxeterSystem, k: int) -> list[CheckRecord]:
    """Structural properties of B^(k) plus the step identities to B^(k+1).

    B^(j) by definition equals the closed form exactly when C(j - 1) and
    C(j) hold, C(j) being P_{2j} J(D^j x) = Gram (see
    ``derivations.b_matrix``), so the records that compare the definition
    with the closed form certify C(1), ..., C(j) (C(0) holds trivially).
    """
    laps = _Laps()
    records: list[CheckRecord] = []
    ell = system.rank
    exps = system.exponents
    h = system.h
    central = _central_block(system)

    bk = b_matrix(system, k)
    b1 = b_matrix(system, 1)
    witness = _direct_formula_witness(system, k)
    records.append(laps.stamp(_certified_record(f"b({k}).def_eq_closed", witness, {})))

    cells = [(i, j) for i in range(ell) for j in range(ell)]
    want = {(i, j): exps[i] + exps[j] - h for i, j in cells}
    bad = next(((i, j) for i, j in cells if bk[i][j] and (
        not bk[i][j].is_homogeneous() or bk[i][j].degree() != want[i, j])), None)
    rec = (CheckRecord(f"b({k}).degrees", "pass", {"rule": "m_i + m_j - h"}) if bad is None
           else CheckRecord(f"b({k}).degrees", "fail", {},
                            {"entry": [bad[0] + 1, bad[1] + 1],
                             "degree": bk[bad[0]][bad[1]].degree(), "expected": want[bad]}))
    degrees = laps.stamp(rec)
    records.append(degrees)

    bad = next(((gi, i, j) for gi, g in enumerate(system.generators) for i, j in cells
                if bk[i][j] and bk[i][j].substitute_linear(g) != bk[i][j]), None)
    rec = (CheckRecord(f"b({k}).invariance", "pass", {"generators": len(system.generators)})
           if bad is None else
           CheckRecord(f"b({k}).invariance", "fail", {},
                       {"generator": bad[0] + 1, "entry": [bad[1] + 1, bad[2] + 1]}))
    records.append(laps.stamp(rec))

    bad = next(((i, j) for i, j in cells
                if i + j + 2 < ell + 1 and (i, j) not in central and bk[i][j]), None)
    rec = (CheckRecord(f"b({k}).shape", "pass", {"rule": "zero when i + j <= l"}) if bad is None
           else CheckRecord(f"b({k}).shape", "fail", {},
                            {"entry": [bad[0] + 1, bad[1] + 1], "value": str(bk[bad[0]][bad[1]])}))
    records.append(laps.stamp(rec))

    # The m-weighted symmetry m_i B_ij = m_j B_ji holds for B^(1); at level k
    # the antidiagonal carries (k + (k-1) m_i/m_j) B^(1)_ij, still a nonzero
    # constant but no longer m-symmetric (B2 already shows (7, 5) at k = 2).
    rec = CheckRecord(f"b({k}).antidiagonal", "pass",
                      {"rule": "entries in Q*; m_i B_ij = m_j B_ji at level 1"})
    for i in range(ell):
        j = ell - 1 - i
        if (i, j) in central:
            continue
        e_ij, e_ji = bk[i][j], bk[j][i]
        ok = (e_ij.is_constant() and e_ji.is_constant()
              and e_ij.constant_value() != 0
              and b1[i][j] * exps[i] == b1[j][i] * exps[j])
        if not ok:
            rec = CheckRecord(f"b({k}).antidiagonal", "fail", {},
                              {"entry": [i + 1, j + 1], "b_ij": str(e_ij),
                               "b_ji": str(e_ji),
                               "b1_ij": str(b1[i][j]), "b1_ji": str(b1[j][i])})
            break
    records.append(laps.stamp(rec))

    if central:
        p = system.rank // 2 - 1
        block = [[bk[p][p], bk[p][p + 1]], [bk[p + 1][p], bk[p + 1][p + 1]]]
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
        records.append(laps.stamp(rec))

    # with the degree table, each term of det B^(k) has degree
    # sum_i (m_i + m_sigma(i) - h) = 2|A| - l h = 0, so one value is det B^(k)
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
    records.append(laps.stamp(rec))

    # B^(k+1) - B^(k) and the closed form of B^(k+1), both by definition;
    # the detail key names the route these records have always checked.
    # Both read the one certificate, which the first record is charged.
    witness = _direct_formula_witness(system, k + 1)
    for name in ("difference", "closed_formula"):
        records.append(laps.stamp(_certified_record(
            f"b({k}).{name}", witness, {"next_route": "definition"})))
    return records


def verify_equivariance(system: CoxeterSystem, k: int, m: int) -> list[CheckRecord]:
    """Generator action on J(D^k x), J(f) and on P_m (odd m).

    C(k) gives J(D^k x) = P_{2k}^{-1} Gram, and substitution is a ring
    automorphism, so g[J(D^k x)] = rho^-1 J(D^k x) rho reads g[P_{2k}] =
    Gram rho^-1 Gram^-1 P_{2k} rho.  Every stored generator satisfies
    rho^T Gram rho = Gram (checked with the catalog entry), so that is
    g[P_{2k}] = rho^T P_{2k} rho, compared over polynomials.  C(k) is
    certified, or read from its record, by ``_direct_formula_witness``; the
    records fail with its reason when it fails.
    """
    laps = _Laps()
    records: list[CheckRecord] = []
    ell = system.rank
    witness = _direct_formula_witness(system, k)
    p_even = p_matrix(system, 2 * k).matrix if witness is None else None
    jf = system.jacobian_of_invariants()
    basis = p_matrix(system, m) if m % 2 == 1 else None
    for gi, g in enumerate(system.generators):
        rho = Matrix.from_rational(g, ell)
        rho_t = rho.transpose()

        name = f"equivariance.g{gi + 1}.jdkx"
        if witness is None:
            lhs = p_even.map(lambda e: e.substitute_linear(g))
            rec = _eq_record(name, _pairs(lhs), _pairs(rho_t @ p_even @ rho))
            rec.detail["k"] = k
        else:
            rec = CheckRecord(name, "fail", {"k": k}, witness)
        records.append(laps.stamp(rec))

        lhs = jf.map(lambda e: e.substitute_linear(g))
        rho_inv = Matrix.from_rational(rat_mat_inv(g), ell)
        rhs = rho_inv @ jf
        records.append(laps.stamp(
            _eq_record(f"equivariance.g{gi + 1}.jf", _pairs(lhs), _pairs(rhs))))

        if basis is not None:
            lhs = basis.matrix.map(lambda e: e.substitute_linear(g))
            rhs = rho_t @ basis.matrix
            rec = _eq_record(f"equivariance.g{gi + 1}.p_odd", _pairs(lhs), _pairs(rhs))
            rec.detail["m"] = m
            records.append(laps.stamp(rec))
    return records


def verify_recursion(system: CoxeterSystem, m: int) -> CheckRecord:
    """The direct formula for the memoised P_m: C(j) for j <= m // 2,
    certified in order by ``derivations.certify_direct_formulas``; a
    certificate already recorded is read, and run again only when one of
    its inputs is not the object it certified."""
    laps = _Laps()
    witness = _direct_formula_witness(system, m // 2)
    return laps.stamp(_certified_record("recursion", witness, {"m": m}))


def verify_nesting(system: CoxeterSystem, m: int) -> CheckRecord:
    """Columns of P_m in the polynomial span of the columns of P_{m-1}:
    the exact product P_{m-1} C_m equals P_m for the polynomial C_m of
    ``derivations.step_matrix``."""
    laps = _Laps()
    if m == 0:
        return laps.stamp(
            CheckRecord("nesting", "skipped", {"reason": "m = 0 has no predecessor"})
        )
    product = p_matrix(system, m - 1).matrix @ step_matrix(system, m)
    rec = _eq_record("nesting", _pairs(product), _pairs(p_matrix(system, m).matrix))
    rec.detail = {"m": m}
    return laps.stamp(rec)


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
        report.checks.extend(verify_jdg_identities(system))
    if "b-properties" in wanted:
        report.checks.extend(verify_b_properties(system, max(1, k)))
    if "equivariance" in wanted:
        report.checks.extend(verify_equivariance(system, k, m))
    if "recursion" in wanted:
        report.checks.append(verify_recursion(system, m))
    if "nesting" in wanted:
        report.checks.append(verify_nesting(system, m))
    return report
