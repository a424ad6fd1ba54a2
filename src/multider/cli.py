"""Command line front end.

    multider basis    SYSTEM --m N   [--format json|text] [--out PATH]
    multider verify   SYSTEM --m N   [--checks LIST|all] [--timings] ...
    multider bmatrix  SYSTEM --k N   [--route definition|closed-form|both] ...
    multider selftest          [--format json|text] [--timings]
    multider catalog           [--format json|text]

basis, verify and bmatrix take --override-limits; every command takes
--format and --out.

Exit codes: 0 success (and, for verify/selftest, every check passed;
for basis, Saito's criterion certified P_m), 1 a check failed (for basis,
the witness is printed on stderr and nothing on stdout) or an internal
error (PipelineError or any other exception, reported on stderr without a
traceback),
2 unknown or unsupported system key / usage error, 3 a resource limit was
exceeded without --override-limits.

Output is byte-deterministic for a fixed command line: term order, map
order and catalog data are all fixed.  --format json prints the bytes of
json.dumps(payload, indent=2), written by one writer (_dumps) that renders
each matrix entry straight from its packed terms.  With --timings, verify
and selftest also print one JSON line on stderr, {"timings": [[record,
seconds], ...]}, the lap of each record in report order; stdout is the
same bytes with or without it.  Rational numbers are always printed
exactly (p/q), never as decimals.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii

from .coxeter import CatalogError, build_system, catalog_entries, parse_key
from .derivations import PipelineError, b_matrix, certify_direct_formulas, p_matrix
from .exactpoly import Matrix, Poly, poly_to_json
from .golden import run_selftest
from .verify import CHECK_NAMES, resolve_checks, run_verification, verify_ziegler

MAX_M = 8
MAX_RANK = 5
MAX_K = MAX_M // 2
MAX_ORDER = 200  # of I2(n): a cold verify --m 8 took up to 3.1 s at n <= 200 on a 2-vCPU VM


def _matrix_records(mat: Matrix) -> list:
    """The rows of mat; _dumps writes each Poly entry as its term records."""
    return [list(mat[i]) for i in range(mat.rows)]


def _dumps(obj, nl: str = "\n") -> str:
    """json.dumps(obj, indent=2) with each Poly written as its term records
    (``poly_to_records``); nl is the newline and indent of obj's own line.
    A value json.dumps refuses raises TypeError here too."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        parts = []
        for key, value in obj.items():
            if not isinstance(key, str):
                if key is not None and not isinstance(key, (int, float)):
                    raise TypeError(f"keys must be str, int, float, bool or None, "
                                    f"not {type(key).__name__}")
                key = _dumps(key)
            parts.append(encode_basestring_ascii(key) + ": " + _dumps(value, inner))
        return "{" + inner + f",{inner}".join(parts) + nl + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + "  "
        return "[" + inner + f",{inner}".join([_dumps(v, inner) for v in obj]) + nl + "]"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, int):
        return "true" if obj is True else "false" if obj is False else int.__repr__(obj)
    if obj is None:
        return "null"
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if abs(obj) == math.inf:
            return "Infinity" if obj > 0 else "-Infinity"
        return float.__repr__(obj)
    if isinstance(obj, Poly):
        return poly_to_json(obj, nl)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _render_derivation(mat: Matrix, j: int) -> str:
    parts = []
    for i in range(mat.rows):
        entry = mat[i][j]
        if entry:
            parts.append(f"({entry})*d_{i + 1}")
    return " + ".join(parts) if parts else "0"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            raise SystemExit(2)
    else:
        sys.stdout.write(text)


def _load_system(args, m: int | None = None, k: int | None = None):
    """Resolve a system key, enforcing limits before any construction work."""
    try:
        family, rank, order = parse_key(args.system)
    except KeyError as err:
        print(f"error: {err}", file=sys.stderr)
        raise SystemExit(2)
    _check_limits(args, rank, order, m=m, k=k)
    try:
        return build_system(family, rank, order)
    except (KeyError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        raise SystemExit(2)


def _check_limits(args, rank: int, order: int | None,
                  m: int | None = None, k: int | None = None) -> None:
    problems = []
    if rank > MAX_RANK:
        problems.append(f"rank {rank} exceeds the default limit {MAX_RANK}")
    if order is not None and order > MAX_ORDER:
        problems.append(f"dihedral order {order} exceeds the default limit {MAX_ORDER}")
    if m is not None and m > MAX_M:
        problems.append(f"m = {m} exceeds the default limit {MAX_M}")
    if k is not None and k > MAX_K:
        problems.append(f"k = {k} exceeds the default limit {MAX_K}")
    if problems and not args.override_limits:
        for p in problems:
            print(f"error: {p} (pass --override-limits to proceed; exact "
                  "arithmetic cost grows quickly)", file=sys.stderr)
        raise SystemExit(3)


def _report_text(report) -> str:
    lines = []
    for c in report.checks:
        extra = ""
        if c.detail:
            extra = " " + ", ".join(f"{k}={v}" for k, v in sorted(c.detail.items()))
        if c.witness:
            extra += " witness: " + json.dumps(c.witness, sort_keys=True)
        lines.append(f"{c.name}: {c.status}{extra}")
    lines.append("result: " + ("all checks passed" if report.passed else "FAILED"))
    return "\n".join(lines) + "\n"


def _emit_report(args, report, head: dict) -> int:
    """The report after head (json) or as text; with --timings, the lap of
    each record goes to stderr as one JSON line, never to stdout."""
    if args.format == "json":
        _emit(_dumps(dict(head, report=report.to_dict())) + "\n", args.out)
    else:
        _emit(_report_text(report), args.out)
    if args.timings:
        laps = [[c.name, round(c.elapsed, 6)] for c in report.checks]
        print(json.dumps({"timings": laps}), file=sys.stderr)
    return 0 if report.passed else 1


def cmd_basis(args) -> int:
    system = _load_system(args, m=args.m)
    basis = p_matrix(system, args.m)
    # Saito's criterion is the whole proof that the columns are a basis
    ziegler = verify_ziegler(system, basis)
    if ziegler.status != "pass":
        print(f"error: Saito's criterion fails for P_{args.m} of {system.key}, witness: "
              + json.dumps(ziegler.witness, sort_keys=True), file=sys.stderr)
        return 1
    det_constant = ziegler.detail["constant"]
    meta = {
        "m": basis.m,
        "k": basis.k,
        "h": system.h,
        "exponents": list(system.exponents),
        "column_degrees": list(basis.degrees),
        "det_constant": det_constant,
    }
    if args.format == "json":
        payload = {
            "system": system.key,
            "command": "basis",
            "params": {"m": args.m, "format": args.format},
            "result": dict(meta, matrix=_matrix_records(basis.matrix)),
        }
        _emit(_dumps(payload) + "\n", args.out)
    else:
        lines = [
            f"system {system.key}: rank {system.rank}, h = {system.h}, "
            f"exponents {', '.join(map(str, system.exponents))}",
            f"basis of the m-derivation module, m = {basis.m} (k = {basis.k})",
            f"column degrees: {', '.join(map(str, basis.degrees))}",
            f"det P_m = ({det_constant}) * Q^{basis.m}",
        ]
        for j in range(system.rank):
            lines.append(f"xi_{j + 1} = " + _render_derivation(basis.matrix, j))
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    checks = tuple(s.strip() for s in args.checks.split(",")) if args.checks else ("all",)
    try:
        resolve_checks(checks)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    system = _load_system(args, m=args.m)
    report = run_verification(system, args.m, checks)
    return _emit_report(args, report, {
        "system": system.key,
        "command": "verify",
        "params": {"m": args.m, "checks": sorted(report.params["checks"])},
    })


def cmd_bmatrix(args) -> int:
    """B^(k) has one construction, from B^(1), which the direct formula
    C(1) certifies on every route; "definition" and "both" certify C(2),
    ..., C(k) too, which prove the definition equal to it
    (``derivations.b_matrix``)."""
    system = _load_system(args, k=args.k)
    routes = ("definition", "closed_form") if args.route == "both" else (
        args.route.replace("-", "_"),
    )
    certify_direct_formulas(system, args.k if "definition" in routes else 1)
    mat = b_matrix(system, args.k)
    if args.format == "json":
        records = _matrix_records(mat)
        payload = {
            "system": system.key,
            "command": "bmatrix",
            "params": {"k": args.k, "route": args.route},
            "result": {route: records for route in routes},
        }
        if len(routes) == 2:
            payload["result"]["routes_agree"] = True
        _emit(_dumps(payload) + "\n", args.out)
    else:
        lines = [f"system {system.key}: B^({args.k})"]
        rows = ["  [" + ", ".join(str(mat[i][j]) for j in range(system.rank)) + "]"
                for i in range(system.rank)]
        for route in routes:
            lines.append(f"route {route}:")
            lines.extend(rows)
        if len(routes) == 2:
            lines.append("routes agree: True")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_selftest(args) -> int:
    return _emit_report(args, run_selftest(),
                        {"system": None, "command": "selftest", "params": {}})


def cmd_catalog(args) -> int:
    systems = catalog_entries()
    if args.format == "json":
        payload = {
            "system": None,
            "command": "catalog",
            "params": {},
            "result": [s.describe() for s in systems],
        }
        _emit(_dumps(payload) + "\n", args.out)
    else:
        lines = []
        for s in systems:
            note = " (orbit-level membership)" if s.orbit_level else ""
            lines.append(
                f"{s.key}: rank {s.rank}, h={s.h}, "
                f"exponents {','.join(map(str, s.exponents))}, "
                f"|A|={s.num_hyperplanes}{note}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _at_least(low: int):
    """An argparse type for integers >= low; anything else is a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multider",
        description="Exact bases and certificates for multiderivation modules "
                    "of Coxeter arrangements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, system=True):
        if system:
            p.add_argument("system", help="catalog key, e.g. B3, A2, D4, I2(5)")
            p.add_argument("--override-limits", action="store_true")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--out", default=None, help="write output to a file")

    def timings(p):
        p.add_argument("--timings", action="store_true",
                       help="print the seconds of each record as one JSON line "
                            "on stderr; stdout is unchanged")

    p = sub.add_parser("basis", help="compute the basis matrix P_m")
    common(p)
    p.add_argument("--m", type=_at_least(0), required=True)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("verify", help="run certification checks")
    common(p)
    timings(p)
    p.add_argument("--m", type=_at_least(0), required=True)
    p.add_argument("--checks", default="all",
                   help="comma list from: " + ", ".join(CHECK_NAMES) + " (or all)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bmatrix", help="compute the invariant matrix B^(k)")
    common(p)
    p.add_argument("--k", type=_at_least(1), required=True)
    p.add_argument("--route", choices=("definition", "closed-form", "both"),
                   default="definition")
    p.set_defaults(func=cmd_bmatrix)

    p = sub.add_parser("selftest", help="replay the stored reference fixtures")
    common(p, system=False)
    timings(p)
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("catalog", help="list the supported systems")
    common(p, system=False)
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CatalogError as err:
        print(f"catalog integrity error: {err}", file=sys.stderr)
        return 1
    except PipelineError as err:
        # an identity the construction guarantees failed: a bug, not a usage error
        print(f"internal error: {err}", file=sys.stderr)
        return 1
    except Exception as err:
        # any other failure is a bug too; it is reported without a traceback
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
