"""Command line front end.

    multider basis    SYSTEM --m N   [--format json|text] [--out PATH]
    multider verify   SYSTEM --m N   [--checks LIST|all] [--timings] ...
    multider bmatrix  SYSTEM --k N   [--route definition|closed-form|both] ...
    multider selftest          [--format json|text]
    multider catalog           [--format json|text]

Exit codes: 0 success (and, for verify/selftest, every check passed),
1 a check failed, 2 unknown or unsupported system key / usage error,
3 a resource limit was exceeded without --override-limits.

Output is byte-deterministic for a fixed command line: term order, map
order and catalog data are all fixed.  Timings are therefore only included
when --timings is passed explicitly.  Rational numbers are always printed
exactly (p/q), never as decimals.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .coxeter import CatalogError, build_system, catalog_entries, parse_key
from .derivations import PipelineError, b_matrix, p_matrix
from .exactpoly import Matrix, poly_to_records
from .golden import run_selftest
from .verify import CHECK_NAMES, run_verification, verify_ziegler

MAX_M = 8
MAX_RANK = 5
MAX_K = MAX_M // 2


def _matrix_records(mat: Matrix) -> list:
    return [[poly_to_records(mat[i][j]) for j in range(mat.cols)] for i in range(mat.rows)]


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
    _check_limits(args, rank, m=m, k=k)
    try:
        return build_system(family, rank, order)
    except (KeyError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        raise SystemExit(2)


def _check_limits(args, rank: int, m: int | None = None, k: int | None = None) -> None:
    problems = []
    if rank > MAX_RANK:
        problems.append(f"rank {rank} exceeds the default limit {MAX_RANK}")
    if m is not None and m > MAX_M:
        problems.append(f"m = {m} exceeds the default limit {MAX_M}")
    if k is not None and k > MAX_K:
        problems.append(f"k = {k} exceeds the default limit {MAX_K}")
    if problems and not args.override_limits:
        for p in problems:
            print(f"error: {p} (pass --override-limits to proceed; exact "
                  "arithmetic cost grows quickly)", file=sys.stderr)
        raise SystemExit(3)


def _report_text(report, include_timings: bool) -> str:
    lines = []
    for c in report.checks:
        extra = ""
        if c.detail:
            extra = " " + ", ".join(f"{k}={v}" for k, v in sorted(c.detail.items()))
        if c.witness:
            extra += " witness: " + json.dumps(c.witness, sort_keys=True)
        if include_timings:
            extra += f" [{c.elapsed:.3f}s]"
        lines.append(f"{c.name}: {c.status}{extra}")
    lines.append("result: " + ("all checks passed" if report.passed else "FAILED"))
    return "\n".join(lines) + "\n"


def cmd_basis(args) -> int:
    system = _load_system(args, m=args.m)
    try:
        basis = p_matrix(system, args.m)
    except PipelineError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 1
    ziegler = verify_ziegler(system, basis)
    det_constant = ziegler.detail.get("constant")
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
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
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
    system = _load_system(args, m=args.m)
    checks = tuple(s.strip() for s in args.checks.split(",")) if args.checks else ("all",)
    try:
        report = run_verification(system, args.m, checks)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.format == "json":
        payload = {
            "system": system.key,
            "command": "verify",
            "params": {"m": args.m, "checks": sorted(report.params["checks"])},
            "report": report.to_dict(include_timings=args.timings),
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(_report_text(report, args.timings), args.out)
    return 0 if report.passed else 1


def cmd_bmatrix(args) -> int:
    system = _load_system(args, k=args.k)
    routes = ("definition", "closed_form") if args.route == "both" else (
        args.route.replace("-", "_"),
    )
    try:
        results = {route: b_matrix(system, args.k, route=route) for route in routes}
    except PipelineError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 1
    agree = None
    if len(results) == 2:
        agree = results["definition"].matrix == results["closed_form"].matrix
    if args.format == "json":
        payload = {
            "system": system.key,
            "command": "bmatrix",
            "params": {"k": args.k, "route": args.route},
            "result": {
                route: _matrix_records(b.matrix) for route, b in results.items()
            },
        }
        if agree is not None:
            payload["result"]["routes_agree"] = agree
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = [f"system {system.key}: B^({args.k})"]
        for route, b in results.items():
            lines.append(f"route {route}:")
            for i in range(system.rank):
                lines.append("  [" + ", ".join(str(b.matrix[i][j]) for j in range(system.rank)) + "]")
        if agree is not None:
            lines.append(f"routes agree: {agree}")
        _emit("\n".join(lines) + "\n", args.out)
    if agree is False:
        return 1
    return 0


def cmd_selftest(args) -> int:
    report = run_selftest()
    if args.format == "json":
        payload = {
            "system": None,
            "command": "selftest",
            "params": {},
            "report": report.to_dict(include_timings=args.timings),
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(_report_text(report, args.timings), args.out)
    return 0 if report.passed else 1


def cmd_catalog(args) -> int:
    systems = catalog_entries()
    if args.format == "json":
        payload = {
            "system": None,
            "command": "catalog",
            "params": {},
            "result": [s.describe() for s in systems],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
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
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--out", default=None, help="write output to a file")
        p.add_argument("--override-limits", action="store_true")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timings (breaks byte determinism)")

    p = sub.add_parser("basis", help="compute the basis matrix P_m")
    common(p)
    p.add_argument("--m", type=_at_least(0), required=True)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("verify", help="run certification checks")
    common(p)
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


if __name__ == "__main__":
    sys.exit(main())
