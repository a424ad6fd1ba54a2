"""Span tracing around the public functions of each multider layer.

Nothing in the package is edited.  ``Tracer.install`` replaces every
traced function wherever a ``multider`` module binds it -- the defining
module, each module that imported it by name, and the package namespace --
and the traced ``Poly``/``ArrFrac`` methods on their classes.
``uninstall`` puts the originals back.

Each call of a traced function is one span: name, start, end, the index of
the enclosing traced span (its parent, -1 for none) and the request id.
Spans stay in memory and are written once, by ``write_spans``.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# products at or above this many term pairs are "large"; fixed here so the
# count keeps its meaning if the package moves its own Kronecker threshold
LARGE_PRODUCT_PAIRS = 400_000

DERIVATION_FUNCTIONS = (
    "primitive_dx", "iterate_dkx", "jdkx", "jdkx_inverse", "jdkx_det_constant",
    "p_matrix", "p_matrix_recursive", "b_matrix",
)
# the derivation functions that memoise their result per system and parameter
MEMOISED = ("primitive_dx", "iterate_dkx", "jdkx", "jdkx_inverse", "p_matrix", "b_matrix")

VERIFY_CHECKS = (
    ("ziegler", "verify_ziegler"),
    ("membership", "verify_membership"),
    ("degrees", "verify_degrees"),
    ("det-jdkx", "verify_det_jdkx"),
    ("jdg", "verify_jdg_identities"),
    ("b-properties", "verify_b_properties"),
    ("equivariance", "verify_equivariance"),
    ("recursion", "verify_recursion"),
    ("nesting", "verify_nesting"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span, in start order; the index is the span id
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.request = -1
        self._stack: list[list] = []  # [span index, time covered by children]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        # results the derivation memo holds, by id; kept alive so ids stay unique
        self._memo_seen: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    # -- span recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, observe=None):
        nid = self._name_id(name)
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        s_name, s_start, s_end = self.span_name, self.span_start, self.span_end
        s_parent, s_request = self.span_parent, self.span_request
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_request.append(tracer.request)
            s_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            s_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                s_end[index] = t1
                duration = t1 - t0
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # -- counters observed at the layer boundaries ------------------------------

    def _observe_mul(self, args, result) -> None:
        a, b = args
        if type(b) is type(a):
            pairs = len(a) * len(b)
            self.counts["term_products"] += pairs
            if pairs >= LARGE_PRODUCT_PAIRS:
                self.counts["large_products"] += 1

    def _observe_divide(self, args, result) -> None:
        if result is None:
            self.counts["divide_misses"] += 1

    def _observe_memo(self, args, result) -> None:
        # a memoised function returns the very object it stored, so a result
        # the memo already held is a hit
        self.counts["memo_calls"] += 1
        if id(result) in self._memo_seen:
            self.counts["memo_hits"] += 1
        else:
            self._memo_seen[id(result)] = result

    def _seed_memo(self, derivations) -> None:
        """Count what the memo holds already (a warm process) as seen."""
        for name, value in vars(derivations).items():
            if name.endswith("_cache") and isinstance(value, dict):
                for result in value.values():
                    self._memo_seen[id(result)] = result

    def _observe_clear(self, args, result) -> None:
        self._memo_seen.clear()

    # -- installation -------------------------------------------------------------

    def _targets(self):
        from multider import cli, coxeter, derivations, exactpoly, golden, verify

        funcs = [
            (exactpoly.mat_det_adj, "exactpoly.mat_det_adj", None),
            (exactpoly.divide_exact, "exactpoly.divide_exact", self._observe_divide),
            (exactpoly.poly_to_records, "cli.poly_to_records", None),
            (coxeter.build_system, "coxeter.build_system", None),
            (derivations.clear_caches, "derivations.clear_caches", self._observe_clear),
            (golden.run_selftest, "golden.run_selftest", None),
            (cli.main, "cli.main", None),
        ]
        for f in DERIVATION_FUNCTIONS:
            observe = self._observe_memo if f in MEMOISED else None
            funcs.append((getattr(derivations, f), f"derivations.{f}", observe))
        for check, f in VERIFY_CHECKS:
            funcs.append((getattr(verify, f), f"verify.{check}", None))
        methods = [
            (exactpoly.Poly, "__mul__", "exactpoly.mul", self._observe_mul),
            (exactpoly.Poly, "diff", "exactpoly.diff", None),
            (exactpoly.ArrFrac, "diff", "exactpoly.diff", None),
            (exactpoly.Poly, "substitute_linear", "exactpoly.substitute", None),
            (exactpoly.Poly, "substitute_polys", "exactpoly.substitute", None),
            (exactpoly.ArrFrac, "substitute_linear", "exactpoly.substitute", None),
        ]
        for cls, attr, name, observe in methods:
            funcs.append((vars(cls)[attr], name, observe))
        owners = [mod for key, mod in sys.modules.items()
                  if key == "multider" or key.startswith("multider.")]
        owners += [exactpoly.Poly, exactpoly.ArrFrac]
        return funcs, owners

    def install(self) -> None:
        if self._patches:
            return
        funcs, owners = self._targets()
        self._memo_seen.clear()
        self._seed_memo(sys.modules["multider.derivations"])
        for fn, name, observe in funcs:
            if id(fn) not in self._wrappers:
                self._wrappers[id(fn)] = (fn, self._wrap(name, fn, observe))
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results --------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        calls, self_s, counts = self.calls, self.self_s, self.counts
        out = {
            "exactpoly.mat_det_adj.calls": calls["exactpoly.mat_det_adj"],
            "exactpoly.mat_det_adj.self_s": self_s["exactpoly.mat_det_adj"],
            "exactpoly.divide_exact.calls": calls["exactpoly.divide_exact"],
            "exactpoly.divide_exact.self_s": self_s["exactpoly.divide_exact"],
            "exactpoly.divide_exact.miss_ratio": _ratio(
                counts["divide_misses"], calls["exactpoly.divide_exact"]),
            "exactpoly.mul.calls": calls["exactpoly.mul"],
            "exactpoly.mul.self_s": self_s["exactpoly.mul"],
            "exactpoly.mul.term_products": counts["term_products"],
            "exactpoly.mul.large_products": counts["large_products"],
            "exactpoly.substitute.self_s": self_s["exactpoly.substitute"],
            "exactpoly.diff.self_s": self_s["exactpoly.diff"],
            "coxeter.build_system.calls": calls["coxeter.build_system"],
            "coxeter.build_system.self_s": self_s["coxeter.build_system"],
        }
        for f in DERIVATION_FUNCTIONS:
            out[f"derivations.{f}.calls"] = calls[f"derivations.{f}"]
            out[f"derivations.{f}.self_s"] = self_s[f"derivations.{f}"]
        out["derivations.memo_hit_ratio"] = _ratio(counts["memo_hits"], counts["memo_calls"])
        for check, _ in VERIFY_CHECKS:
            out[f"verify.{check}.self_s"] = self_s[f"verify.{check}"]
        out["golden.run_selftest.self_s"] = self_s["golden.run_selftest"]
        out["cli.main.self_s"] = self_s["cli.main"]
        out["cli.poly_to_records.self_s"] = self_s["cli.poly_to_records"]
        return out

    def write_spans(self, path) -> int:
        """Write every span as gzipped JSON lines; line i + 1 is span i."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "request"],
                                 "names": self.names}) + "\n")
            names = self.names
            for nid, t0, t1, parent, req in zip(self.span_name, self.span_start,
                                                self.span_end, self.span_parent,
                                                self.span_request):
                fh.write(f'["{names[nid]}",{t0!r},{t1!r},{parent},{req}]\n')
        return len(self.span_name)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def read_spans(path) -> tuple[list[str], list[tuple]]:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        return header["names"], [tuple(json.loads(line)) for line in fh]
