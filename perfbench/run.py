"""Benchmark of the multider command line front end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nothing: it imports the package from ``src/`` of the checkout it
sits in and drives ``multider.cli.main(argv)`` from one process and one
thread, a closed loop with one client.  Each request's stdout is captured
and compared with the digest stored in ``reference.json``; a request fails
if it exits nonzero, raises, or prints anything else.

A pass sends the workload's request list once (see ``workloads.py``).  On
a warm workload an untimed warm-up pass fills the derivation memo first.
Timed passes then repeat while ``--seconds`` (counted from the start of the
warm-up) allows another pass of median length; at least one runs.

Between requests, at most every PROBE_EVERY_S seconds, the benchmark times
a speed probe (``speed.py``): a fixed pure-Python integer loop of about
10 ms, in code of its own.  On a machine shared with other tenants the CPU speed shifts by a
third for seconds to minutes at a time; a request latency divided by the
mean of the probe times just before and after it follows the program and
cancels most of that drift.  (A probe made of dict-of-terms polynomial
products, closer to what the package does, swung more than the package did
and tracked it less well.)

--trace 0 reports the end-to-end metrics: ``setup_s`` (median over fresh
interpreters of importing the package and building every system the
workload uses, in reference seconds: seconds x REFERENCE_PROBE_S / the
mean probe time before and after it in the same interpreter),
``wall_probes`` (median over passes of the sum of the
pass's request latencies in probe times), ``job_p50_probes`` and
``job_p90_probes`` (percentiles of the latency in probe times over all
timed requests), and ``peak_rss_mb`` (peak resident memory of this
process).  The same figures in plain seconds, ``setup_raw_s``, ``wall_s``,
``job_p50_s`` and ``job_p90_s``, are printed and recorded next to them.

--trace 1 runs one untimed warm-up pass on a warm workload, then an
untraced pass, a pass with every layer's public functions wrapped
(``tracer.py``) and another untraced pass.  It reports the per-layer
metrics of the traced set-up plus the traced pass, with
``trace_overhead_ratio`` = traced pass time / mean untraced pass time.  The
spans are written to ``out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record of the run,
with the environment it ran in, goes to ``out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))
from speed import REFERENCE_PROBE_S, probe  # noqa: E402
from workloads import WORKLOADS, request_key  # noqa: E402

SETUP_REPEATS = 5
PROBE_EVERY_S = 0.2

# import the package and build the systems, in a fresh interpreter; prints
# the elapsed seconds and the mean of the probe times before and after
_SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from speed import probe
before = probe()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import multider.cli
from multider.coxeter import catalog_entries, get_system
for key in sys.argv[4:]:
    get_system(key)
if sys.argv[3] == "1":
    catalog_entries()
elapsed = time.perf_counter() - t0
print(repr(elapsed), repr((before + probe()) / 2))
"""

UNITS = {"peak_rss_mb": "MB", "cli.output_bytes": "bytes"}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_probes"):
        return "probe"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def environment(seed: int) -> dict:
    try:
        import gmpy2  # noqa: F401
        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gmpy2": has_gmpy2,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
    }


def measure_setup(workload) -> list[tuple[float, float]]:
    """(set-up seconds, probe seconds around it) from fresh interpreters."""
    argv = [sys.executable, "-c", _SETUP_CODE, str(HERE), str(SRC),
            "1" if workload.catalog else "0", *workload.systems]
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        elapsed, probe_s = done.stdout.split()
        samples.append((float(elapsed), float(probe_s)))
    return samples


class Runner:
    """Runs passes over one request list and keeps what each request did."""

    def __init__(self, workload, requests, reference):
        from multider import cli, derivations

        self.cli = cli
        self.derivations = derivations
        self.workload = workload
        self.requests = requests
        self.reference = reference
        self.tracer = None
        self.latencies: list[float] = []
        # latency in probe times
        self.relative: list[float] = []
        self.log: list[tuple[str, float]] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.output_bytes = 0

    def execute(self, argv) -> tuple[float, str | None]:
        """One request; returns its latency and why it failed, if it did."""
        out, err = io.StringIO(), io.StringIO()
        problem = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a request that raises is counted, not fatal
            code = None
            problem = f"raised {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        data = out.getvalue().encode("utf-8")
        self.output_bytes += len(data)
        if problem is None and code not in (0, None):
            problem = f"exit code {code}: {err.getvalue().strip()[:200]}"
        if problem is None:
            digest = hashlib.sha256(data).hexdigest()
            if digest != self.reference.get(request_key(argv)):
                problem = f"stdout sha256 {digest[:16]} differs from the reference"
        return latency, problem

    def run_pass(self, timed: bool = True) -> tuple[float, float, float]:
        """One pass; returns the sum of its request latencies, the same sum
        in probe times and the median probe time.  A cold workload clears the
        derivation memo before each request, a warm one never does."""
        clear = self.derivations.clear_caches
        probes = [probe()]
        last_probe = time.perf_counter()
        latencies, before = [], []
        for i, argv in enumerate(self.requests):
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(probe())
                last_probe = time.perf_counter()
            before.append(len(probes) - 1)
            if self.workload.cold:
                clear()
            if self.tracer is not None:
                self.tracer.request = i
            latency, problem = self.execute(argv)
            self.attempted += 1
            latencies.append(latency)
            if timed:
                self.log.append((request_key(argv), latency))
            if problem is not None:
                self.failures.append(f"{request_key(argv)}: {problem}")
        probes.append(probe())
        # each latency over the mean of the probes just before and after it
        relative = [x / ((probes[j] + probes[j + 1]) / 2) for x, j in zip(latencies, before)]
        if timed:
            self.latencies.extend(latencies)
            self.relative.extend(relative)
        return sum(latencies), sum(relative), statistics.median(probes)


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def traced_run(workload, runner, build_systems, seed: int):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    build_systems()
    tracer.uninstall()
    if not workload.cold:
        runner.run_pass(timed=False)
    # untraced passes on both sides of the traced one, so that a drift in
    # machine speed during the run does not read as tracing overhead
    before, _, _ = runner.run_pass()
    runner.tracer = tracer
    runner.output_bytes = 0
    tracer.install()
    traced, _, _ = runner.run_pass()
    tracer.uninstall()
    runner.tracer = None
    output_bytes = runner.output_bytes
    after, _, _ = runner.run_pass()
    untraced = (before + after) / 2
    metrics = tracer.metrics()
    metrics["cli.output_bytes"] = output_bytes
    metrics["trace_overhead_ratio"] = traced / untraced
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl.gz"
    n_spans = tracer.write_spans(spans_path)
    print(f"untraced passes {before:.4f} s and {after:.4f} s, traced pass {traced:.4f} s, "
          f"{n_spans} spans in {spans_path.relative_to(ROOT)}")
    return metrics, {"spans": {"path": str(spans_path.relative_to(ROOT)), "count": n_spans},
                     "passes": {"untraced": [before, after], "traced": traced}}


def timed_run(workload, runner, build_systems, seconds: float):
    setup = measure_setup(workload)
    build_systems()
    start = time.perf_counter()
    if not workload.cold:
        runner.run_pass(timed=False)
    passes = []
    while True:
        passes.append(runner.run_pass())
        pass_s = [t for t, _, _ in passes]
        if time.perf_counter() - start + statistics.median(pass_s) > seconds:
            break
    rel = runner.relative
    metrics = {
        "setup_s": statistics.median(t * REFERENCE_PROBE_S / p for t, p in setup),
        "wall_probes": statistics.median(r for _, r, _ in passes),
        "job_p50_probes": statistics.median(rel),
        "job_p90_probes": percentile(rel, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    lat = runner.latencies
    seconds_view = {
        "probe_s": statistics.median(p for _, _, p in passes),
        "setup_raw_s": statistics.median(t for t, _ in setup),
        "wall_s": statistics.median(pass_s),
        "job_p50_s": statistics.median(lat),
        "job_p90_s": percentile(lat, 90),
    }
    beyond = sum(1 for x in rel if x > metrics["job_p90_probes"])
    print(f"setup_s: median of {len(setup)} fresh interpreters")
    print(f"wall: median of {len(passes)} passes of {len(runner.requests)} requests")
    print(f"job_p50, job_p90: {len(rel)} requests, {beyond} beyond p90")
    for name, value in seconds_view.items():
        print(f"{name} {value} s")
    return metrics, {"seconds": seconds_view,
                     "samples": {"setup": setup, "passes": passes, "beyond_p90": beyond}}


def measure(workload, requests, reference, trace: int, seconds: float, seed: int):
    """Runs ``requests`` traced or timed; returns the runner, the metrics and
    the record of the run."""
    from multider.coxeter import catalog_entries, get_system

    def build_systems():
        for key in workload.systems:
            get_system(key)
        if workload.catalog:
            catalog_entries()

    runner = Runner(workload, requests, reference)
    if trace:
        metrics, report = traced_run(workload, runner, build_systems, seed)
    else:
        metrics, report = timed_run(workload, runner, build_systems, seconds)
    return runner, metrics, report


def result_line(runner, metrics) -> dict:
    failed = len(runner.failures)
    return {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "multider" / "__init__.py").is_file():
        print(f"error: no multider package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    requests = workload.requests(args.seed)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    missing = [request_key(r) for r in requests if request_key(r) not in reference]
    if missing:
        print(f"error: no reference digest for {missing[0]!r}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    runner, metrics, report = measure(workload, requests, reference, args.trace,
                                      args.seconds, args.seed)
    failed = len(runner.failures)
    for line in runner.failures[:10]:
        print(f"FAILED {line}")
    print(f"failed_ratio {failed}/{runner.attempted} = {failed / runner.attempted:.4f} ratio")
    for name, value in metrics.items():
        print(f"{name} {value} {_unit(name)}")

    report.update(workload=workload.name, trace=args.trace, env=env, metrics=metrics,
                  attempted=runner.attempted, failed=failed, failures=runner.failures,
                  requests=runner.log)
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(json.dumps(result_line(runner, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
