"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/report.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]

Runs ``run.py`` once per workload and seed, in a fresh process each, with
the run length from BENCHMARK.json.  For every metric it prints the median
of the runs, the quartiles and the spread (third minus first quartile, as a
share of the median).  With ``--trace 0`` it also prints each end-to-end
metric's bound and marks a spread wider than a third of it; a regression
check needs the spread well inside the bound it gates on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", type=parse_seeds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        t0 = time.perf_counter()
        for seed in args.seeds:
            argv = [sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                    "--trace", str(args.trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit code {done.returncode}\n{done.stderr[-2000:]}")
                ok = False
                continue
            last = json.loads(done.stdout.strip().splitlines()[-1])
            if not last["correct"]:
                print(f"{workload} seed {seed}: {last['failed']}/{last['attempted']} requests failed")
                ok = False
            for name, metric in last["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {metric['value']:.6g}" for name, metric in last["metrics"].items()),
                flush=True)
        print(f"== {workload}: {len(args.seeds)} runs in {time.perf_counter() - t0:.0f} s")
        for name, vals in values.items():
            median = statistics.median(vals)
            line = f"   {name:38s} {median:12.6g} {units[name]:6s}"
            if len(vals) >= 2 and median:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / median
                line += f" q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}"
                if name in bounds:
                    wide = spread > bounds[name] / 3
                    line += f" bound {bounds[name]}" + ("  WIDE" if wide else "")
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
