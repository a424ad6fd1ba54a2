"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

For every workload it drives ``run.measure`` in this process on the first
two requests of the list, untraced and traced, and checks: the result line
has exactly the result keys and the metric names that BENCHMARK.json lists;
a corrupted reference digest makes a request fail; traced spans nest inside
their parents, within one request, and every self time is >= 0.  It also
checks, in a subprocess, that the benchmark exits nonzero, without a result,
in a directory holding only BENCHMARK.json and the benchmark.  Everything it
writes goes under perfbench/out/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import read_spans  # noqa: E402
from workloads import WORKLOADS, request_key  # noqa: E402

SEED = 1


def result(workload, reference: dict, trace: int) -> dict:
    requests = workload.requests(SEED)[:2]
    runner, metrics, _ = run.measure(workload, requests, reference, trace, 0, SEED)
    last = json.loads(json.dumps(run.result_line(runner, metrics)))
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"], sorted(last)
    return last


def check_spans(path: Path) -> int:
    names, spans = read_spans(path)
    child_time = [0.0] * len(spans)
    for i, (name, start, end, parent, request) in enumerate(spans):
        assert name in names, name
        assert start <= end, (i, start, end)
        if parent >= 0:
            assert parent < i, (i, parent)
            p_name, p_start, p_end, _, p_request = spans[parent]
            assert p_start <= start and end <= p_end, (i, name, parent, p_name)
            assert p_request == request, (i, request, p_request)
            child_time[parent] += end - start
    for i, (name, start, end, _, _) in enumerate(spans):
        assert (end - start) - child_time[i] >= -1e-9, (i, name)
    return len(spans)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(spec["paths"]) == {"perfbench"}
    OUT.mkdir(exist_ok=True)
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]
        last = result(workload, reference, 0)
        # a warm workload also sends its two requests in the warm-up pass
        sent = 2 if workload.cold else 4
        assert last["correct"] and last["failed"] == 0 and last["attempted"] == sent, last
        assert set(last["metrics"]) == end_to_end, sorted(last["metrics"])
        assert all(m["value"] > 0 for m in last["metrics"].values()), last["metrics"]

        corrupt = dict(reference)
        corrupt[request_key(workload.requests(SEED)[0])] = "0" * 64
        bad = result(workload, corrupt, 0)
        assert not bad["correct"] and bad["failed"] / bad["attempted"] > 0, bad

        traced = result(workload, reference, 1)
        assert traced["correct"], traced
        assert set(traced["metrics"]) == per_layer, sorted(set(traced["metrics"]) ^ per_layer)
        n = check_spans(OUT / f"spans-{name}-seed{SEED}.jsonl.gz")
        assert all(m["value"] >= 0 for m in traced["metrics"].values())
        print(f"ok {name}: untraced, corrupted digest failed_ratio "
              f"{bad['failed']}/{bad['attempted']}, traced {n} spans nest")

    bare = OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    argv = [sys.executable, "perfbench/run.py", "--workload", sorted(WORKLOADS)[0],
            "--seed", str(SEED), "--seconds", "0", "--trace", "0"]
    done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0 and not done.stdout.strip().endswith("}"), done.stdout
    shutil.rmtree(bare)
    print("ok bare directory: exit code", done.returncode, "and no result")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
