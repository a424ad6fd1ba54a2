"""Regenerate reference.json: the sha256 of the stdout of every request any
seed of any workload can draw, as printed by the package under ``src/``.

    python3 perfbench/make_reference.py

Run it only on a commit whose output is known to be right; the benchmark
counts every later difference as a failed request.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, request_key  # noqa: E402


def main() -> int:
    from multider import cli

    digests = {}
    for workload in WORKLOADS.values():
        for argv in workload.pool():
            key = request_key(argv)
            if key in digests:
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(list(argv))
            if code != 0:
                print(f"error: {key!r} exited with {code}", file=sys.stderr)
                return 1
            digests[key] = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
            print(f"{digests[key][:16]}  {key}", flush=True)
    path = HERE / "reference.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(digests)} digests written to {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
