"""Every benchmark request keeps its stdout bytes.

``perfbench/reference.json`` holds the sha256 of the stdout of every request
the benchmark workloads can send, keyed by the space-joined argument vector.
Each request is replayed through ``cli.main`` with the derivation memo
cleared first, so a change to any printed byte fails here as well as in the
benchmark.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from multider import derivations
from multider.cli import main

REFERENCE = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "reference.json")
    .read_text(encoding="utf-8")
)


@pytest.mark.parametrize("key", sorted(REFERENCE))
def test_stdout_matches_reference_digest(key):
    derivations.clear_caches()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(key.split(" "))
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == REFERENCE[key]
