"""Every benchmark request keeps its stdout bytes.

``perfbench/reference.json`` holds the sha256 of the stdout of every request
the benchmark workloads can send, keyed by the space-joined argument vector.
Each request is replayed through ``cli.main`` with the derivation memo
cleared first, so a change to any printed byte fails here as well as in the
benchmark.  ``PINNED`` holds the digests of deeper rank-4 requests that no
workload sends, taken before B^(1) was built from D[P_1].  Every JSON digest
is of the bytes ``json.dumps(indent=2)`` printed before ``cli._dumps`` wrote
them.
"""

import contextlib
import hashlib
import io
import json
import json.encoder
from pathlib import Path

import pytest

from multider import derivations
from multider.cli import main

REFERENCE = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "reference.json")
    .read_text(encoding="utf-8")
)


PINNED = {
    "basis B4 --m 8 --format json":
        "372d5a55ff81cc4e9951e88dce923bea929f7777c8e86a098e31467264b5aa2a",
    "basis D4 --m 8 --format json":
        "c2443ac7a844948df50f7ad0ac0300da889209e09af97ceb45f96da4aeadb662",
    "bmatrix B4 --k 4 --route both --format json":
        "4b924ac89206d775b075d599307e66fbaaabbb9e1eb8f854ac94425d69b92e1e",
    "bmatrix D4 --k 4 --route both --format json":
        "b2083254b3307982a79aed4c7240f587421916bf4ee8259458efcf1dd798c7a5",
}


def cold_stdout_digest(key: str) -> str:
    derivations.clear_caches()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(key.split(" "))
    assert code == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("key", sorted(REFERENCE))
def test_stdout_matches_reference_digest(key):
    assert cold_stdout_digest(key) == REFERENCE[key]


@pytest.mark.parametrize("key", sorted(PINNED))
def test_stdout_matches_pinned_digest(key):
    assert cold_stdout_digest(key) == PINNED[key]


@pytest.mark.parametrize("key", [
    "basis B3 --m 8 --format json",
    "bmatrix B3 --k 4 --route both --format json",
    "verify B2 --m 4 --format json",
    "selftest --format json",
    "catalog --format json",
])
def test_json_output_never_reaches_the_stdlib_encoder(monkeypatch, key):
    # json.dumps with an indent runs the pure-Python _make_iterencode; the
    # command line writes the same bytes without it
    def refuse(*args, **kwargs):
        raise AssertionError("json.encoder._make_iterencode was called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert cold_stdout_digest(key) == REFERENCE[key]
