"""Request lists of the three benchmark workloads.

A request is the argument vector of one ``multider`` command line call.
Every workload has a fixed multiset of requests, one pass; the seed fixes
the order in which a pass sends them.  Every seed therefore does the same
work, so run-to-run differences come from the program and the machine, not
from the draw.  Order matters only on ``warm_requests``, where it decides
which request of the warm-up pass pays for a memo miss.

Timings on a shared machine drift by tens of percent over seconds, so a
pass is made of many requests of moderate cost (none above about 1.5 s
cold) and lasts a few seconds: a run of the length set in BENCHMARK.json
then times several passes and reports medians.  Requests that take three
seconds or more each (A3 at m 8, A4 at m >= 2, B4 and D4 at m >= 4, verify
on D4 at any m) are left out for that reason.

``pool()`` lists the distinct requests of a workload; the reference digests
in ``reference.json`` cover exactly the union of the pools.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

_DIHEDRAL = tuple(f"I2({n})" for n in range(3, 9))
_RANK2 = ("A2", "B2") + _DIHEDRAL


def _basis(system: str, m: int) -> tuple[str, ...]:
    return ("basis", system, "--m", str(m), "--format", "json")


def _verify(system: str, m: int) -> tuple[str, ...]:
    return ("verify", system, "--m", str(m), "--format", "json")


def _bmatrix(system: str, k: int) -> tuple[str, ...]:
    return ("bmatrix", system, "--k", str(k), "--route", "both", "--format", "json")


# deep_basis: cold P_m of rank 3-4 systems at high m.  mat_det_adj takes
# over 80 % of the profile of every one of these requests.  The costliest,
# A3 m 6 (about 1.5 s), is sent twice: it is then the top fifth of a pass and
# job_p90 is the median of its samples, not an interpolation between the
# extremes of two different requests.
_DEEP = tuple(_basis(s, m) for s, m in (
    ("A3", 4), ("A3", 5), ("A3", 6), ("A3", 6), ("B3", 8), ("D3", 8),
    ("B4", 2), ("B4", 3), ("D4", 2), ("D4", 3)))

# certify_sweep: all nine checks, cold.  Every rank 1-2 entry of the catalog
# at every m <= 5 (this is where orbit-level membership of the dihedral types
# runs) and the rank-3 entries at one even and one odd m.
_CERTIFY = (
    tuple(_verify(s, m) for s in ("A1",) + _RANK2 for m in range(6))
    + tuple(_verify(s, m) for s in ("A3", "B3", "D3") for m in (2, 3))
)

# warm_requests: 300 requests per pass, a "few hundred".  Two parts of this
# mix are assumptions, backed by no recorded usage: every kind gets the same
# share, and within a kind the keys follow a Zipf law (weight 1/rank) over a
# popularity order that is a fixed shuffle of the keys.  One part is chosen
# for a steady job_p90: verify draws only rank-2 keys, which cost 20-170 ms
# warm, so the top tenth of a pass falls inside that block of requests
# rather than on a few rank-3 verifies of up to 0.5 s.
_WARM_SYSTEMS = ("A1", "A2", "A3", "B2", "B3", "D3") + _DIHEDRAL
_WARM_KINDS = ("basis", "bmatrix", "verify", "catalog", "selftest")
_WARM_PER_KIND = 60


def _warm_keys(kind: str) -> list[tuple[str, ...]]:
    if kind == "basis":
        keys = [_basis(s, m) for s in _WARM_SYSTEMS for m in range(1, 9)]
    elif kind == "verify":
        keys = [_verify(s, m) for s in _RANK2 for m in range(1, 5)]
    elif kind == "bmatrix":
        keys = [_bmatrix(s, k) for s in _WARM_SYSTEMS for k in range(1, 5)]
    else:
        return [(kind, "--format", "json")]
    # the popularity order is part of the workload definition, not of the seed
    random.Random(f"warm-popularity-{kind}").shuffle(keys)
    return keys


def _zipf_counts(n_keys: int, total: int) -> list[int]:
    """Largest-remainder apportionment of ``total`` over weights 1/rank."""
    weights = [1.0 / r for r in range(1, n_keys + 1)]
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(n_keys), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _warm_multiset() -> tuple[tuple[str, ...], ...]:
    out = []
    for kind in _WARM_KINDS:
        keys = _warm_keys(kind)
        for key, count in zip(keys, _zipf_counts(len(keys), _WARM_PER_KIND)):
            out.extend([key] * count)
    return tuple(out)


@dataclass(frozen=True)
class Workload:
    name: str
    # True: derivation caches are cleared before every request.  False: the
    # process stays warm; one untimed warm-up pass fills the memo first
    cold: bool
    # systems built during set-up, before any request is timed
    systems: tuple[str, ...]
    # set-up also builds the full catalog listed by ``multider catalog``
    catalog: bool
    multiset: tuple[tuple[str, ...], ...]

    def requests(self, seed: int) -> list[tuple[str, ...]]:
        picked = list(self.multiset)
        random.Random(f"{self.name}-{seed}").shuffle(picked)
        return picked

    def pool(self) -> list[tuple[str, ...]]:
        return sorted(set(self.multiset))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("deep_basis", cold=True, systems=("A3", "B3", "D3", "B4", "D4"),
                 catalog=False, multiset=_DEEP),
        Workload("certify_sweep", cold=True,
                 systems=("A1", "A3", "B3", "D3") + _RANK2,
                 catalog=False, multiset=_CERTIFY),
        Workload("warm_requests", cold=False, systems=_WARM_SYSTEMS,
                 catalog=True, multiset=_warm_multiset()),
    )
}


def request_key(argv) -> str:
    return " ".join(argv)
