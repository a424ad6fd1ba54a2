"""Speed probe: how fast this machine runs Python right now.

``probe()`` times a fixed pure-Python integer loop of about 10 ms.  The
benchmark divides each timing by the probe times taken around it, so that
shifts in CPU speed caused by other tenants of a shared machine cancel out
while changes to the measured program do not: the probe never calls it.
"""

from __future__ import annotations

import time

# probe time that defines a "reference second" for set-up time; about the
# probe's time on the machine the benchmark was written on when it was fast
REFERENCE_PROBE_S = 0.010


def probe() -> float:
    """Seconds the fixed loop takes now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(150_000):
        x += i * i
    return time.perf_counter() - t0
