"""A gauge of how fast the machine runs spinlab's kind of code right now.

The benchmark runs on shared machines whose speed swings by half or more
within a minute, as other tenants load the cores and caches.  Wall-clock
job times follow those swings, so the benchmark also times ``probe()``,
a fixed piece of work of the same kinds as spinlab's (int64 matrix
products, row operations on small int64 numpy arrays driven from a
Python loop, and pure-Python integer and tuple work), right before and
right after every job, with no spinlab code running.  A job's time is then reported in reference
seconds:

    wall seconds * REF_PROBE_S / (mean of the two probe times)

that is, what the job would have taken on a machine running the probe
in REF_PROBE_S.  A change that makes spinlab faster lowers the figure
by the same share; a slow spell of the machine slows job and probes
alike and leaves it unchanged.  The reports keep the wall times and the
probe times too.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# probe()'s time on the reference machine (2 vCPUs of a 2.1 GHz Xeon in a
# quiet spell); it only sets the scale of the reported figures.
REF_PROBE_S = 0.0075

_P = 5
_ROWS = np.arange(112 * 112, dtype=np.int64).reshape(112, 112) * 7919 % _P


def probe() -> float:
    """Seconds taken by the fixed piece of work: about equal parts of
    int64 matrix products, row operations driven from a Python loop, and
    pure-Python integer and tuple work."""
    t0 = perf_counter()
    prod = (_ROWS @ _ROWS.T) % _P
    prod = (prod @ _ROWS) % _P
    for k in range(1, 8 * 64):
        row = k % 112
        prod[row] = (prod[row] - 3 * prod[row - 1]) % _P
    total = 0
    pairs = []
    for i in range(3000):
        total = (total + i * i) % 7919
        pairs.append((i % 13, total))
    pairs.sort()
    return perf_counter() - t0


def reference_seconds(seconds: float, probes: list[float]) -> float:
    """``seconds`` of wall time, scaled to the reference machine by the
    mean of the probe times taken around it."""
    return seconds * REF_PROBE_S * len(probes) / sum(probes)
