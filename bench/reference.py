"""The reference kernel that the benchmark's times are divided by.

The host shares its processors with other machines, which slow this one
down by up to 1.7 times in spells that can last a whole run.  Process CPU
time slows down with wall time, so it is no remedy.  So the harness runs
this fixed kernel between operations, and divides each operation's time
by the kernel's time around it: the two slow down together, and their
ratio hardly moves with the host.  The kernel is the benchmark's own code
and never calls the package, so a change to the package leaves it as it
is.  It exercises what the package's hot loops do (bitmask component
searches, adjacency lists, dictionaries) on a few tens of kilobytes, and
runs with the garbage collector off, so that neither the heap nor the
cache contents the package leaves behind slow it much.  (A variant that
also walked a 4 MB list ran twice as slowly inside a run as alone: it
measured the package's memory use as well as the host.)
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

# About the kernel's fastest time on the 2-core Xeon machine (Python 3.11.7)
# the benchmark was built on.  It only sets the scale: a time at the
# reference speed is the measured time times REF_S over the kernel's time.
REF_S = 0.006

_rng = random.Random("reference")
_N = 60
_ADJ: list[list[int]] = [[] for _ in range(_N)]
for _ in range(150):
    _u, _v = _rng.randrange(_N), _rng.randrange(_N)
    if _u != _v and _v not in _ADJ[_u]:
        _ADJ[_u].append(_v)
        _ADJ[_v].append(_u)
_MASKS = [sum(1 << u for u in a) for a in _ADJ]
_SUBSETS = [_rng.getrandbits(_N) for _ in range(300)]


def _kernel() -> int:
    components = 0
    for avail in _SUBSETS:
        while avail:
            comp = frontier = avail & -avail
            while frontier:
                v = frontier.bit_length() - 1
                frontier &= frontier - 1
                new = _MASKS[v] & avail & ~comp
                comp |= new
                frontier |= new
            avail &= ~comp
            components += 1
    for root in range(0, _N, 6):
        dist = [-1] * _N
        dist[root] = 0
        queue = [root]
        for v in queue:
            for u in _ADJ[v]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    queue.append(u)
    counts: dict[int, int] = {}
    for i in range(12000):
        counts[i % 977] = counts.get(i % 911, 0) + 1
    return components + len(counts)


def reference() -> float:
    """Run the kernel once and return its wall time in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
