"""Host speed, measured next to every timed operation, and times scaled by it.

A shared host runs the interpreter at a speed that drifts by up to half
for seconds at a time: a fixed loop takes 6 ms in one spell and 10 ms in
the next, on either CPU.  That drift moves every timing of the benchmark
far more than the changes it must show.  So ``reference_loop`` is timed
just before and just after each operation, in the same process, and the
operation's time is scaled to a host on which the loop takes
``REFERENCE_S``.  The loop does integer arithmetic and dict stores and
allocates no container, so neither the garbage collector nor the objects
the library keeps alive change its time: a change to the library moves the
scaled times exactly as it moves the raw ones.
"""
from __future__ import annotations

import time

# the loop's time on a 2-CPU x86 host with Python 3.11 in a quiet spell;
# the same host takes 1.7 to 3.1 ms as its speed drifts
REFERENCE_S = 0.002


def reference_loop() -> float:
    """Seconds the fixed loop takes now."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(20000):
        acc += i * i % 7
        table[i & 255] = acc
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` as they read on the reference host, given the loop's times around them."""
    return seconds * REFERENCE_S / ((before + after) / 2)
