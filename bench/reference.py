"""The reference loop: a fixed computation that measures the host's speed.

The benchmark shares a small host whose CPU speed changes by up to 1.7x for
stretches of tens of seconds, and CPU time changes with it.  So every timed
interval is paired with this loop, timed right before and right after it,
and the benchmark reports the interval scaled to a host on which the loop
takes ``REFERENCE_S``:

    scaled = measured * REFERENCE_S / loop time nearby

The loop is the benchmark's own code, never the program's, so a change to
the program moves the scaled times exactly as it moves the measured ones.
It is pure-Python integer mixing and tuple indexing, the kind of work the
program's hot loops do, and it creates no object the garbage collector
tracks, so the program's heap does not change its time.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.001  # scaled times are times on a host where one loop takes 1 ms
ITERATIONS = 2800  # about 1 ms on an idle 2-vCPU x86-64 VM with CPython 3.11
REPEATS = 3  # loops per reading; a reading is the fastest of them

_MASK = (1 << 64) - 1
_TABLE = tuple(range(16))


def loop(iterations: int = ITERATIONS) -> int:
    z = 0x9E3779B97F4A7C15
    total = 0
    for _ in range(iterations):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        total += _TABLE[z & 15]
    return total


def reading(repeats: int = REPEATS) -> float:
    """The host's current speed: the fastest of ``repeats`` timed loops, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        loop()
        best = min(best, perf_counter() - start)
    return best


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two readings, scaled to the reference host."""
    return seconds * REFERENCE_S / ((before + after) / 2)
