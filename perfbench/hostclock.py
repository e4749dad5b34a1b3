"""Host-speed clock: scales wall time to a reference host speed.

On a shared host (a 2-vCPU VM was measured) the speed drifts by up to 2x
within seconds, differently for interpreter-bound, big-integer and
memory-bound code.  The reference loop times one fixed piece of each kind.
It runs no g2kit code, so no g2kit change can move it.  An interval's wall
time is multiplied by REFERENCE_S over the median of the loop times sampled
just before and after it and one step further out on each side; one
normalized second is a wall second on a host that runs the loop in
REFERENCE_S.
"""
from __future__ import annotations

import random
import statistics
from fractions import Fraction
from math import gcd
from time import perf_counter

import numpy as np

REFERENCE_S = 0.0017
SAMPLE_EVERY_S = 0.05  # sample before an interval once this much timed wall time has passed

_FRACTION_ROUNDS = 64
_CHASE_STEPS = 8000
_rng = random.Random(0)
_BIG = [(_rng.getrandbits(300), _rng.getrandbits(300) | 1) for _ in range(80)]
# One random cycle through 2**20 slots (4 MB, resident for the whole run):
# each step of the chase misses the private caches.
_order = np.arange(1 << 20, dtype=np.int32)
np.random.default_rng(0).shuffle(_order)
_next = np.empty_like(_order)
_next[_order[:-1]] = _order[1:]
_next[_order[-1]] = _order[0]
_CHASE = memoryview(_next)
del _order


def _fraction_part() -> int:
    acc = 0
    for i in range(1, _FRACTION_ROUNDS + 1):
        x = Fraction(i, i + 1) * Fraction(i + 2, i + 3) - Fraction(1, i + 4)
        acc ^= x.numerator & 0xFF
    return acc


def _bigint_part() -> int:
    acc = 0
    for a, b in _BIG:
        acc ^= gcd(a * b + 1, b * b + 3) ^ (a * b) // b
    return acc


def _memory_part() -> int:
    j, chase = 0, _CHASE
    for _ in range(_CHASE_STEPS):
        j = chase[j]
    return j


def _best_of_three(part) -> float:
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        part()
        best = min(best, perf_counter() - t0)
    return best


class HostClock:
    """Reference-loop samples taken between timed intervals."""

    def __init__(self):
        self.samples = []
        self.unsampled = float("inf")  # timed wall seconds since the last sample

    def sample(self) -> int:
        """Time the reference loop (each part best of three); return the sample's index."""
        self.samples.append(sum(_best_of_three(p)
                                for p in (_fraction_part, _bigint_part, _memory_part)))
        self.unsampled = 0.0
        return len(self.samples) - 1

    def mark(self) -> int:
        """Index of the sample before the next interval, sampling first if one is due."""
        if self.unsampled >= SAMPLE_EVERY_S:
            self.sample()
        return len(self.samples) - 1

    def add(self, wall_s: float):
        self.unsampled += wall_s

    def factor(self, k: int) -> float:
        """Wall-to-reference factor for an interval between samples k and k + 1."""
        return REFERENCE_S / statistics.median(self.samples[max(k - 1, 0):k + 3])
