"""Calibration kernels and drift correction.

The benchmark runs on shared vCPUs whose speed drifts: whole stretches of
several seconds run 30-60% slower than others, in CPU time as well as in
wall time, so medians or minimums taken inside one run do not remove it.
Every timed unit is therefore bracketed by fixed calibration kernels that
do not call ``repro``, and its time is reported in *reference-speed
seconds*:

    corrected = raw x prod_k (reference time_k / time_k around the unit) ^ w_k

Three kernels cover the kinds of work the simulator does: interpreted
Python over objects and dicts (engine glue, protocol objects, harness), an
array pipeline shaped like a batched round (mask, ``flatnonzero``, gather,
``bincount``, stable sort over 2^18 elements) and a random gather from a
table eight times the L2 cache.  Each is timed as the minimum of a few
back-to-back runs, which drops interrupts.

No single kernel slows by exactly as much as every workload, so each
workload has its own weights ``w_k``: the least-squares slopes of log unit
time on the kernels' log times, fitted by ``calibrate.py`` on a recorded
trace and kept in ``reference.json``.  With one kernel at weight 1 the
formula is the plain ratio of reference to measured kernel time.
"""

from __future__ import annotations

import math
import time
from typing import Callable

import numpy as np

#: Runs of each kernel per calibration sample (the minimum is kept).
REPEATS = 3

_rng = np.random.default_rng(20170529)
_ARRAY_VALUES = _rng.random(1 << 18)
_ARRAY_IDS = np.arange(1 << 18)
_GATHER_TABLE = _rng.random(1 << 22)  # 32 MiB
_GATHER_INDEX = _rng.integers(0, 1 << 22, size=1 << 18)


class _Cell:
    __slots__ = ("hits",)

    def __init__(self):
        self.hits = 0


# Built once: the loop below allocates no GC-tracked objects, so garbage
# collection never runs inside a sample.
_CELLS = {key: _Cell() for key in range(4099)}


def _python() -> None:
    cells = _CELLS
    for i in range(20000):
        cells[(i * 7919) % 4099].hits += 1


def _arrays() -> None:
    for _ in range(4):
        ids = _ARRAY_IDS.take(np.flatnonzero(_ARRAY_VALUES < 0.5))
        np.bincount(ids & 65535, minlength=65536)
        np.argsort(ids[::-1], kind="stable")


def _gather() -> None:
    _GATHER_TABLE.take(_GATHER_INDEX).sum()


KERNELS: dict[str, Callable[[], None]] = {
    "python": _python,
    "arrays": _arrays,
    "gather": _gather,
}


def measure(repeats: int = REPEATS) -> dict[str, float]:
    """Seconds per kernel: the minimum over ``repeats`` back-to-back runs."""
    sample = {}
    for name, kernel in KERNELS.items():
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        sample[name] = best
    return sample


def speed_factor(
    before: dict[str, float],
    after: dict[str, float],
    reference: dict[str, float],
    weights: dict[str, float],
) -> float:
    """Reference-speed seconds per raw second around a unit.

    Below 1 the kernels ran slower than at the reference.  Each kernel's
    time is the mean of the samples before and after the unit.
    """
    log_factor = 0.0
    for kernel, weight in weights.items():
        measured = (before[kernel] + after[kernel]) / 2.0
        log_factor += weight * math.log(reference[kernel] / measured)
    return math.exp(log_factor)


def corrected(
    raw_s: float,
    before: dict[str, float],
    after: dict[str, float],
    reference: dict[str, float],
    weights: dict[str, float],
) -> float:
    """Reference-speed seconds of a unit that took ``raw_s`` wall seconds."""
    return raw_s * speed_factor(before, after, reference, weights)
