"""Tests for process-parallel trial sweeps run back to back.

``run_trials(processes=K)`` forks one child per seed chunk, so a builder
that cannot be pickled (a lambda, a closure) needs no serial fallback:
every sweep forks, warns nothing, and returns the serial outcomes.
"""

from __future__ import annotations

import warnings

from repro.core.trace import RunResult
from repro.harness.runner import run_trials


class _CountEngine:
    """Stabilizes after a seed-derived number of rounds."""

    def __init__(self, seed: int):
        self.target = (seed % 5) + 2

    def run(self, max_rounds, *, check_every=1):
        r = min(self.target, max_rounds)
        return RunResult(True, r, r)


def _count_build(seed: int) -> _CountEngine:
    return _CountEngine(seed)


class TestRunTrialsPoolRouting:
    def test_unpicklable_builder_warns_once_per_sweep(self):
        """Repeated sweeps with one unpicklable builder agree with the
        serial run and with each other; no sweep warns (the old serial
        fallback warned once per sweep)."""
        build = lambda s: _CountEngine(s)  # noqa: E731 - deliberately unpicklable
        serial = run_trials(_count_build, trials=4, max_rounds=50, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out1 = run_trials(build, trials=4, max_rounds=50, seed=2, processes=2)
            out2 = run_trials(build, trials=4, max_rounds=50, seed=2, processes=2)
        assert out1 == out2 == serial
