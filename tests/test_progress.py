"""Tests for repro.analysis.progress: spread curves and phase classification."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.algorithms.bit_convergence import (
    BitConvergenceConfig,
    BitConvergenceBatched,
)
from repro.algorithms.push_pull import PushPullBatched
from repro.analysis.progress import (
    PhaseClassifier,
    PhaseRecord,
    SpreadCurve,
    sparkline,
)
from repro.core.vectorized import VectorizedEngine
from repro.graphs import families
from repro.graphs.dynamic import StaticDynamicGraph
from repro.harness.experiments import uid_keys_random


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_flat(self):
        s = sparkline([5, 5, 5])
        assert s == "▁▁▁"

    def test_monotone_ramps(self):
        s = sparkline([1, 2, 3, 4, 5, 6, 7, 8])
        assert s[0] == "▁" and s[-1] == "█"

    def test_downsampling(self):
        s = sparkline(range(1000), width=40)
        assert len(s) <= 40


class TestSpreadCurve:
    def make_curve(self, counts):
        c = SpreadCurve()
        for x in counts:
            c.record(x)
        return c

    def test_time_to_fraction(self):
        c = self.make_curve([1, 2, 4, 8, 16])
        assert c.time_to_fraction(16, 0.5) == 4
        assert c.time_to_fraction(16, 1.0) == 5
        assert c.time_to_fraction(32, 1.0) is None

    def test_fraction_validation(self):
        c = self.make_curve([1, 2])
        with pytest.raises(ValueError):
            c.time_to_fraction(4, 0.0)

    def test_growth_factors(self):
        c = self.make_curve([1, 2, 4, 8])
        assert np.allclose(c.growth_factors(), [2, 2, 2])
        assert np.allclose(c.growth_factors(window=2), [4, 4])

    def test_growth_factor_window_validation(self):
        with pytest.raises(ValueError):
            self.make_curve([1, 2]).growth_factors(window=0)

    def test_integration_with_push_pull(self):
        n = 24
        g = families.random_regular(n, 4, seed=0)
        algo = PushPullBatched(np.array([0]))
        eng = VectorizedEngine(StaticDynamicGraph(g), algo, seed=1)
        curve = SpreadCurve()
        curve.record(algo.informed_count(eng.state)[0])
        for r in range(1, 5000):
            eng.step(r)
            curve.record(algo.informed_count(eng.state)[0])
            if algo.converged(eng.state):
                break
        assert curve.counts[0] == 1 and curve.counts[-1] == n
        assert curve.time_to_fraction(n, 1.0) is not None
        # Monotone curve => all growth factors >= 1.
        assert (curve.growth_factors() >= 1).all()


class TestPhaseRecord:
    def test_good_disjunction(self):
        assert PhaseRecord(1, 2, 3, advanced=True, grew=False).good
        assert PhaseRecord(1, 2, 3, advanced=False, grew=True).good
        assert not PhaseRecord(1, 2, 3, advanced=False, grew=False).good


class TestPhaseClassifier:
    def _make(self, seed=0, n=16, degree=4):
        g = families.random_regular(n, degree, seed=seed)
        keys = uid_keys_random(n, seed)
        cfg = BitConvergenceConfig(n_upper=n, delta_bound=degree, beta=1.0)
        algo = BitConvergenceBatched(keys, cfg, tag_seed=seed, unique_tags=True)
        eng = VectorizedEngine(StaticDynamicGraph(g), algo, seed=seed)
        return PhaseClassifier(eng, alpha=0.5, tau=math.inf)

    def test_requires_bit_convergence(self):
        g = families.ring(6)
        algo = PushPullBatched(np.array([0]))
        eng = VectorizedEngine(StaticDynamicGraph(g), algo, seed=0)
        with pytest.raises(TypeError):
            PhaseClassifier(eng, alpha=0.5, tau=1)

    def test_stops_at_convergence(self):
        clf = self._make()
        recs = clf.run(200)
        # Converged well before 200 phases; the last observed b_i is real.
        assert 0 < len(recs) < 200
        assert all(r.b_i is not None for r in recs)

    def test_phase_numbers_sequential(self):
        clf = self._make(seed=3)
        recs = clf.run(100)
        assert [r.phase for r in recs] == list(range(1, len(recs) + 1))

    def test_good_fraction_requires_run(self):
        clf = self._make(seed=4)
        with pytest.raises(ValueError):
            _ = clf.good_fraction

    def test_good_fraction_bounds(self):
        clf = self._make(seed=5)
        clf.run(100)
        assert 0.0 <= clf.good_fraction <= 1.0

    def test_b_i_monotone_across_records(self):
        clf = self._make(seed=6)
        recs = clf.run(100)
        bis = [r.b_i for r in recs]
        assert bis == sorted(bis)  # Lemma VII.1 again, via the classifier
