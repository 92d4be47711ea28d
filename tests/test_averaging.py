"""Tests for the averaging gossip extension (data aggregation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.averaging import AveragingBatched
from repro.core.vectorized import VectorizedEngine
from repro.graphs import families
from repro.graphs.dynamic import PeriodicRelabelDynamicGraph, StaticDynamicGraph


class TestVectorized:
    def test_sum_conserved_exactly(self):
        n = 16
        values = np.random.default_rng(0).random(n)
        algo = AveragingBatched(values)
        eng = VectorizedEngine(
            StaticDynamicGraph(families.random_regular(n, 4, seed=0)), algo, seed=1
        )
        s0 = eng.state.values.sum()
        for r in range(1, 500):
            eng.step(r)
            assert eng.state.values.sum() == pytest.approx(s0, rel=1e-12)

    def test_deviation_monotone_nonincreasing(self):
        n = 16
        values = np.random.default_rng(1).random(n)
        algo = AveragingBatched(values)
        eng = VectorizedEngine(
            StaticDynamicGraph(families.clique(n)), algo, seed=2
        )
        prev = algo.max_deviation(eng.state)[0]
        for r in range(1, 2000):
            eng.step(r)
            cur = algo.max_deviation(eng.state)[0]
            assert cur <= prev + 1e-12
            prev = cur
            if algo.converged(eng.state):
                break
        assert algo.converged(eng.state)

    def test_converges_to_true_mean(self):
        n = 20
        values = np.random.default_rng(3).random(n) * 100
        algo = AveragingBatched(values, eps=1e-4)
        eng = VectorizedEngine(
            StaticDynamicGraph(families.random_regular(n, 4, seed=1)), algo, seed=4
        )
        res = eng.run(200_000)
        assert res.stabilized
        assert np.allclose(eng.state.values, values.mean(), atol=1e-3)

    def test_converges_under_churn(self):
        n = 12
        base = families.ring(n)
        values = np.random.default_rng(4).random(n)
        algo = AveragingBatched(values, eps=1e-3)
        eng = VectorizedEngine(PeriodicRelabelDynamicGraph(base, 1, seed=5), algo, seed=6)
        assert eng.run(300_000).stabilized

    def test_constant_values_instantly_converged(self):
        algo = AveragingBatched(np.full(8, 3.5))
        state = algo.init_state(8, np.array([0]))
        assert algo.converged(state)[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            AveragingBatched(np.array([]))
        with pytest.raises(ValueError):
            AveragingBatched(np.ones(4), eps=0.0)
        algo = AveragingBatched(np.ones(4))
        with pytest.raises(ValueError):
            VectorizedEngine(
                StaticDynamicGraph(families.ring(5)), algo, seed=0
            )

    def test_expansion_ordering(self):
        """Clique averages faster than a ring of the same size."""
        n = 16
        values = np.random.default_rng(5).random(n)

        def rounds_for(g, seed):
            algo = AveragingBatched(values, eps=1e-3)
            eng = VectorizedEngine(StaticDynamicGraph(g), algo, seed=seed)
            res = eng.run(500_000)
            assert res.stabilized
            return res.rounds

        clique_med = np.median([rounds_for(families.clique(n), t) for t in range(5)])
        ring_med = np.median([rounds_for(families.ring(n), t) for t in range(5)])
        assert clique_med < ring_med
