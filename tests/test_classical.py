"""Tests for the classical telephone model baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.classical import classical_push_pull_leader, classical_push_pull_rumor
from repro.graphs import families
from repro.graphs.dynamic import PeriodicRelabelDynamicGraph, StaticDynamicGraph


class TestClassicalRumor:
    def test_completes_on_clique_fast(self):
        dg = StaticDynamicGraph(families.clique(64))
        res = classical_push_pull_rumor(dg, 0, max_rounds=1000, seed=0)
        assert res.stabilized
        # Epidemic spreading: O(log n) rounds on a clique.
        assert res.rounds <= 30

    def test_star_pull_is_fast(self):
        # Every leaf calls the hub each round and pulls: ~1-2 rounds once
        # the hub knows; hub starts informed here.
        dg = StaticDynamicGraph(families.star(50))
        res = classical_push_pull_rumor(dg, 0, max_rounds=100, seed=1)
        assert res.stabilized and res.rounds <= 5

    def test_completes_on_path(self):
        dg = StaticDynamicGraph(families.path(16))
        res = classical_push_pull_rumor(dg, 0, max_rounds=5000, seed=0)
        assert res.stabilized

    def test_honours_horizon(self):
        dg = StaticDynamicGraph(families.path(64))
        res = classical_push_pull_rumor(dg, 0, max_rounds=2, seed=0)
        assert not res.stabilized and res.rounds == 2

    def test_source_validated(self):
        dg = StaticDynamicGraph(families.ring(5))
        with pytest.raises(ValueError):
            classical_push_pull_rumor(dg, 9, max_rounds=10)

    def test_works_under_churn(self):
        base = families.double_star(8)
        dg = PeriodicRelabelDynamicGraph(base, 1, seed=3)
        res = classical_push_pull_rumor(dg, 2, max_rounds=10_000, seed=0)
        assert res.stabilized

    def test_deterministic(self):
        dg = StaticDynamicGraph(families.ring(12))
        a = classical_push_pull_rumor(dg, 0, max_rounds=1000, seed=5).rounds
        b = classical_push_pull_rumor(dg, 0, max_rounds=1000, seed=5).rounds
        assert a == b


class TestClassicalLeader:
    def test_elects_minimum(self):
        rng = np.random.default_rng(0)
        keys = rng.permutation(32).astype(np.int64)
        dg = StaticDynamicGraph(families.clique(32))
        res = classical_push_pull_leader(dg, keys, max_rounds=1000, seed=0)
        assert res.stabilized
        assert res.rounds <= 30

    def test_completes_on_ring(self):
        keys = np.arange(10, dtype=np.int64)[::-1].copy()
        dg = StaticDynamicGraph(families.ring(10))
        res = classical_push_pull_leader(dg, keys, max_rounds=5000, seed=0)
        assert res.stabilized

    def test_keys_shape_validated(self):
        dg = StaticDynamicGraph(families.ring(5))
        with pytest.raises(ValueError):
            classical_push_pull_leader(dg, np.arange(4), max_rounds=10)

    def test_faster_than_mobile_on_double_star(self):
        """The headline E10 effect in miniature: unbounded accepts win."""
        from repro.algorithms.push_pull import PushPullBatched
        from repro.core.vectorized import VectorizedEngine

        base = families.double_star(16)
        dg = StaticDynamicGraph(base)
        classical = np.median(
            [
                classical_push_pull_rumor(dg, 2, max_rounds=10**6, seed=s).rounds
                for s in range(5)
            ]
        )
        mobile = np.median(
            [
                VectorizedEngine(
                    dg, PushPullBatched(np.array([2])), seed=s
                ).run(10**6).rounds
                for s in range(5)
            ]
        )
        assert classical * 2 < mobile  # Delta^2 vs Delta: a wide gap
