"""Larger-scale sanity runs (kept under a few seconds via the vectorized engine)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    AsyncBitConvergenceBatched,
    BitConvergenceConfig,
    BitConvergenceBatched,
    BlindGossipBatched,
    PPushBatched,
)
from repro.core import VectorizedEngine
from repro.graphs import PeriodicRelabelDynamicGraph, StaticDynamicGraph, families
from repro.harness.experiments import uid_keys_random


@pytest.mark.slow
class TestScale:
    N = 512
    DEGREE = 8

    def _graph(self):
        return families.random_regular(self.N, self.DEGREE, seed=0)

    def test_blind_gossip_at_512(self):
        keys = uid_keys_random(self.N, 0)
        eng = VectorizedEngine(
            StaticDynamicGraph(self._graph()), BlindGossipBatched(keys), seed=1
        )
        res = eng.run(100_000)
        assert res.stabilized
        # Well-connected: polylog-ish rounds, far below the Delta^2 bound.
        assert res.rounds < 500

    def test_ppush_at_512(self):
        eng = VectorizedEngine(
            StaticDynamicGraph(self._graph()),
            PPushBatched(np.array([0])),
            seed=1,
        )
        res = eng.run(100_000)
        assert res.stabilized
        assert res.rounds < 200

    def test_bit_convergence_at_512_under_churn(self):
        keys = uid_keys_random(self.N, 0)
        cfg = BitConvergenceConfig(
            n_upper=self.N, delta_bound=self.DEGREE, beta=1.0
        )
        eng = VectorizedEngine(
            PeriodicRelabelDynamicGraph(self._graph(), 1, seed=2),
            BitConvergenceBatched(keys, cfg, tag_seed=3, unique_tags=True),
            seed=1,
        )
        res = eng.run(200_000)
        assert res.stabilized

    def test_async_bit_convergence_at_512_staggered(self):
        keys = uid_keys_random(self.N, 0)
        cfg = BitConvergenceConfig(
            n_upper=self.N, delta_bound=self.DEGREE, beta=1.0
        )
        act = (np.arange(self.N) % 50) + 1
        eng = VectorizedEngine(
            StaticDynamicGraph(self._graph()),
            AsyncBitConvergenceBatched(keys, cfg, tag_seed=3, unique_tags=True),
            seed=1,
            activation_rounds=act,
        )
        res = eng.run(500_000)
        assert res.stabilized
