"""Tests for the k-gossip extension (all-to-all dissemination)."""

from __future__ import annotations

import numpy as np

from repro.algorithms.k_gossip import KGossipBatched
from repro.core.vectorized import VectorizedEngine
from repro.graphs import families
from repro.graphs.dynamic import PeriodicRelabelDynamicGraph, StaticDynamicGraph


class TestNodeProtocol:
    """Per-node behaviour of the kernel: one knowledge row per node."""

    def test_starts_with_own_rumor(self):
        algo = KGossipBatched()
        state = algo.init_state(5, np.array([0]))
        assert np.flatnonzero(state.known[0, 3]).tolist() == [3]
        assert not algo.converged(state)[0]

    def test_compose_carries_known_rumor(self):
        # Node 0 knows {0, 2, 3} and proposes to node 1, which knows {1}:
        # the rumor node 1 gains is always one node 0 knows.
        algo = KGossipBatched()
        for seed in range(20):
            state = algo.init_state(4, np.array([seed]))
            state.known[0, 0, [2, 3]] = True
            algo.exchange(state, np.array([0]), np.array([1]))
            gained = set(np.flatnonzero(state.known[0, 1]).tolist()) - {1}
            assert len(gained) == 1
            assert gained <= {0, 2, 3}

    def test_deliver_accumulates(self):
        algo = KGossipBatched()
        state = algo.init_state(3, np.array([0]))
        # Nodes 2 and 1 each know only their own rumor, so each delivers it.
        algo.exchange(state, np.array([2]), np.array([0]))
        algo.exchange(state, np.array([1]), np.array([0]))
        assert np.flatnonzero(state.known[0, 0]).tolist() == [0, 1, 2]
        assert state.known[0, 0].all()


class TestVectorized:
    def test_initial_knowledge_is_identity(self):
        algo = KGossipBatched()
        state = algo.init_state(5, np.array([0]))
        assert np.array_equal(state.known[0], np.eye(5, dtype=bool))

    def test_knowledge_monotone_and_completes(self):
        n = 12
        algo = KGossipBatched()
        eng = VectorizedEngine(
            StaticDynamicGraph(families.clique(n)), algo, seed=0
        )
        prev = n
        for r in range(1, 100_000):
            eng.step(r)
            cur = algo.knowledge_count(eng.state)[0]
            assert cur >= prev
            prev = cur
            if algo.converged(eng.state):
                break
        assert prev == n * n

    def test_own_rumor_never_lost(self):
        n = 8
        algo = KGossipBatched()
        eng = VectorizedEngine(
            StaticDynamicGraph(families.random_regular(n, 3, seed=0)), algo, seed=1
        )
        for r in range(1, 200):
            eng.step(r)
            assert np.diag(eng.state.known[0]).all()

    def test_completion_respects_information_floor(self):
        # Even a clique needs >= n-1 rounds (n rumor moves per round max).
        n = 16
        algo = KGossipBatched()
        eng = VectorizedEngine(StaticDynamicGraph(families.clique(n)), algo, seed=2)
        res = eng.run(200_000)
        assert res.stabilized
        assert res.rounds >= n - 1

    def test_completes_under_churn(self):
        n = 10
        base = families.random_regular(n, 3, seed=4)
        algo = KGossipBatched()
        eng = VectorizedEngine(PeriodicRelabelDynamicGraph(base, 1, seed=5), algo, seed=3)
        assert eng.run(300_000).stabilized

    def test_pick_random_known_uniform(self):
        algo = KGossipBatched()
        known = np.zeros((1, 6), dtype=bool)
        known[0, [1, 3, 4]] = True
        rng = np.random.default_rng(0)
        counts = np.zeros(6, dtype=int)
        for _ in range(6000):
            counts[algo._pick_random_known(known, np.array([0]), rng)[0]] += 1
        assert counts[[0, 2, 5]].sum() == 0
        for idx in (1, 3, 4):
            assert abs(counts[idx] / 6000 - 1 / 3) < 0.05
