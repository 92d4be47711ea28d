"""Tests for the k-gossip extension (all-to-all dissemination)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.k_gossip import (
    KGossipNode,
    KGossipBatched,
    make_k_gossip_nodes,
)
from repro.core.engine import ReferenceEngine
from repro.core.payload import Message, UID, UIDSpace
from repro.core.vectorized import VectorizedEngine
from repro.graphs import families
from repro.graphs.dynamic import PeriodicRelabelDynamicGraph, StaticDynamicGraph


class TestNodeProtocol:
    def test_starts_with_own_rumor(self):
        node = KGossipNode(3, UID(1), n=5)
        assert node.known == {3}
        assert not node.complete

    def test_compose_carries_known_rumor(self):
        node = KGossipNode(0, UID(1), n=4)
        node.known |= {2, 3}
        for _ in range(20):
            msg = node.compose(1)
            kind, rumor = msg.data
            assert kind == "rumor"
            assert rumor in node.known

    def test_deliver_accumulates(self):
        node = KGossipNode(0, UID(1), n=3)
        node.deliver(1, Message(data=("rumor", 2)))
        node.deliver(1, Message(data=("rumor", 1)))
        assert node.known == {0, 1, 2}
        assert node.complete

    def test_irrelevant_message_ignored(self):
        node = KGossipNode(0, UID(1), n=3)
        node.deliver(1, Message(data="junk"))
        assert node.known == {0}


class TestReferenceRuns:
    def test_completes_on_clique(self):
        n = 8
        us = UIDSpace(n, seed=0)
        nodes = make_k_gossip_nodes(us)
        eng = ReferenceEngine(StaticDynamicGraph(families.clique(n)), nodes, seed=1)
        res = eng.run(50_000, lambda ps: all(p.complete for p in ps))
        assert res.stabilized

    def test_completes_on_ring(self):
        n = 6
        us = UIDSpace(n, seed=0)
        nodes = make_k_gossip_nodes(us)
        eng = ReferenceEngine(StaticDynamicGraph(families.ring(n)), nodes, seed=1)
        res = eng.run(100_000, lambda ps: all(p.complete for p in ps))
        assert res.stabilized


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
