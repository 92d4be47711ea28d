"""Tests for blind gossip leader election (Section VI)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.blind_gossip import (
    BlindGossipNode,
    BlindGossipBatched,
    make_blind_gossip_nodes,
)
from repro.core.engine import ReferenceEngine
from repro.core.monitor import all_leaders_are
from repro.core.payload import Message, UID, UIDSpace
from repro.core.protocol import RoundView
from repro.core.vectorized import VectorizedEngine
from repro.graphs import families
from repro.graphs.dynamic import PeriodicRelabelDynamicGraph, StaticDynamicGraph
from repro.harness.experiments import uid_keys_random


def view(neighbors, tags=None, rng=None, local_round=1):
    nb = np.asarray(neighbors, dtype=np.int64)
    return RoundView(
        local_round=local_round,
        neighbors=nb,
        neighbor_tags=np.zeros(nb.size, dtype=np.int64) if tags is None else np.asarray(tags),
        rng=rng or np.random.default_rng(0),
    )


class TestNodeProtocol:
    def test_initial_leader_is_self(self):
        node = BlindGossipNode(0, UID(42))
        assert node.leader == UID(42)

    def test_keeps_minimum(self):
        node = BlindGossipNode(0, UID(42))
        node.deliver(1, Message(data=UID(7)))
        assert node.leader == UID(7)
        node.deliver(2, Message(data=UID(99)))
        assert node.leader == UID(7)

    def test_composes_current_best(self):
        node = BlindGossipNode(0, UID(42))
        node.deliver(1, Message(data=UID(7)))
        assert node.compose(3).data == UID(7)

    def test_decide_coin_flip_rates(self):
        node = BlindGossipNode(0, UID(1))
        rng = np.random.default_rng(0)
        sends = sum(
            node.decide(view([1, 2, 3], rng=rng)) is not None for _ in range(2000)
        )
        assert 0.4 < sends / 2000 < 0.6

    def test_decide_uniform_over_neighbors(self):
        node = BlindGossipNode(0, UID(1))
        rng = np.random.default_rng(1)
        counts = {1: 0, 2: 0, 3: 0, 4: 0}
        total = 0
        for _ in range(4000):
            t = node.decide(view([1, 2, 3, 4], rng=rng))
            if t is not None:
                counts[t] += 1
                total += 1
        for c in counts.values():
            assert abs(c / total - 0.25) < 0.05

    def test_isolated_node_listens(self):
        node = BlindGossipNode(0, UID(1))
        assert node.decide(view([])) is None

    def test_tag_length_zero(self):
        assert BlindGossipNode.tag_length == 0


class TestReferenceConvergence:
    @pytest.mark.parametrize(
        "graph",
        [
            families.clique(12),
            families.ring(10),
            families.star(10),
            families.double_star(4),
            families.random_regular(12, 3, seed=1),
        ],
        ids=["clique", "ring", "star", "double_star", "regular"],
    )
    def test_elects_min_uid(self, graph):
        us = UIDSpace(graph.n, seed=3)
        nodes = make_blind_gossip_nodes(us)
        eng = ReferenceEngine(StaticDynamicGraph(graph), nodes, seed=1)
        res = eng.run(50_000, all_leaders_are(us.min_uid()))
        assert res.stabilized

    def test_converges_under_tau1_churn(self):
        base = families.double_star(4)
        us = UIDSpace(base.n, seed=3)
        nodes = make_blind_gossip_nodes(us)
        eng = ReferenceEngine(
            PeriodicRelabelDynamicGraph(base, 1, seed=7), nodes, seed=1
        )
        res = eng.run(100_000, all_leaders_are(us.min_uid()))
        assert res.stabilized


class TestVectorized:
    def test_elects_min_key(self):
        n = 32
        keys = uid_keys_random(n, 5)
        eng = VectorizedEngine(
            StaticDynamicGraph(families.random_regular(n, 4, seed=2)),
            BlindGossipBatched(keys),
            seed=0,
        )
        res = eng.run(100_000)
        assert res.stabilized
        assert (eng.algo.leaders(eng.state)[0] == keys.min()).all()

    def test_convergence_is_absorbing(self):
        n = 16
        keys = uid_keys_random(n, 5)
        algo = BlindGossipBatched(keys)
        eng = VectorizedEngine(
            StaticDynamicGraph(families.clique(n)), algo, seed=0
        )
        res = eng.run(100_000)
        assert res.stabilized
        r0 = res.rounds
        for extra in range(20):  # keep stepping: state must not regress
            eng.step(r0 + 1 + extra)
            assert algo.converged(eng.state)

    def test_best_only_decreases(self):
        n = 16
        keys = uid_keys_random(n, 5)
        algo = BlindGossipBatched(keys)
        eng = VectorizedEngine(
            StaticDynamicGraph(families.ring(n)), algo, seed=0
        )
        prev = eng.state.best.copy()
        for r in range(1, 200):
            eng.step(r)
            assert (eng.state.best <= prev).all()
            prev = eng.state.best.copy()

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            BlindGossipBatched(np.array([1, 1, 2]))

    def test_key_count_checked(self):
        algo = BlindGossipBatched(np.array([1, 2, 3]))
        eng_graph = StaticDynamicGraph(families.ring(4))
        with pytest.raises(ValueError):
            VectorizedEngine(eng_graph, algo, seed=0)


class TestLowerBoundShape:
    @pytest.mark.slow
    def test_line_of_stars_slower_than_clique(self):
        """The Section VI construction is dramatically slower than a
        well-connected graph of the same size."""
        from repro.harness.experiments import uid_keys_with_min_at

        s = 4
        g = families.line_of_stars(s, s)  # n = 20
        keys = uid_keys_with_min_at(g.n, 0, 1)
        slow = np.median(
            [
                VectorizedEngine(
                    StaticDynamicGraph(g), BlindGossipBatched(keys), seed=t
                ).run(10**6).rounds
                for t in range(5)
            ]
        )
        clique = families.clique(g.n)
        fast = np.median(
            [
                VectorizedEngine(
                    StaticDynamicGraph(clique), BlindGossipBatched(keys), seed=t
                ).run(10**6).rounds
                for t in range(5)
            ]
        )
        assert slow > 3 * fast
