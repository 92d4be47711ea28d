"""Tests for PPUSH rumor spreading at b=1 (Section V)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.ppush import (
    PPushNode,
    PPushBatched,
    TAG_INFORMED,
    TAG_UNINFORMED,
    make_ppush_nodes,
)
from repro.core.engine import ReferenceEngine
from repro.core.monitor import rumor_complete
from repro.core.payload import Message, UID, UIDSpace
from repro.core.protocol import RoundView
from repro.core.vectorized import VectorizedEngine
from repro.graphs import families
from repro.graphs.dynamic import StaticDynamicGraph


def view(neighbors, tags, rng=None):
    return RoundView(
        local_round=1,
        neighbors=np.asarray(neighbors, dtype=np.int64),
        neighbor_tags=np.asarray(tags, dtype=np.int64),
        rng=rng or np.random.default_rng(0),
    )


class TestNodeProtocol:
    def test_advertises_status(self):
        rng = np.random.default_rng(0)
        assert PPushNode(0, UID(1), True).choose_tag(1, rng) == TAG_INFORMED
        assert PPushNode(0, UID(1), False).choose_tag(1, rng) == TAG_UNINFORMED

    def test_uninformed_only_receives(self):
        node = PPushNode(0, UID(1), informed=False)
        assert node.decide(view([1, 2], [TAG_UNINFORMED, TAG_UNINFORMED])) is None

    def test_informed_targets_uninformed_only(self):
        node = PPushNode(0, UID(1), informed=True)
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = node.decide(
                view([1, 2, 3], [TAG_INFORMED, TAG_UNINFORMED, TAG_INFORMED], rng)
            )
            assert t == 2

    def test_informed_with_no_uninformed_neighbors_idles(self):
        node = PPushNode(0, UID(1), informed=True)
        assert node.decide(view([1, 2], [TAG_INFORMED, TAG_INFORMED])) is None

    def test_connection_transfers_rumor(self):
        a = PPushNode(0, UID(1), informed=True)
        b = PPushNode(1, UID(2), informed=False)
        b.deliver(0, a.compose(1))
        a.deliver(1, b.compose(0))
        assert b.informed and a.informed


class TestReferenceConvergence:
    @pytest.mark.parametrize(
        "graph",
        [families.clique(12), families.star(12), families.double_star(5)],
        ids=["clique", "star", "double_star"],
    )
    def test_rumor_reaches_all(self, graph):
        us = UIDSpace(graph.n, seed=0)
        nodes = make_ppush_nodes(us, sources={0})
        eng = ReferenceEngine(StaticDynamicGraph(graph), nodes, seed=1)
        res = eng.run(50_000, rumor_complete)
        assert res.stabilized


class TestVectorized:
    def test_faster_than_blind_push_pull_on_double_star(self):
        """PPUSH's focused proposals beat blind PUSH-PULL where Δ is large."""
        from repro.algorithms.push_pull import PushPullBatched

        base = families.double_star(16)
        dg = StaticDynamicGraph(base)
        ppush = np.median(
            [
                VectorizedEngine(
                    dg, PPushBatched(np.array([2])), seed=t
                ).run(10**6).rounds
                for t in range(5)
            ]
        )
        blind = np.median(
            [
                VectorizedEngine(
                    dg, PushPullBatched(np.array([2])), seed=t
                ).run(10**6).rounds
                for t in range(5)
            ]
        )
        assert ppush * 2 < blind

    def test_star_completion_near_linear(self):
        # Informed hub can inform exactly one leaf per round.
        n = 33
        algo = PPushBatched(np.array([0]))
        eng = VectorizedEngine(StaticDynamicGraph(families.star(n)), algo, seed=0)
        res = eng.run(10_000)
        assert res.stabilized
        assert n - 1 <= res.rounds <= 2 * n

    def test_informed_monotone(self):
        n = 24
        algo = PPushBatched(np.array([0]))
        eng = VectorizedEngine(
            StaticDynamicGraph(families.random_regular(n, 4, seed=1)), algo, seed=0
        )
        prev = 1
        for r in range(1, 5000):
            eng.step(r)
            cur = algo.informed_count(eng.state)[0]
            assert cur >= prev
            prev = cur
            if cur == n:
                break
        assert prev == n

    def test_no_proposals_between_informed(self):
        """In PPUSH every connection strictly grows the informed set."""
        n = 20
        algo = PPushBatched(np.array([0]))
        eng = VectorizedEngine(
            StaticDynamicGraph(families.clique(n)), algo, seed=0
        )
        growth = []

        def on_conn(r, winners, acceptors):
            growth.append(acceptors.size)

        eng.on_connections = on_conn
        before = algo.informed_count(eng.state)[0]
        eng.step(1)
        after = algo.informed_count(eng.state)[0]
        assert after - before == growth[0]
