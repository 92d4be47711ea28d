"""Tests for b=0 PUSH-PULL rumor spreading (Corollary VI.6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.push_pull import (
    PushPullNode,
    PushPullBatched,
    make_push_pull_nodes,
)
from repro.core.engine import ReferenceEngine
from repro.core.monitor import rumor_complete
from repro.core.payload import Message, UID, UIDSpace
from repro.core.vectorized import VectorizedEngine
from repro.graphs import families
from repro.graphs.dynamic import PeriodicRelabelDynamicGraph, StaticDynamicGraph


class TestNodeProtocol:
    def test_informed_flag(self):
        assert PushPullNode(0, UID(1), informed=True).informed
        assert not PushPullNode(0, UID(1), informed=False).informed

    def test_pull_informs(self):
        node = PushPullNode(0, UID(1), informed=False)
        node.deliver(1, Message(data=True))
        assert node.informed

    def test_uninformed_message_harmless(self):
        node = PushPullNode(0, UID(1), informed=False)
        node.deliver(1, Message(data=False))
        assert not node.informed

    def test_knowledge_never_lost(self):
        node = PushPullNode(0, UID(1), informed=True)
        node.deliver(1, Message(data=False))
        assert node.informed

    def test_factory_sources(self):
        us = UIDSpace(5, seed=0)
        nodes = make_push_pull_nodes(us, sources={2, 4})
        assert [n.informed for n in nodes] == [False, False, True, False, True]


class TestReferenceConvergence:
    @pytest.mark.parametrize(
        "graph",
        [families.clique(12), families.path(10), families.double_star(4)],
        ids=["clique", "path", "double_star"],
    )
    def test_rumor_reaches_all(self, graph):
        us = UIDSpace(graph.n, seed=0)
        nodes = make_push_pull_nodes(us, sources={0})
        eng = ReferenceEngine(StaticDynamicGraph(graph), nodes, seed=1)
        res = eng.run(100_000, rumor_complete)
        assert res.stabilized


class TestVectorized:
    def test_completes_and_monotone(self):
        n = 24
        algo = PushPullBatched(np.array([0]))
        eng = VectorizedEngine(
            StaticDynamicGraph(families.random_regular(n, 3, seed=0)), algo, seed=1
        )
        prev = 1
        for r in range(1, 20_000):
            eng.step(r)
            cur = algo.informed_count(eng.state)[0]
            assert cur >= prev
            prev = cur
            if cur == n:
                break
        assert prev == n

    def test_multiple_sources(self):
        algo = PushPullBatched(np.array([0, 5, 9]))
        eng = VectorizedEngine(
            StaticDynamicGraph(families.ring(10)), algo, seed=1
        )
        assert algo.informed_count(eng.state)[0] == 3
        res = eng.run(50_000)
        assert res.stabilized

    def test_under_churn(self):
        base = families.double_star(6)
        algo = PushPullBatched(np.array([2]))
        eng = VectorizedEngine(
            PeriodicRelabelDynamicGraph(base, 1, seed=2), algo, seed=1
        )
        assert eng.run(200_000).stabilized

    def test_empty_sources_rejected(self):
        with pytest.raises(ValueError):
            PushPullBatched(np.array([], dtype=np.int64))


class TestDirectionRestriction:
    """The A3 ablation: PUSH-only / PULL-only semantics."""

    def test_invalid_direction_rejected(self):
        with pytest.raises(ValueError):
            PushPullBatched(np.array([0]), direction="sideways")
        from repro.core.payload import UID

        with pytest.raises(ValueError):
            PushPullNode(0, UID(1), informed=True, direction="sideways")

    def test_push_only_exchange_semantics(self):
        algo = PushPullBatched(np.array([0]), direction="push")
        state = algo.init_state(4, np.array([0]))
        # Connection (proposer=1 uninformed, acceptor=0 informed): under
        # push-only the informed acceptor must NOT inform its proposer.
        algo.exchange(state, np.array([1]), np.array([0]))
        assert not state.informed[0, 1]
        # Connection (proposer=0 informed, acceptor=2): push works.
        algo.exchange(state, np.array([0]), np.array([2]))
        assert state.informed[0, 2]

    def test_pull_only_exchange_semantics(self):
        algo = PushPullBatched(np.array([0]), direction="pull")
        state = algo.init_state(4, np.array([0]))
        # (proposer=0 informed, acceptor=2): push forbidden.
        algo.exchange(state, np.array([0]), np.array([2]))
        assert not state.informed[0, 2]
        # (proposer=1, acceptor=0 informed): pull works.
        algo.exchange(state, np.array([1]), np.array([0]))
        assert state.informed[0, 1]

    def test_node_push_only_rejects_pull(self):
        from repro.core.payload import Message, UID

        node = PushPullNode(0, UID(1), informed=False, direction="push")
        node._proposed_to = 5  # we proposed to 5; its reply is a PULL
        node.deliver(5, Message(data=True))
        assert not node.informed
        node._proposed_to = None  # 7 proposed to us; its rumor is a PUSH
        node.deliver(7, Message(data=True))
        assert node.informed

    def test_node_pull_only_rejects_push(self):
        from repro.core.payload import Message, UID

        node = PushPullNode(0, UID(1), informed=False, direction="pull")
        node._proposed_to = None
        node.deliver(7, Message(data=True))  # incoming push: rejected
        assert not node.informed
        node._proposed_to = 5
        node.deliver(5, Message(data=True))  # pull from our acceptor: ok
        assert node.informed

    @pytest.mark.parametrize("direction", ["push", "pull"])
    def test_single_direction_still_completes(self, direction):
        g = families.random_regular(16, 4, seed=0)
        algo = PushPullBatched(np.array([0]), direction=direction)
        eng = VectorizedEngine(StaticDynamicGraph(g), algo, seed=1)
        assert eng.run(200_000).stabilized

    def test_both_dominates_single_directions(self):
        g = families.double_star(12)
        medians = {}
        for direction in ("both", "push", "pull"):
            rounds = [
                VectorizedEngine(
                    StaticDynamicGraph(g),
                    PushPullBatched(np.array([2]), direction=direction),
                    seed=t,
                ).run(10**6).rounds
                for t in range(7)
            ]
            medians[direction] = np.median(rounds)
        assert medians["both"] <= medians["push"]
        assert medians["both"] <= medians["pull"]
