"""Edge cases across module boundaries that no other file pins down."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.payload import UIDSpace
from repro.graphs import families
from repro.graphs.dynamic import StaticDynamicGraph
from repro.graphs.static import Graph


class TestTinyNetworks:
    def test_two_node_blind_gossip(self):
        """The smallest possible election: a single edge."""
        from repro.algorithms import BlindGossipBatched
        from repro.core import VectorizedEngine

        keys = np.array([5, 3], dtype=np.int64)
        eng = VectorizedEngine(
            StaticDynamicGraph(families.path(2)), BlindGossipBatched(keys), seed=0
        )
        res = eng.run(10_000)
        assert res.stabilized
        assert (eng.state.best == 3).all()

    def test_two_node_bit_convergence(self):
        from repro.algorithms import BitConvergenceConfig, BitConvergenceBatched
        from repro.core import VectorizedEngine

        cfg = BitConvergenceConfig(n_upper=2, delta_bound=1, beta=2.0)
        keys = np.array([5, 3], dtype=np.int64)
        eng = VectorizedEngine(
            StaticDynamicGraph(families.path(2)),
            BitConvergenceBatched(keys, cfg, tag_seed=0, unique_tags=True),
            seed=0,
        )
        assert eng.run(50_000).stabilized

    def test_single_node_quorum(self):
        """n=1: already stabilized at round 1 (its own leader)."""
        from repro.algorithms import BlindGossipBatched
        from repro.core import VectorizedEngine

        eng = VectorizedEngine(
            StaticDynamicGraph(Graph(1, [])),
            BlindGossipBatched(np.array([7], dtype=np.int64)),
            seed=0,
        )
        res = eng.run(5)
        assert res.stabilized and res.rounds == 1


class TestUIDSpaceProperties:
    @given(st.integers(2, 60), st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_winner_consistent_with_ordering(self, n, seed):
        space = UIDSpace(n, seed=seed)
        uids = space.all_uids()
        assert min(uids) == space.min_uid()
        assert uids[space.winner_vertex()] == space.min_uid()

    @given(st.integers(2, 40), st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_total_order_no_duplicates(self, n, seed):
        uids = UIDSpace(n, seed=seed).all_uids()
        s = sorted(uids)
        for a, b in zip(s, s[1:]):
            assert a < b  # strict: no duplicate keys


class TestGraphUnionProperties:
    @given(st.integers(2, 8), st.integers(2, 8), st.integers(0, 1000))
    @settings(max_examples=30)
    def test_union_preserves_components_structure(self, n1, n2, seed):
        rng = np.random.default_rng(seed)
        g1 = families.clique(n1)
        g2 = families.ring(max(3, n2))
        bridge = (int(rng.integers(0, g1.n)), int(rng.integers(0, g2.n)))
        u = g1.union(g2, [bridge])
        assert u.n == g1.n + g2.n
        assert u.num_edges == g1.num_edges + g2.num_edges + 1
        assert u.is_connected()
        # Degrees are preserved except at the bridge endpoints.
        for v in range(g1.n):
            expected = g1.degree(v) + (1 if v == bridge[0] else 0)
            assert u.degree(v) == expected
        for v in range(g2.n):
            expected = g2.degree(v) + (1 if v == bridge[1] else 0)
            assert u.degree(g1.n + v) == expected


class TestEngineCheckEvery:
    def test_check_every_never_misses_absorbing_state(self):
        """Stabilization is absorbing, so a coarse check stride can only
        delay the report, never lose it."""
        from repro.algorithms import BlindGossipBatched
        from repro.core import VectorizedEngine
        from repro.harness.experiments import uid_keys_random

        keys = uid_keys_random(16, 0)
        g = families.random_regular(16, 4, seed=0)
        exact = VectorizedEngine(
            StaticDynamicGraph(g), BlindGossipBatched(keys), seed=1
        ).run(10_000, check_every=1)
        coarse = VectorizedEngine(
            StaticDynamicGraph(g), BlindGossipBatched(keys), seed=1
        ).run(10_000, check_every=7)
        assert exact.stabilized and coarse.stabilized
        assert coarse.rounds >= exact.rounds
        assert coarse.rounds % 7 == 0
        assert coarse.rounds - exact.rounds < 7


class TestBudgetOverride:
    def test_tight_budget_rejects_bit_convergence_payload(self):
        """A budget tighter than Section IV's rejects the k-bit tags."""
        from repro.algorithms import BitConvergenceConfig, make_bit_convergence_nodes
        from repro.core.engine import ReferenceEngine
        from repro.core.payload import BudgetExceeded, PayloadBudget

        n = 8
        g = families.clique(n)
        us = UIDSpace(n, seed=0)
        cfg = BitConvergenceConfig(n_upper=n, delta_bound=n - 1, beta=2.0)
        nodes = make_bit_convergence_nodes(us, cfg, seed=1, unique_tags=True)
        tight = PayloadBudget(n_upper=n, polylog_power=0, polylog_constant=1.0)
        eng = ReferenceEngine(StaticDynamicGraph(g), nodes, seed=2, budget=tight)
        with pytest.raises(BudgetExceeded):
            eng.run(200, lambda ps: False)


class TestStaticDynamicEquivalence:
    @given(st.integers(0, 500))
    @settings(max_examples=20)
    def test_schedule_of_one_equals_static(self, seed):
        """A one-graph schedule behaves identically to StaticDynamicGraph."""
        from repro.graphs.dynamic import ScheduleDynamicGraph

        g = families.random_regular(10, 3, seed=seed)
        static = StaticDynamicGraph(g)
        sched = ScheduleDynamicGraph([g], tau=5)
        for r in (1, 3, 11, 100):
            assert static.graph_at(r) == sched.graph_at(r)
