"""Property-based tests of whole-model invariants (hypothesis-driven).

These cut across modules: any algorithm on any topology under any churn
must respect the mobile telephone model's structural rules, and the
monotone quantities each algorithm's analysis relies on must hold on
randomly generated executions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.bit_convergence import (
    BitConvergenceConfig,
    BitConvergenceBatched,
)
from repro.algorithms.blind_gossip import BlindGossipBatched, make_blind_gossip_nodes
from repro.algorithms.ppush import PPushBatched
from repro.core.engine import ReferenceEngine
from repro.core.monitor import all_leaders_are
from repro.core.payload import UIDSpace
from repro.core.vectorized import VectorizedEngine
from repro.graphs import families
from repro.graphs.dynamic import (
    PeriodicRelabelDynamicGraph,
    ScheduleDynamicGraph,
    StaticDynamicGraph,
)
from repro.graphs.validation import check_stability_contract
from repro.harness.experiments import uid_keys_random


@st.composite
def small_topologies(draw):
    """A connected topology from a random family at a random small size."""
    kind = draw(st.sampled_from(["clique", "ring", "star", "double_star", "regular", "gnp"]))
    seed = draw(st.integers(0, 10_000))
    if kind == "clique":
        return families.clique(draw(st.integers(3, 12)))
    if kind == "ring":
        return families.ring(draw(st.integers(3, 12)))
    if kind == "star":
        return families.star(draw(st.integers(3, 12)))
    if kind == "double_star":
        return families.double_star(draw(st.integers(1, 5)))
    if kind == "regular":
        n = draw(st.sampled_from([6, 8, 10, 12]))
        return families.random_regular(n, 3, seed=seed)
    return families.connected_erdos_renyi(draw(st.integers(4, 10)), 0.5, seed=seed)


class TestTraceInvariantsEverywhere:
    @given(small_topologies(), st.integers(0, 1000))
    @settings(max_examples=25)
    def test_blind_gossip_trace_obeys_model(self, graph, seed):
        us = UIDSpace(graph.n, seed=seed)
        nodes = make_blind_gossip_nodes(us)
        eng = ReferenceEngine(
            StaticDynamicGraph(graph), nodes, seed=seed, collect_trace=True
        )
        eng.run(15, lambda ps: False)
        assert eng.trace.connection_participants_ok()
        for rec in eng.trace.rounds:
            # Proposals go to neighbors; proposers never accept.
            proposers = set(int(s) for s, _ in rec.proposals)
            for s, t in rec.proposals:
                assert graph.has_edge(int(s), int(t))
            for s, t in rec.connections:
                assert int(t) not in proposers

    @given(small_topologies(), st.integers(0, 1000), st.integers(1, 4))
    @settings(max_examples=20)
    def test_relabel_churn_preserves_contract(self, graph, seed, tau):
        dg = PeriodicRelabelDynamicGraph(graph, tau, seed=seed)
        check_stability_contract(dg, 4 * tau + 3)


class TestMinUidMonotonicityEverywhere:
    @given(small_topologies(), st.integers(0, 1000))
    @settings(max_examples=20)
    def test_blind_gossip_converges_and_is_absorbing(self, graph, seed):
        n = graph.n
        keys = uid_keys_random(n, seed)
        algo = BlindGossipBatched(keys)
        eng = VectorizedEngine(StaticDynamicGraph(graph), algo, seed=seed)
        res = eng.run(500_000)
        assert res.stabilized
        eng.step(res.rounds + 1)
        assert algo.converged(eng.state)

    @given(small_topologies(), st.integers(0, 1000))
    @settings(max_examples=15)
    def test_ppush_informed_set_monotone(self, graph, seed):
        algo = PPushBatched(np.array([0]))
        eng = VectorizedEngine(StaticDynamicGraph(graph), algo, seed=seed)
        prev = 1
        for r in range(1, 300):
            eng.step(r)
            cur = algo.informed_count(eng.state)[0]
            assert cur >= prev
            prev = cur
            if cur == graph.n:
                break


class TestBitConvergenceEverywhere:
    @given(small_topologies(), st.integers(0, 1000))
    @settings(max_examples=12)
    def test_converges_with_unique_tags(self, graph, seed):
        n = graph.n
        keys = uid_keys_random(n, seed)
        cfg = BitConvergenceConfig(
            n_upper=max(n, 4), delta_bound=graph.max_degree, beta=2.0
        )
        algo = BitConvergenceBatched(keys, cfg, tag_seed=seed, unique_tags=True)
        eng = VectorizedEngine(StaticDynamicGraph(graph), algo, seed=seed)
        res = eng.run(500_000)
        assert res.stabilized

    @given(small_topologies(), st.integers(0, 1000))
    @settings(max_examples=10)
    def test_max_difference_bit_monotone_under_schedule_churn(self, graph, seed):
        n = graph.n
        rng = np.random.default_rng(seed)
        variants = [graph.relabel(rng.permutation(n)) for _ in range(3)]
        dg = ScheduleDynamicGraph(variants, tau=2, cycle=True)
        keys = uid_keys_random(n, seed)
        cfg = BitConvergenceConfig(
            n_upper=max(n, 4), delta_bound=graph.max_degree, beta=1.5
        )
        algo = BitConvergenceBatched(keys, cfg, tag_seed=seed, unique_tags=True)
        eng = VectorizedEngine(dg, algo, seed=seed)
        prev = 0
        for r in range(1, 600):
            eng.step(r)
            if r % cfg.phase_len:
                continue
            b = algo.max_difference_bit(eng.state)[0]
            if b is None:
                break
            assert b >= prev
            prev = b
