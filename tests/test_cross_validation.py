"""Cross-validation: reference engine vs vectorized engine.

The two engines implement the same model semantics with different code
paths (per-node Python objects vs array kernels).  They cannot be compared
trace-for-trace (their RNG consumption orders differ), so we compare the
*distributions* of rounds-to-stabilize over repeated seeded trials: the
medians must agree within a generous tolerance.  A semantic divergence
(e.g. an acceptance-rule bug in one engine) shifts these distributions by
integer factors, far outside the tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.bit_convergence import (
    BitConvergenceConfig,
    BitConvergenceNode,
    BitConvergenceBatched,
    draw_id_tags,
)
from repro.algorithms.blind_gossip import BlindGossipBatched, make_blind_gossip_nodes
from repro.algorithms.ppush import PPushBatched, make_ppush_nodes
from repro.algorithms.push_pull import PushPullBatched, make_push_pull_nodes
from repro.core.engine import ReferenceEngine
from repro.core.monitor import all_leaders_are, rumor_complete
from repro.core.payload import UIDSpace
from repro.core.vectorized import VectorizedEngine
from repro.graphs import families
from repro.graphs.dynamic import StaticDynamicGraph

TRIALS = 15


def median_ratio(ref_rounds, vec_rounds):
    return float(np.median(ref_rounds)) / max(float(np.median(vec_rounds)), 1e-9)


class TestBlindGossipEquivalence:
    @pytest.mark.parametrize(
        "graph",
        [families.clique(16), families.double_star(5), families.ring(12)],
        ids=["clique", "double_star", "ring"],
    )
    def test_round_distributions_match(self, graph):
        n = graph.n
        dg = StaticDynamicGraph(graph)
        ref_rounds, vec_rounds = [], []
        for t in range(TRIALS):
            us = UIDSpace(n, seed=100 + t)
            nodes = make_blind_gossip_nodes(us)
            eng = ReferenceEngine(dg, nodes, seed=t)
            res = eng.run(200_000, all_leaders_are(us.min_uid()))
            assert res.stabilized
            ref_rounds.append(res.rounds)

            keys = np.array([us.uid_of(v)._key for v in range(n)], dtype=np.int64)
            veng = VectorizedEngine(dg, BlindGossipBatched(keys), seed=t)
            vres = veng.run(200_000)
            assert vres.stabilized
            vec_rounds.append(vres.rounds)
        assert 0.5 < median_ratio(ref_rounds, vec_rounds) < 2.0


class TestPushPullEquivalence:
    def test_round_distributions_match(self):
        graph = families.double_star(6)
        dg = StaticDynamicGraph(graph)
        ref_rounds, vec_rounds = [], []
        for t in range(TRIALS):
            us = UIDSpace(graph.n, seed=t)
            nodes = make_push_pull_nodes(us, sources={2})
            eng = ReferenceEngine(dg, nodes, seed=t)
            res = eng.run(300_000, rumor_complete)
            assert res.stabilized
            ref_rounds.append(res.rounds)

            veng = VectorizedEngine(dg, PushPullBatched(np.array([2])), seed=t)
            vres = veng.run(300_000)
            assert vres.stabilized
            vec_rounds.append(vres.rounds)
        assert 0.5 < median_ratio(ref_rounds, vec_rounds) < 2.0


class TestPPushEquivalence:
    def test_round_distributions_match(self):
        graph = families.star(24)
        dg = StaticDynamicGraph(graph)
        ref_rounds, vec_rounds = [], []
        for t in range(TRIALS):
            us = UIDSpace(graph.n, seed=t)
            nodes = make_ppush_nodes(us, sources={0})
            eng = ReferenceEngine(dg, nodes, seed=t)
            res = eng.run(100_000, rumor_complete)
            assert res.stabilized
            ref_rounds.append(res.rounds)

            veng = VectorizedEngine(dg, PPushBatched(np.array([0])), seed=t)
            vres = veng.run(100_000)
            assert vres.stabilized
            vec_rounds.append(vres.rounds)
        # PPUSH on a star is nearly deterministic (one leaf per round), so
        # the distributions should be very close.
        assert 0.7 < median_ratio(ref_rounds, vec_rounds) < 1.5


class TestBitConvergenceEquivalence:
    def test_round_distributions_match(self):
        graph = families.random_regular(16, 4, seed=0)
        dg = StaticDynamicGraph(graph)
        cfg = BitConvergenceConfig(n_upper=16, delta_bound=4, beta=1.0)
        ref_rounds, vec_rounds = [], []
        for t in range(TRIALS):
            us = UIDSpace(graph.n, seed=t)
            tags = draw_id_tags(graph.n, cfg, seed=t, unique=True)
            nodes = [
                BitConvergenceNode(v, us.uid_of(v), int(tags[v]), cfg)
                for v in range(graph.n)
            ]
            winner = min(nodes, key=lambda nd: nd.committed_pair).uid
            eng = ReferenceEngine(dg, nodes, seed=t)
            res = eng.run(300_000, all_leaders_are(winner))
            assert res.stabilized
            ref_rounds.append(res.rounds)

            keys = np.array([us.uid_of(v)._key for v in range(graph.n)], dtype=np.int64)
            algo = BitConvergenceBatched(keys, cfg, tag_seed=t, unique_tags=True)
            veng = VectorizedEngine(dg, algo, seed=t)
            vres = veng.run(300_000)
            assert vres.stabilized
            vec_rounds.append(vres.rounds)
        # Vectorized convergence additionally requires pending==target
        # (strictly absorbing), so allow a wider band; a semantic bug
        # would blow far past it.
        assert 0.4 < median_ratio(ref_rounds, vec_rounds) < 2.5
