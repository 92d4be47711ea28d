"""Tests for the leader-based consensus extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.bit_convergence import BitConvergenceConfig, draw_id_tags
from repro.algorithms.consensus import ConsensusBatched
from repro.core.vectorized import VectorizedEngine
from repro.graphs import families
from repro.graphs.dynamic import PeriodicRelabelDynamicGraph, StaticDynamicGraph
from repro.harness.experiments import uid_keys_random

CFG = BitConvergenceConfig(n_upper=16, delta_bound=4, beta=1.0)


def make_engine(n=16, seed=0, tau=None, proposals=None, graph=None):
    g = graph if graph is not None else families.random_regular(n, 4, seed=seed)
    keys = uid_keys_random(n, seed)
    proposals = (
        proposals
        if proposals is not None
        else np.arange(100, 100 + n, dtype=np.int64)
    )
    algo = ConsensusBatched(
        keys, CFG, proposals, tag_seed=seed, unique_tags=True
    )
    dg = (
        StaticDynamicGraph(g)
        if tau is None
        else PeriodicRelabelDynamicGraph(g, tau, seed=seed)
    )
    return VectorizedEngine(dg, algo, seed=seed), algo, keys, proposals


class TestConsensusProperties:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_agreement(self, seed):
        eng, algo, _, _ = make_engine(seed=seed)
        res = eng.run(500_000)
        assert res.stabilized
        decisions = algo.decisions(eng.state)[0]
        assert np.unique(decisions).size == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_validity_decides_winner_proposal(self, seed):
        eng, algo, keys, proposals = make_engine(seed=seed)
        res = eng.run(500_000)
        assert res.stabilized
        # The winner is the lexicographically smallest (tag, key) pair.
        tags = draw_id_tags(16, CFG, seed, unique=True)
        win = np.lexsort((keys, tags))[0]
        assert (algo.decisions(eng.state)[0] == proposals[win]).all()

    def test_decided_alias(self):
        eng, algo, _, _ = make_engine(seed=4)
        assert not algo.decided(eng.state)[0]
        eng.run(500_000)
        assert algo.decided(eng.state)[0]

    def test_under_churn(self):
        eng, algo, _, _ = make_engine(seed=5, tau=1)
        res = eng.run(500_000)
        assert res.stabilized
        assert np.unique(algo.decisions(eng.state)[0]).size == 1

    def test_duplicate_proposals_fine(self):
        proposals = np.array([7] * 8 + [9] * 8, dtype=np.int64)
        eng, algo, _, props = make_engine(seed=6, proposals=proposals)
        res = eng.run(500_000)
        assert res.stabilized
        decided = np.unique(algo.decisions(eng.state)[0])
        assert decided.size == 1 and decided[0] in (7, 9)

    def test_proposal_shape_validated(self):
        keys = uid_keys_random(8, 0)
        algo = ConsensusBatched(keys, CFG, np.zeros(7))
        with pytest.raises(ValueError):
            VectorizedEngine(
                StaticDynamicGraph(families.random_regular(8, 3, seed=0)),
                algo,
                seed=0,
            )

    def test_reference_protocol_agreement_and_validity(self):
        from repro.algorithms.consensus import make_consensus_nodes
        from repro.core.engine import ReferenceEngine
        from repro.core.payload import UIDSpace

        n = 10
        g = families.random_regular(n, 3, seed=0)
        us = UIDSpace(n, seed=1)
        cfg = BitConvergenceConfig(n_upper=n, delta_bound=3, beta=1.0)
        proposals = [f"v{i}" for i in range(n)]
        nodes = make_consensus_nodes(us, cfg, proposals, seed=2, unique_tags=True)
        winner = min(nodes, key=lambda nd: nd.smallest_pair)
        expected_decision = winner.decision
        eng = ReferenceEngine(StaticDynamicGraph(g), nodes, seed=3)
        res = eng.run(
            300_000,
            lambda ps: all(p.leader == winner.uid for p in ps),
        )
        assert res.stabilized
        assert all(p.decision == expected_decision for p in nodes)
        assert expected_decision in proposals  # validity

    def test_reference_protocol_message_within_budget(self):
        from repro.algorithms.consensus import ConsensusNode
        from repro.core.payload import PayloadBudget, UID

        cfg = BitConvergenceConfig(n_upper=64, delta_bound=8, beta=2.0)
        node = ConsensusNode(0, UID(1), id_tag=5, config=cfg, proposal=42)
        PayloadBudget(n_upper=64).validate(node.compose(1))

    def test_values_never_invented(self):
        """Every intermediate carried value is someone's original proposal."""
        eng, algo, _, proposals = make_engine(seed=7)
        valid = set(proposals.tolist())
        for r in range(1, 2000):
            eng.step(r)
            assert set(eng.state.carried[0].tolist()) <= valid
            if algo.converged(eng.state):
                break
        assert algo.converged(eng.state)
