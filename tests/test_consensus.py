"""Tests for the leader-based consensus extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.bit_convergence import BitConvergenceConfig, draw_id_tags
from repro.algorithms.consensus import ConsensusBatched
from repro.core.batched import BatchedVectorizedEngine
from repro.core.vectorized import VectorizedEngine
from repro.graphs import families
from repro.graphs.dynamic import PeriodicRelabelDynamicGraph, StaticDynamicGraph
from repro.harness.experiments import uid_keys_random

CFG = BitConvergenceConfig(n_upper=16, delta_bound=4, beta=1.0)


def make_engine(n=16, seed=0, tau=None, proposals=None, graph=None, replicas=None):
    """A consensus run on ``VectorizedEngine``, or on
    ``BatchedVectorizedEngine`` over ``replicas`` trials."""
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
    if replicas is None:
        eng = VectorizedEngine(dg, algo, seed=seed)
    else:
        seeds = seed * replicas + np.arange(replicas)
        eng = BatchedVectorizedEngine(dg, algo, seeds=seeds)
    return eng, algo, keys, proposals


class TestConsensusProperties:
    """Agreement, validity and "values never invented" on the single-trial
    engine; the subclass below reruns every test on the batched engine."""

    #: ``None``: ``VectorizedEngine``; an int: that many batched replicas.
    REPLICAS = None

    def engine(self, **kwargs):
        return make_engine(replicas=self.REPLICAS, **kwargs)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_agreement(self, seed):
        eng, algo, _, _ = self.engine(seed=seed)
        res = eng.run(500_000)
        assert np.all(res.stabilized)
        decisions = algo.decisions(eng.state)
        assert (decisions == decisions[:, :1]).all()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_validity_decides_winner_proposal(self, seed):
        eng, algo, keys, proposals = self.engine(seed=seed)
        res = eng.run(500_000)
        assert np.all(res.stabilized)
        # The winner is the lexicographically smallest (tag, key) pair.
        tags = draw_id_tags(16, CFG, seed, unique=True)
        win = np.lexsort((keys, tags))[0]
        assert (algo.decisions(eng.state) == proposals[win]).all()

    def test_decided_alias(self):
        eng, algo, _, _ = self.engine(seed=4)
        assert not algo.decided(eng.state).any()
        eng.run(500_000)
        assert algo.decided(eng.state).all()

    def test_under_churn(self):
        eng, algo, _, _ = self.engine(seed=5, tau=1)
        res = eng.run(500_000)
        assert np.all(res.stabilized)
        decisions = algo.decisions(eng.state)
        assert (decisions == decisions[:, :1]).all()

    def test_duplicate_proposals_fine(self):
        proposals = np.array([7] * 8 + [9] * 8, dtype=np.int64)
        eng, algo, _, props = self.engine(seed=6, proposals=proposals)
        res = eng.run(500_000)
        assert np.all(res.stabilized)
        decisions = algo.decisions(eng.state)
        assert (decisions == decisions[:, :1]).all()
        assert np.isin(decisions, (7, 9)).all()

    def test_proposal_shape_validated(self):
        with pytest.raises(ValueError):
            self.engine(n=8, proposals=np.zeros(7))

    def test_values_never_invented(self):
        """Every intermediate carried value is someone's original proposal."""
        eng, algo, _, proposals = self.engine(seed=7)
        for r in range(1, 2000):
            eng.step(r)
            assert np.isin(eng.state.carried, proposals).all()
            if algo.converged(eng.state).all():
                break
        assert algo.converged(eng.state).all()


class TestConsensusPropertiesBatched(TestConsensusProperties):
    """The same properties on ``BatchedVectorizedEngine``, the engine that
    produces E18's table, at four replicas."""

    REPLICAS = 4
