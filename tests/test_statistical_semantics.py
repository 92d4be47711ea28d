"""Statistical tests of the randomized model semantics.

These verify the *distributions* the model specifies — uniform proposal
targets, uniform acceptance among arrivals, fair coins — using chi-square
goodness-of-fit on engine-level runs. Sample sizes and significance are
chosen so flake probability is negligible (p-value floors around 1e-6
equivalents via generous tolerance bands plus fixed seeds).
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.core.engine import ReferenceEngine
from repro.core.payload import Message, UIDSpace
from repro.core.protocol import NodeProtocol
from repro.graphs import families
from repro.graphs.dynamic import StaticDynamicGraph
from repro.util.csrops import build_csr, segmented_random_pick, segmented_uniform_accept_pairs


def chi_square_uniform_ok(counts: np.ndarray, alpha: float = 1e-6) -> bool:
    """True when counts are consistent with a uniform multinomial."""
    counts = np.asarray(counts, dtype=np.float64)
    expected = np.full_like(counts, counts.sum() / counts.size)
    stat, p = stats.chisquare(counts, expected)
    return p > alpha


def row0_pick(pairs):
    """Row 0's pick: the star center picks in every call, first among the
    ascending senders."""
    senders, targets = pairs
    assert senders[0] == 0
    return targets[0]


class TestCsrPickDistribution:
    def test_unmasked_uniform_over_neighbors(self):
        # Vertex 0 adjacent to 1..6.
        indptr, indices = build_csr(7, np.array([[0, i] for i in range(1, 7)]))
        rng = np.random.default_rng(0)
        counts = np.zeros(7, dtype=int)
        for _ in range(12_000):
            counts[row0_pick(segmented_random_pick(indptr, indices, rng))] += 1
        assert chi_square_uniform_ok(counts[1:7])

    def test_masked_uniform_over_eligible(self):
        indptr, indices = build_csr(7, np.array([[0, i] for i in range(1, 7)]))
        rng = np.random.default_rng(1)
        mask = np.array([False, True, False, True, True, False, True])
        counts = np.zeros(7, dtype=int)
        for _ in range(12_000):
            pairs = segmented_random_pick(indptr, indices, rng, neighbor_mask=mask)
            counts[row0_pick(pairs)] += 1
        assert counts[2] == 0 and counts[5] == 0
        assert chi_square_uniform_ok(counts[[1, 3, 4, 6]])

    def test_flat_mask_uniform_over_entries(self):
        indptr, indices = build_csr(6, np.array([[0, i] for i in range(1, 6)]))
        rng = np.random.default_rng(2)
        # Row 0 holds the first five flat entries (its neighbors 1..5);
        # allow only entries 0, 2, 3 of that row, nothing elsewhere.
        flat = np.zeros(indices.size, dtype=bool)
        flat[[0, 2, 3]] = True
        counts = np.zeros(6, dtype=int)
        for _ in range(9_000):
            pairs = segmented_random_pick(indptr, indices, rng, flat_mask=flat)
            counts[row0_pick(pairs)] += 1
        allowed = indices[[0, 2, 3]]
        forbidden = indices[[1, 4]]
        assert chi_square_uniform_ok(counts[allowed])
        assert counts[forbidden].sum() == 0


class TestAcceptDistribution:
    def test_uniform_among_five_proposers(self):
        rng = np.random.default_rng(3)
        senders = np.arange(5)
        targets = np.full(5, 5)
        counts = np.zeros(5, dtype=int)
        for _ in range(10_000):
            counts[segmented_uniform_accept_pairs(senders, targets, rng)[1][0]] += 1
        assert chi_square_uniform_ok(counts)

    def test_independent_across_targets(self):
        rng = np.random.default_rng(4)
        senders = np.array([0, 1, 2, 3])
        targets = np.array([4, 4, 5, 5])
        joint = np.zeros((2, 2), dtype=int)
        for _ in range(8_000):
            receivers, winners = segmented_uniform_accept_pairs(senders, targets, rng)
            assert receivers.tolist() == [4, 5]
            joint[winners[0], winners[1] - 2] += 1
        # All four joint outcomes equally likely.
        assert chi_square_uniform_ok(joint.ravel())


class _StarLeafSenders(NodeProtocol):
    """Leaves always propose to the hub; the hub listens."""

    tag_length = 0

    def decide(self, view):
        return None if self.node_id == 0 else 0

    def compose(self, peer):
        return Message(data=self.node_id)

    def deliver(self, peer, message):
        pass


class TestReferenceEngineAcceptance:
    def test_hub_accepts_uniformly(self):
        """The model's acceptance rule, measured at the engine level."""
        g = families.star(6)
        us = UIDSpace(6, seed=0)
        protos = [_StarLeafSenders(v, us.uid_of(v)) for v in range(6)]
        eng = ReferenceEngine(StaticDynamicGraph(g), protos, seed=7, collect_trace=True)
        eng.run(6_000, lambda ps: False)
        winners = np.zeros(6, dtype=int)
        for rec in eng.trace.rounds:
            assert rec.connections.shape[0] == 1
            winners[rec.connections[0, 0]] += 1
        assert chi_square_uniform_ok(winners[1:])


class TestCoinFairness:
    def test_blind_gossip_send_rate(self):
        """The vectorized sender mask is a fair coin."""
        from repro.algorithms.blind_gossip import BlindGossipBatched

        algo = BlindGossipBatched(np.arange(10, dtype=np.int64))
        state = algo.init_state(10, np.array([0]))
        rng = np.random.default_rng(5)
        total = np.zeros(10, dtype=int)
        rounds = 4_000
        active = np.ones(10, dtype=bool)
        lr = np.ones(10, dtype=np.int64)
        tags = np.zeros(10, dtype=np.int64)
        for _ in range(rounds):
            total += algo.senders(state, tags, lr, active, rng)[0]
        freq = total / rounds
        assert np.all(np.abs(freq - 0.5) < 0.05)
