"""Tests for the chunked large-n engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.blind_gossip import BlindGossipBatched
from repro.core.largen import DEFAULT_CHUNK_NODES, LargeNEngine
from repro.core.vectorized import VectorizedEngine
from repro.graphs import families
from repro.graphs.dynamic import StaticDynamicGraph
from repro.harness.experiments import uid_keys_random


def _engine(n, seed, *, degree=4, chunk_nodes=DEFAULT_CHUNK_NODES):
    g = families.random_regular(n, degree, seed=7)
    keys = uid_keys_random(n, 11)
    return LargeNEngine(
        StaticDynamicGraph(g),
        BlindGossipBatched(keys),
        seed=seed,
        chunk_nodes=chunk_nodes,
    )


class TestConstruction:
    def test_requires_sparse_compatible_algorithm(self):
        from repro.algorithms.ppush import PPushBatched

        g = families.random_regular(16, 4, seed=7)
        with pytest.raises(ValueError, match="sparse_compatible"):
            LargeNEngine(
                StaticDynamicGraph(g), PPushBatched(np.arange(4)), seed=0
            )

    def test_rejects_tagged_algorithms(self):
        class Tagged(BlindGossipBatched):
            tag_length = 1

        g = families.random_regular(16, 4, seed=7)
        with pytest.raises(ValueError, match="tags"):
            LargeNEngine(
                StaticDynamicGraph(g), Tagged(uid_keys_random(16, 0)), seed=0
            )

    def test_rejects_adaptive_graphs(self):
        from repro.graphs.adversary import PackingAdversary

        g = families.random_regular(16, 4, seed=7)
        with pytest.raises(ValueError, match="[Aa]daptive"):
            LargeNEngine(
                PackingAdversary(g), BlindGossipBatched(uid_keys_random(16, 0))
            )

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_nodes"):
            _engine(16, 0, chunk_nodes=0)

    def test_rejects_bad_max_rounds(self):
        with pytest.raises(ValueError, match="max_rounds"):
            _engine(16, 0).run(0)

    def test_initial_state_matches_vectorized(self):
        """Same seed => bit-identical starting state as the vectorized
        engine (both derive it from the "vec-init" stream)."""
        g = families.random_regular(64, 4, seed=7)
        keys = uid_keys_random(64, 11)
        a = LargeNEngine(StaticDynamicGraph(g), BlindGossipBatched(keys), seed=3)
        b = VectorizedEngine(StaticDynamicGraph(g), BlindGossipBatched(keys), seed=3)
        assert np.array_equal(a.state.best, b.state.best)
        assert a.state.target == b.state.target


class TestRuns:
    def test_stabilizes_and_elects_minimum(self):
        eng = _engine(512, 0, chunk_nodes=128)
        res = eng.run(5000)
        assert res.stabilized
        assert (eng.state.best == eng.state.target).all()
        assert res.trace is None

    def test_deterministic_in_seed_and_chunk(self):
        a = _engine(256, 4, chunk_nodes=64)
        b = _engine(256, 4, chunk_nodes=64)
        ra, rb = a.run(5000), b.run(5000)
        assert ra.rounds == rb.rounds
        assert np.array_equal(a.state.best, b.state.best)
        assert a.connections_made == b.connections_made

    def test_chunk_size_changes_sample_not_semantics(self):
        for chunk in (32, 100, 10_000):
            eng = _engine(256, 1, chunk_nodes=chunk)
            res = eng.run(5000)
            assert res.stabilized
            assert (eng.state.best == eng.state.target).all()

    def test_distribution_band_vs_vectorized(self):
        """Chunked rounds are a different sampling of the same round
        distribution as the dense vectorized engine."""
        g = families.random_regular(96, 4, seed=7)
        keys = uid_keys_random(96, 11)
        largen = [
            LargeNEngine(
                StaticDynamicGraph(g), BlindGossipBatched(keys),
                seed=s, chunk_nodes=32,
            ).run(5000).rounds
            for s in range(25)
        ]
        dense = [
            VectorizedEngine(
                StaticDynamicGraph(g), BlindGossipBatched(keys),
                seed=s, sparse="off",
            ).run(5000).rounds
            for s in range(25)
        ]
        lo, hi = float(np.mean(largen)), float(np.mean(dense))
        assert lo <= 1.25 * hi and hi <= 1.25 * lo

    def test_check_every_quantizes_rounds(self):
        for check_every in (1, 4, 9):
            res = _engine(128, 2, chunk_nodes=64).run(5000, check_every=check_every)
            assert res.stabilized
            assert res.rounds % check_every == 0 or res.rounds == 5000

    def test_rounds_executed_tracks_result(self):
        eng = _engine(128, 3, chunk_nodes=64)
        res = eng.run(5000, check_every=6)
        assert eng.rounds_executed == res.rounds

    def test_sparse_endgame_engages(self):
        eng = _engine(512, 0, chunk_nodes=128)
        eng.run(5000)
        assert eng.frontier.undone is not None
