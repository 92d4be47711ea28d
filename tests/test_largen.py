"""Tests for ``LargeNEngine``, the one-replica engine under its large-n name.

perfbench's ``large-n`` workload builds ``LargeNEngine(dg, algo, seed=s)``,
runs it and reads ``.n``, ``.state.best`` and ``.connections_made``; its
tracer and work counter wrap the ``step`` of each engine class in turn.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.blind_gossip import BlindGossipBatched
from repro.core.largen import LargeNEngine
from repro.core.trace import RunResult
from repro.core.vectorized import VectorizedEngine
from repro.graphs import families
from repro.graphs.dynamic import StaticDynamicGraph
from repro.harness.experiments import uid_keys_random


def _engine(n, seed, *, degree=4):
    g = families.random_regular(n, degree, seed=7)
    keys = uid_keys_random(n, 11)
    return LargeNEngine(StaticDynamicGraph(g), BlindGossipBatched(keys), seed=seed)


class TestPerfbenchShim:
    def test_step_is_bound_on_the_class(self):
        assert "step" in vars(LargeNEngine)

    def test_wrapping_each_class_counts_a_round_once(self, monkeypatch):
        """Wrap ``step`` class by class, as perfbench does: the subclass's
        own ``step`` is the unwrapped original, so no round counts twice."""
        counted = []
        for cls in (VectorizedEngine, LargeNEngine):
            step = cls.step

            def counted_step(engine, r, _step=step):
                counted.append(r)
                return _step(engine, r)

            monkeypatch.setattr(cls, "step", counted_step)
        _engine(64, 0).step(1)
        assert counted == [1]
        eng = _engine(64, 0)
        VectorizedEngine(eng.dg, eng.algo, seed=0).step(2)
        assert counted == [1, 2]

    def test_run_returns_a_single_replica_result(self):
        eng = _engine(256, 1)
        res = eng.run(5000)
        assert isinstance(res, RunResult)
        assert type(res.rounds) is int and res.stabilized
        assert (eng.state.best == uid_keys_random(256, 11).min()).all()
        assert eng.n == 256 and eng.connections_made > 0


class TestConstruction:
    def test_rejects_bad_max_rounds(self):
        with pytest.raises(ValueError, match="max_rounds"):
            _engine(16, 0).run(0)

    def test_initial_state_matches_vectorized(self):
        g = families.random_regular(64, 4, seed=7)
        keys = uid_keys_random(64, 11)
        a = LargeNEngine(StaticDynamicGraph(g), BlindGossipBatched(keys), seed=3)
        b = VectorizedEngine(StaticDynamicGraph(g), BlindGossipBatched(keys), seed=3)
        assert np.array_equal(a.state.best, b.state.best)
        assert a.state.target == b.state.target


class TestRuns:
    def test_stabilizes_and_elects_minimum(self):
        eng = _engine(512, 0)
        res = eng.run(5000)
        assert res.stabilized
        assert (eng.state.best == eng.state.target).all()
        assert res.trace is None

    def test_check_every_quantizes_rounds(self):
        for check_every in (1, 4, 9):
            res = _engine(128, 2).run(5000, check_every=check_every)
            assert res.stabilized
            assert res.rounds % check_every == 0 or res.rounds == 5000

    def test_rounds_executed_tracks_result(self):
        eng = _engine(128, 3)
        res = eng.run(5000, check_every=6)
        assert eng.rounds_executed == res.rounds

    def test_sparse_endgame_engages(self):
        # 4096 nodes: the smallest n at which auto mode takes sparse rounds.
        eng = _engine(4096, 0)
        eng.run(5000)
        assert eng.frontier.undone is not None
