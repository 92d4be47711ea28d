"""Sparse-activity rounds: gating, equivalence, and quiet-round skipping.

The sparse frontier path must be *distribution-equivalent* to dense
rounds (same stabilization statistics, same elected leader, clean traces)
and must engage exactly under its advertised conditions — never when
faults, tags, staggered activation, or per-round instrumentation need
full-width rounds.  Quiet-round fast-forward must report bit-identical
round counts to the plain loop.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.algorithms.blind_gossip import (
    BlindGossipBatched,
    BlindGossipVectorized,
    make_blind_gossip_nodes,
)
from repro.conformance import check_trace
from repro.core.batched import BatchedVectorizedEngine, _resolve_sparse_mode
from repro.core.engine import ReferenceEngine
from repro.core.monitor import all_leaders_are
from repro.core.payload import UIDSpace
from repro.core.vectorized import VectorizedEngine
from repro.graphs import families
from repro.graphs.dynamic import StaticDynamicGraph
from repro.harness.experiments import uid_keys_random


def _engine(n, seed, *, degree=4, sparse=None, collect_trace=False):
    g = families.random_regular(n, degree, seed=7)
    keys = uid_keys_random(n, 11)
    return VectorizedEngine(
        StaticDynamicGraph(g),
        BlindGossipVectorized(keys),
        seed=seed,
        sparse=sparse,
        collect_trace=collect_trace,
    )


class TestModeResolution:
    def test_explicit_arg_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPARSE", "off")
        assert _resolve_sparse_mode("force") == "force"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPARSE", "force")
        assert _resolve_sparse_mode(None) == "force"

    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPARSE", raising=False)
        assert _resolve_sparse_mode(None) == "auto"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            _resolve_sparse_mode("banana")
        with pytest.raises(ValueError):
            _engine(16, 0, sparse="banana")


class TestGating:
    def test_off_never_builds_a_frontier(self):
        eng = _engine(32, 0, sparse="off")
        eng.run(5000)
        assert eng.frontier.undone is None

    def test_force_builds_a_frontier(self):
        eng = _engine(32, 0, sparse="force")
        eng.run(5000)
        assert eng.frontier.undone is not None

    def test_auto_stays_dense_below_min_n(self):
        eng = _engine(64, 0, sparse="auto")
        eng.run(5000)
        assert eng.frontier.undone is None

    def test_instrumented_runs_stay_dense(self):
        """A per-round connection callback must see every connection,
        including passive done-done ones the frontier never simulates."""
        eng = _engine(32, 0, sparse="force")
        eng.on_connections = lambda r, winners, acceptors: None
        eng.run(5000)
        assert eng.frontier.undone is None

    def test_staggered_activation_disables_sparse(self):
        g = families.random_regular(16, 4, seed=7)
        keys = uid_keys_random(16, 11)
        act = np.ones(16, dtype=np.int64)
        act[3] = 5
        eng = VectorizedEngine(
            StaticDynamicGraph(g),
            BlindGossipVectorized(keys),
            seed=0,
            activation_rounds=act,
            sparse="force",
        )
        assert eng._sparse_limit is None

    def test_fault_plan_disables_sparse(self):
        from repro.faults import ConnectionDropModel, FaultPlan

        g = families.random_regular(16, 4, seed=7)
        keys = uid_keys_random(16, 11)
        eng = VectorizedEngine(
            StaticDynamicGraph(g),
            BlindGossipVectorized(keys),
            seed=0,
            fault_plan=FaultPlan(connection_drop=ConnectionDropModel(p=0.5)),
            sparse="force",
        )
        assert eng._sparse_limit is None


class TestEquivalence:
    def test_force_elects_the_minimum_key(self):
        eng = _engine(48, 3, sparse="force")
        res = eng.run(5000)
        assert res.stabilized
        assert (eng.state.best == eng.state.target).all()

    def test_distribution_band_force_vs_off(self):
        """Sparse rounds are a different sampling of the same round
        distribution: mean stabilization over seeds stays in a tight
        band of the dense path's."""
        means = {}
        for mode in ("off", "force"):
            rounds = [
                _engine(48, s, sparse=mode).run(5000).rounds for s in range(30)
            ]
            means[mode] = float(np.mean(rounds))
        assert means["force"] <= 1.25 * means["off"]
        assert means["off"] <= 1.25 * means["force"]

    def test_traced_equals_untraced_under_force(self):
        for seed in range(3):
            a = _engine(32, seed, sparse="force", collect_trace=False)
            b = _engine(32, seed, sparse="force", collect_trace=True)
            ra, rb = a.run(5000), b.run(5000)
            assert (ra.stabilized, ra.rounds) == (rb.stabilized, rb.rounds)
            assert np.array_equal(a.state.best, b.state.best)
            assert rb.trace is not None

    def test_sparse_trace_passes_model_invariants(self):
        g = families.random_regular(32, 4, seed=7)
        keys = uid_keys_random(32, 11)
        eng = VectorizedEngine(
            StaticDynamicGraph(g),
            BlindGossipVectorized(keys),
            seed=2,
            sparse="force",
            collect_trace=True,
        )
        res = eng.run(5000)
        assert res.stabilized
        assert check_trace(res.trace, StaticDynamicGraph(g)) == []


class TestAutoEngagement:
    @pytest.mark.slow
    def test_auto_engages_at_large_n(self):
        eng = _engine(4096, 0, sparse="auto")
        res = eng.run(5000)
        assert res.stabilized
        assert eng.frontier.undone is not None


class _NoQuiescence(BlindGossipVectorized):
    """Same algorithm, fast-forward declaration withdrawn."""

    quiescent_when_done = False


class TestQuietRoundFastForward:
    @pytest.mark.parametrize("check_every", [2, 4, 7])
    def test_reported_rounds_identical_to_plain_loop(self, check_every):
        g = families.random_regular(32, 4, seed=7)
        keys = uid_keys_random(32, 11)
        for seed in range(5):
            fast = VectorizedEngine(
                StaticDynamicGraph(g), BlindGossipVectorized(keys), seed=seed
            ).run(5000, check_every=check_every)
            plain = VectorizedEngine(
                StaticDynamicGraph(g), _NoQuiescence(keys), seed=seed
            ).run(5000, check_every=check_every)
            assert (fast.stabilized, fast.rounds) == (plain.stabilized, plain.rounds)

    def test_reference_quiescent_stop_identical(self):
        g = families.random_regular(12, 3, seed=3)
        for seed in range(4):
            results = []
            for quiescent in (False, True):
                us = UIDSpace(12, seed=9)
                eng = ReferenceEngine(
                    StaticDynamicGraph(g), make_blind_gossip_nodes(us), seed=seed
                )
                res = eng.run(
                    3000,
                    all_leaders_are(us.min_uid()),
                    check_every=5,
                    quiescent_stop=quiescent,
                )
                results.append((res.stabilized, res.rounds))
            assert results[0] == results[1]


class TestBatchedSparse:
    def _engine(self, T, n, seed, *, sparse=None):
        g = families.random_regular(n, 4, seed=7)
        keys = uid_keys_random(n, 11)
        return BatchedVectorizedEngine(
            StaticDynamicGraph(g),
            BlindGossipBatched(keys),
            seeds=np.arange(seed, seed + T),
            sparse=sparse,
        )

    def test_force_elects_minimum_in_every_replica(self):
        eng = self._engine(4, 24, 0, sparse="force")
        res = eng.run(5000)
        assert res.stabilized.all()
        assert (eng.state.best == eng.state.target).all()

    def test_distribution_band_force_vs_off(self):
        means = {}
        for mode in ("off", "force"):
            res = self._engine(24, 24, 5, sparse=mode).run(5000)
            assert res.stabilized.all()
            means[mode] = float(np.mean(res.rounds))
        assert means["force"] <= 1.3 * means["off"]
        assert means["off"] <= 1.3 * means["force"]

    def test_force_builds_frontier_off_does_not(self):
        on = self._engine(2, 24, 0, sparse="force")
        on.run(5000)
        assert on.frontier.undone is not None
        off = self._engine(2, 24, 0, sparse="off")
        off.run(5000)
        assert off.frontier.undone is None


def _state_digest(rounds, connections_made, state) -> str:
    """sha256 of ``(rounds, connections_made, final state)`` of one run."""
    h = hashlib.sha256()
    for value in (rounds, connections_made):
        h.update(np.asarray(value, dtype=np.int64).tobytes())
    names = getattr(type(state), "__slots__", None) or sorted(vars(state))
    for name in names:
        value = np.asarray(getattr(state, name))
        h.update(f"{name}:{value.dtype}:{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


def _pin_vectorized(n, seed, sparse, *, degree=4):
    eng = _engine(n, seed, degree=degree, sparse=sparse)
    res = eng.run(5000)
    return _state_digest(res.rounds, eng.connections_made, eng.state)


def _pin_batched(T, n, seed, sparse, *, tau=None, fault_plan=None):
    from repro.graphs.dynamic import PeriodicRelabelDynamicGraph

    g = families.random_regular(n, 4, seed=7)
    if tau is None:
        dg = StaticDynamicGraph(g)
    else:
        dg = [PeriodicRelabelDynamicGraph(g, tau, seed=100 + t) for t in range(T)]
    eng = BatchedVectorizedEngine(
        dg,
        BlindGossipBatched(uid_keys_random(n, 11)),
        seeds=np.arange(seed, seed + T),
        fault_plan=fault_plan,
        sparse=sparse,
    )
    res = eng.run(5000)
    return _state_digest(res.rounds, eng.connections_made, eng.state)


def _pin_largen(n, seed, **kw):
    from repro.core.largen import LargeNEngine

    g = families.random_regular(n, 4, seed=7)
    eng = LargeNEngine(
        StaticDynamicGraph(g), BlindGossipVectorized(uid_keys_random(n, 11)), seed=seed, **kw
    )
    res = eng.run(5000)
    return _state_digest(res.rounds, eng.connections_made, eng.state)


def _drop_plan():
    from repro.faults import ConnectionDropModel, FaultPlan

    return FaultPlan(connection_drop=ConnectionDropModel(p=0.3))


#: Digests of fixed-seed runs across the dense, sparse and chunked round
#: paths.  The engines' RNG call order is part of their contract: any
#: change here changes every seeded table and verdict.
_PINS = {
    "vectorized-off-64": (
        lambda: _pin_vectorized(64, 3, "off"),
        "9b837622a8f82266bd37d65bc6dd35f9f52d492198bdc775d8faa399686193fa",
    ),
    "vectorized-force-64": (
        lambda: _pin_vectorized(64, 3, "force"),
        "20322a7c3269f9b2e38399343e3e1689eea2016993c36e36c5b98389d5da25ba",
    ),
    "vectorized-auto-8192": (
        lambda: _pin_vectorized(8192, 5, "auto"),
        "496a5df33b5118b29d071dab04a5f7979a444bfcb44aca322460b26aaffafb3c",
    ),
    "batched-force-T4": (
        lambda: _pin_batched(4, 64, 2, "force"),
        "7b644ae1d802db4d8204924a1de70750eec10a50a2560209929e026a0f568384",
    ),
    "batched-auto-T8-n1024": (
        lambda: _pin_batched(8, 1024, 4, "auto"),
        "862f405c76cade025e319f078bff2b6abeda711a56ac0a8c273a684f69952cc7",
    ),
    "batched-churn-tau1-drops": (
        lambda: _pin_batched(4, 64, 6, "auto", tau=1, fault_plan=_drop_plan()),
        "79656738f590a23f017ad4f541856e0efb7a4082f38b6c4a667e10e7872837c2",
    ),
    "largen-512": (
        lambda: _pin_largen(512, 0),
        "f944be778840b10c38211148e030bfdf156de7d5fdde9b32930b65647a88ab51",
    ),
    "largen-8192-chunk1024": (
        lambda: _pin_largen(8192, 1, chunk_nodes=1024),
        "d036f77b97dc9977565301ea29d1932f7aff481dd980c9693dd2f3559c03c806",
    ),
}


class TestBitIdentityPin:
    @pytest.mark.parametrize("name", sorted(_PINS))
    def test_run_digest_is_pinned(self, name):
        run, expected = _PINS[name]
        assert run() == expected
