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
import math

import numpy as np
import pytest

from repro.algorithms.blind_gossip import (
    BlindGossipBatched,
    make_blind_gossip_nodes,
)
from repro.conformance import check_trace
from repro.core.batched import (
    BatchedVectorizedEngine,
    SparseFrontier,
    _resolve_sparse_mode,
)
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
        BlindGossipBatched(keys),
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
            BlindGossipBatched(keys),
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
            BlindGossipBatched(keys),
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
            BlindGossipBatched(keys),
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


class _NoQuiescence(BlindGossipBatched):
    """Same algorithm, fast-forward declaration withdrawn."""

    quiescent_when_done = False


class TestQuietRoundFastForward:
    @pytest.mark.parametrize("check_every", [2, 4, 7])
    def test_reported_rounds_identical_to_plain_loop(self, check_every):
        g = families.random_regular(32, 4, seed=7)
        keys = uid_keys_random(32, 11)
        for seed in range(5):
            fast = VectorizedEngine(
                StaticDynamicGraph(g), BlindGossipBatched(keys), seed=seed
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

    def test_shared_last_active_is_read_only(self):
        """Sparse rounds hand every consumer one all-True mask; writing
        into it raises instead of corrupting the next round."""
        eng = self._engine(2, 24, 0, sparse="force")
        eng.step(1)
        shared = eng.last_active
        assert shared.all() and not shared.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = False
        eng.step(2)
        assert eng.last_active is shared and shared.all()

    def test_force_builds_frontier_off_does_not(self):
        on = self._engine(2, 24, 0, sparse="force")
        on.run(5000)
        assert on.frontier.undone is not None
        off = self._engine(2, 24, 0, sparse="off")
        off.run(5000)
        assert off.frontier.undone is None


def _hops(graph, undone):
    """``U ∪ N(U)`` and ``S = U ∪ N(U) ∪ N²(U)`` of a flat undone mask,
    built unstaged from per-vertex neighbour lists (flat ``t*n + v`` ids)."""
    n = graph.n

    def hop(ids):
        out = set(ids)
        for i in ids:
            base, v = divmod(i, n)
            out.update(base * n + int(w) for w in graph.neighbors(v))
        return out

    reach = hop({int(i) for i in np.flatnonzero(undone)})
    return len(reach), np.array(sorted(hop(reach)), dtype=np.int64)


class _CountingGraph(StaticDynamicGraph):
    """A static dynamic graph that counts its ``graph_at`` calls."""

    def __init__(self, graph):
        super().__init__(graph)
        self.calls = 0

    def graph_at(self, r):
        self.calls += 1
        return super().graph_at(r)


class TestStagedClosure:
    """The staged closure (reject after the first hop) decides exactly as
    the unstaged two-hop definition, with the same ``graph_at`` calls."""

    @pytest.mark.parametrize("T", [1, 4])
    @pytest.mark.parametrize("family", ["regular", "stars"])
    def test_matches_unstaged_oracle(self, T, family):
        if family == "regular":
            g = families.random_regular(48, 4, seed=3)
        else:
            g = families.line_of_stars(4, 8)
        n, total = g.n, T * g.n
        rng = np.random.default_rng(0)
        outcomes = set()
        for size in (0, 1, 2, 5, 12, 30, total // 2, total):
            undone = np.zeros(total, dtype=bool)
            undone[rng.choice(total, size=size, replace=False)] = True
            done = ~undone.reshape(T, n)
            reach, rows = _hops(g, undone)
            for limit in (0, 1, 4, 16, 40, 100, total // 2, total, math.inf):
                dg = _CountingGraph(g)
                frontier = SparseFrontier(n, T, lambda: done, None)
                hit = frontier.closure(dg, 1, limit)
                # graph_at is called exactly when U fits, as before staging.
                assert dg.calls == int(size <= limit)
                if size > limit:
                    outcome = "U too large"
                elif reach > limit:
                    outcome = "first hop"
                elif rows.size > limit:
                    outcome = "second hop"
                else:
                    outcome = "hit"
                outcomes.add(outcome)
                if outcome == "hit":
                    graph, got = hit
                    assert graph is g
                    assert np.array_equal(got, rows)
                    assert np.array_equal(frontier.idx, np.flatnonzero(undone))
                else:
                    assert hit is None
                    # The dense round that follows would leave U stale.
                    assert frontier.undone is None and frontier.idx is None
        assert outcomes == {"U too large", "first hop", "second hop", "hit"}


def _lifecycle_batched():
    g = families.random_regular(1024, 4, seed=7)
    return BatchedVectorizedEngine(
        StaticDynamicGraph(g),
        BlindGossipBatched(uid_keys_random(1024, 11)),
        seeds=np.arange(4),
        sparse="auto",
    )


class TestFrontierLifecycle:
    """Auto-mode runs keep ``U`` only across sparse rounds: ``absorb``
    changes it in no dense round, and every sparse round starts from
    exactly the undone set a fresh build would give."""

    @pytest.mark.parametrize(
        "make",
        [lambda: _engine(4096, 0, sparse="auto"), _lifecycle_batched],
        ids=["vectorized-4096", "batched-T4-n1024"],
    )
    def test_u_changes_only_in_sparse_rounds(self, make):
        eng = make()
        frontier = eng.frontier
        closure, absorb = frontier.closure, frontier.absorb
        rounds = {"sparse": 0, "dense": 0}
        sparse = [False]

        def undone_now():
            return np.flatnonzero(~np.asarray(eng.algo.node_done(eng.state)).reshape(-1))

        def watched_closure(dg, r, limit):
            hit = closure(dg, r, limit)
            sparse[0] = hit is not None
            rounds["sparse" if sparse[0] else "dense"] += 1
            if sparse[0]:
                assert np.array_equal(frontier.idx, undone_now())
            return hit

        def watched_absorb(winners, acceptors):
            if not sparse[0]:
                assert frontier.idx is None
            absorb(winners, acceptors)
            if sparse[0]:
                assert np.array_equal(frontier.idx, undone_now())
            else:
                assert frontier.idx is None

        frontier.closure, frontier.absorb = watched_closure, watched_absorb
        res = eng.run(5000)
        assert np.all(res.stabilized)
        assert rounds["sparse"] > 0 and rounds["dense"] > 0


def _state_digest(rounds, connections_made, state) -> str:
    """sha256 of ``(rounds, connections_made, final state)`` of one run.

    Each state field contributes its name, dtype and flattened bytes but
    not its shape, so a single-replica state digests the same with or
    without a length-1 replica axis.  A generator field contributes its
    bit-generator state.
    """
    h = hashlib.sha256()
    for value in (rounds, connections_made):
        h.update(np.asarray(value, dtype=np.int64).tobytes())
    names = {
        name for cls in type(state).__mro__ for name in getattr(cls, "__slots__", ())
    }
    names.update(getattr(state, "__dict__", {}))
    for name in sorted(names):
        value = getattr(state, name)
        if isinstance(value, np.random.Generator):
            h.update(f"{name}:{value.bit_generator.state!r}".encode())
            continue
        value = np.asarray(value)
        h.update(f"{name}:{value.dtype}".encode())
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


def _drop_plan():
    from repro.faults import ConnectionDropModel, FaultPlan

    return FaultPlan(connection_drop=ConnectionDropModel(p=0.3))


def _pin_single(algo, dg, seed, max_rounds, **kw):
    eng = VectorizedEngine(dg, algo, seed=seed, **kw)
    res = eng.run(max_rounds)
    return _state_digest(res.rounds, eng.connections_made, eng.state)


def _bc_config(n):
    from repro.algorithms.bit_convergence import BitConvergenceConfig

    return BitConvergenceConfig(n_upper=n, delta_bound=5)


def _pin_bit_convergence():
    from repro.algorithms.bit_convergence import BitConvergenceBatched
    from repro.faults import (
        ConnectionDropModel,
        CrashSchedule,
        CrashWindow,
        FaultPlan,
        TagCorruptionModel,
    )

    n = 48
    plan = FaultPlan(
        crashes=CrashSchedule(
            (
                CrashWindow(node=3, start=5, end=40, reset_on_rejoin=False),
                CrashWindow(node=17, start=20, end=90, reset_on_rejoin=False),
            )
        ),
        connection_drop=ConnectionDropModel(p=0.1),
        tag_corruption=TagCorruptionModel(q=0.02),
    )
    algo = BitConvergenceBatched(
        uid_keys_random(n, 11), _bc_config(n), tag_seed=9, unique_tags=True
    )
    g = families.random_regular(n, 4, seed=7)
    return _pin_single(algo, StaticDynamicGraph(g), 9, 3000, fault_plan=plan)


def _pin_ppush_packing():
    from repro.algorithms.ppush import PPushBatched
    from repro.graphs.adversary import PackingAdversary

    g = families.random_regular(64, 4, seed=7)
    return _pin_single(PPushBatched(np.array([0])), PackingAdversary(g, tau=2), 4, 3000)


def _pin_push_pull_pull():
    from repro.algorithms.push_pull import PushPullBatched

    g = families.random_regular(64, 4, seed=7)
    algo = PushPullBatched(np.array([0, 5]), direction="pull")
    return _pin_single(algo, StaticDynamicGraph(g), 5, 3000)


def _pin_k_gossip():
    from repro.algorithms.k_gossip import KGossipBatched

    g = families.random_regular(24, 4, seed=7)
    return _pin_single(KGossipBatched(), StaticDynamicGraph(g), 6, 3000)


def _pin_averaging():
    from repro.algorithms.averaging import AveragingBatched

    values = np.random.default_rng(3).normal(size=48)
    g = families.random_regular(48, 4, seed=7)
    return _pin_single(AveragingBatched(values), StaticDynamicGraph(g), 7, 3000)


def _pin_async_bit_convergence():
    from repro.algorithms.async_bit_convergence import AsyncBitConvergenceBatched
    from repro.faults import FaultPlan, StateCorruptionEvent

    n = 48
    algo = AsyncBitConvergenceBatched(
        uid_keys_random(n, 11), _bc_config(n), tag_seed=8, unique_tags=True
    )
    activation = 1 + (np.arange(n) * 7) % 30
    plan = FaultPlan(state_corruption=(StateCorruptionEvent(round=40, fraction=0.25),))
    g = families.random_regular(n, 4, seed=7)
    return _pin_single(
        algo,
        StaticDynamicGraph(g),
        8,
        5000,
        activation_rounds=activation,
        fault_plan=plan,
    )


def _pin_consensus():
    from repro.algorithms.consensus import ConsensusBatched

    n = 48
    proposals = np.arange(n, dtype=np.int64) * 3
    algo = ConsensusBatched(
        uid_keys_random(n, 11), _bc_config(n), proposals, tag_seed=10, unique_tags=True
    )
    g = families.random_regular(n, 4, seed=7)
    return _pin_single(algo, StaticDynamicGraph(g), 10, 5000)


#: Digests of fixed-seed runs across the dense and sparse round
#: paths, plus one single-replica run per other algorithm (``vec-*``:
#: its round, fault and adversary hooks).  The engines' RNG call order
#: is part of their contract: any change here changes every seeded table
#: and verdict.
_PINS = {
    "vectorized-off-64": (
        lambda: _pin_vectorized(64, 3, "off"),
        "46ea9ba98602a23dd9ebd1d12d68fb3c41177be483064e79155be62ce078f054",
    ),
    "vectorized-force-64": (
        lambda: _pin_vectorized(64, 3, "force"),
        "2278c0ca3aecb312d5cc7ffa172e39542248fcbb6d720c46fbbb2a13004d3109",
    ),
    "vectorized-auto-8192": (
        lambda: _pin_vectorized(8192, 5, "auto"),
        "60ec0c5f6bd15072c35de10043a75080b3a624260784436a740a3b00f47d6af2",
    ),
    "batched-force-T4": (
        lambda: _pin_batched(4, 64, 2, "force"),
        "ac40ce97634d428bf9a5087d419bec861cf34488a427c5eb64ec7fff6f6bb81d",
    ),
    "batched-auto-T8-n1024": (
        lambda: _pin_batched(8, 1024, 4, "auto"),
        "a61482b80c63e8976b41ad0dd26723766382cf23be27f28076f2df6d71ca0397",
    ),
    "batched-churn-tau1-drops": (
        lambda: _pin_batched(4, 64, 6, "auto", tau=1, fault_plan=_drop_plan()),
        "73e2d3ca3a9a8af241501506a797ce9804c309154e6b738ef079b62ec0746c75",
    ),
    "vec-bit-convergence-faults": (
        _pin_bit_convergence,
        "fdf18c0606fd36cfc58aaa7d0bf797170f71d484861a1c3bc6a66f249e11b854",
    ),
    "vec-ppush-packing-tau2": (
        _pin_ppush_packing,
        "abe0191bf76e96c4df1c8332f0cecbf5998c30ded70130b2b99dc94448025763",
    ),
    "vec-push-pull-pull": (
        _pin_push_pull_pull,
        "79e161206420e87887f24ef9c6acfbaadfaf16d9074c28e0317e8d55b56cb505",
    ),
    "vec-k-gossip": (
        _pin_k_gossip,
        "d054c541bef31fca398661397563c50c818af375ea682bc99e771892a2ba0f71",
    ),
    "vec-averaging": (
        _pin_averaging,
        "370d89b085dc8134955a9d08c6b983487ab62110196dc6a408e4f084f523f715",
    ),
    "vec-async-bit-convergence-staggered-corrupt": (
        _pin_async_bit_convergence,
        "5324132d5e61f319040898a0e61da076b28c7d3538d187505aa9531e35bb259f",
    ),
    "vec-consensus": (
        _pin_consensus,
        "f72c112c95d16671d1fe83da65cc428f8dd02a7192e10ac8e31e29a6fc25fe59",
    ),
}


class TestBitIdentityPin:
    @pytest.mark.parametrize("name", sorted(_PINS))
    def test_run_digest_is_pinned(self, name):
        run, expected = _PINS[name]
        assert run() == expected
