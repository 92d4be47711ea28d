"""Cross-validation: batched engine vs single-replica vectorized engine.

The batched engine runs T replicas as one (T, n) computation; its round
randomness comes from a batch-wide stream, so it cannot be compared
trace-for-trace with T separate ``VectorizedEngine`` runs.  Like the
reference-vs-vectorized suite, we compare *distributions* of
rounds-to-stabilize over the same trial-seed sequence: a semantic
divergence (acceptance rule, convergence masking, stacked-CSR indexing)
shifts these distributions by integer factors, far outside the tolerance
band.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.algorithms.bit_convergence import (
    BitConvergenceBatched,
    BitConvergenceConfig,
)
from repro.algorithms.blind_gossip import BlindGossipBatched
from repro.algorithms.ppush import PPushBatched
from repro.algorithms.push_pull import PushPullBatched
from repro.algorithms.blind_gossip import make_blind_gossip_nodes
from repro.core.batched import BatchedVectorizedEngine
from repro.core.engine import ReferenceEngine
from repro.core.monitor import all_leaders_are
from repro.core.payload import UIDSpace
from repro.core.vectorized import VectorizedEngine
from repro.faults import (
    ConnectionDropModel,
    CrashSchedule,
    CrashWindow,
    FaultPlan,
    StateCorruptionEvent,
)
from repro.graphs import families
from repro.graphs.dynamic import PeriodicRelabelDynamicGraph, StaticDynamicGraph
from repro.harness.runner import run_trials, run_trials_batched, trial_seeds_for

TRIALS = 24
MAX_ROUNDS = 200_000


def median_ratio(a, b):
    return float(np.median(a)) / max(float(np.median(b)), 1e-9)


def keys_for(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).permutation(n).astype(np.int64)


class TestBlindGossipBatchedEquivalence:
    @pytest.mark.parametrize(
        "graph",
        [families.clique(16), families.double_star(6), families.random_regular(32, 4, seed=0)],
        ids=["clique", "double_star", "random_regular"],
    )
    def test_static_round_distributions_match(self, graph):
        keys = keys_for(graph.n)
        dg = StaticDynamicGraph(graph)

        def build_b(seeds):
            return dg, BlindGossipBatched(keys)

        batched = run_trials_batched(
            build_b, trials=TRIALS, max_rounds=MAX_ROUNDS, seed=7
        )
        single = run_trials(
            lambda ts: VectorizedEngine(dg, BlindGossipBatched(keys), seed=ts),
            trials=TRIALS,
            max_rounds=MAX_ROUNDS,
            seed=7,
        )
        assert all(o.stabilized for o in batched)
        assert all(o.stabilized for o in single)
        # Identical trial-seed sequences, comparable distributions.
        assert [o.seed for o in batched] == [o.seed for o in single]
        ratio = median_ratio(
            [o.rounds for o in batched], [o.rounds for o in single]
        )
        assert 0.5 < ratio < 2.0

    def test_churn_permuted_path_matches(self):
        """Shared-base relabel churn takes the permutation-native fast path."""
        base = families.double_star(6)
        keys = keys_for(base.n)

        def build_b(seeds):
            dgs = [PeriodicRelabelDynamicGraph(base, 1, seed=int(ts)) for ts in seeds]
            return dgs, BlindGossipBatched(keys)

        engine = BatchedVectorizedEngine(
            *build_b(trial_seeds_for(3, TRIALS)), seeds=trial_seeds_for(3, TRIALS)
        )
        assert engine._perm_base is base

        batched = run_trials_batched(
            build_b, trials=TRIALS, max_rounds=MAX_ROUNDS, seed=3
        )
        single = run_trials(
            lambda ts: VectorizedEngine(
                PeriodicRelabelDynamicGraph(base, 1, seed=ts),
                BlindGossipBatched(keys),
                seed=ts,
            ),
            trials=TRIALS,
            max_rounds=MAX_ROUNDS,
            seed=3,
        )
        assert all(o.stabilized for o in batched)
        ratio = median_ratio(
            [o.rounds for o in batched], [o.rounds for o in single]
        )
        assert 0.5 < ratio < 2.0

    def test_churn_stacked_path_matches(self):
        """Distinct base objects force the stacked-CSR fallback path."""
        keys = keys_for(families.double_star(6).n)

        def build_b(seeds):
            dgs = [
                PeriodicRelabelDynamicGraph(families.double_star(6), 1, seed=int(ts))
                for ts in seeds
            ]
            return dgs, BlindGossipBatched(keys)

        engine = BatchedVectorizedEngine(
            *build_b(trial_seeds_for(3, TRIALS)), seeds=trial_seeds_for(3, TRIALS)
        )
        assert engine._perm_base is None

        batched = run_trials_batched(
            build_b, trials=TRIALS, max_rounds=MAX_ROUNDS, seed=3
        )
        single = run_trials(
            lambda ts: VectorizedEngine(
                PeriodicRelabelDynamicGraph(families.double_star(6), 1, seed=ts),
                BlindGossipBatched(keys),
                seed=ts,
            ),
            trials=TRIALS,
            max_rounds=MAX_ROUNDS,
            seed=3,
        )
        assert all(o.stabilized for o in batched)
        ratio = median_ratio(
            [o.rounds for o in batched], [o.rounds for o in single]
        )
        assert 0.5 < ratio < 2.0

    def test_permuted_and_stacked_paths_agree(self):
        """The two churn implementations are distributionally interchangeable."""
        base = families.double_star(6)
        keys = keys_for(base.n)

        def build_permuted(seeds):
            return (
                [PeriodicRelabelDynamicGraph(base, 1, seed=int(ts)) for ts in seeds],
                BlindGossipBatched(keys),
            )

        def build_stacked(seeds):
            # Equal but distinct base objects defeat the identity check.
            return (
                [
                    PeriodicRelabelDynamicGraph(
                        families.double_star(6), 1, seed=int(ts)
                    )
                    for ts in seeds
                ],
                BlindGossipBatched(keys),
            )

        fast = run_trials_batched(
            build_permuted, trials=TRIALS, max_rounds=MAX_ROUNDS, seed=11
        )
        slow = run_trials_batched(
            build_stacked, trials=TRIALS, max_rounds=MAX_ROUNDS, seed=11
        )
        assert all(o.stabilized for o in fast)
        assert all(o.stabilized for o in slow)
        ratio = median_ratio([o.rounds for o in fast], [o.rounds for o in slow])
        assert 0.5 < ratio < 2.0


class TestPPushBatchedEquivalence:
    def test_round_distributions_match(self):
        graph = families.star(24)
        dg = StaticDynamicGraph(graph)
        src = np.array([0])

        batched = run_trials_batched(
            lambda seeds: (dg, PPushBatched(src)),
            trials=TRIALS,
            max_rounds=100_000,
            seed=1,
        )
        single = run_trials(
            lambda ts: VectorizedEngine(dg, PPushBatched(src), seed=ts),
            trials=TRIALS,
            max_rounds=100_000,
            seed=1,
        )
        assert all(o.stabilized for o in batched)
        # PPUSH on a star is nearly deterministic (one leaf per round).
        ratio = median_ratio(
            [o.rounds for o in batched], [o.rounds for o in single]
        )
        assert 0.7 < ratio < 1.5


class TestPushPullBatchedEquivalence:
    def test_round_distributions_match(self):
        graph = families.double_star(6)
        dg = StaticDynamicGraph(graph)
        src = np.array([2])

        batched = run_trials_batched(
            lambda seeds: (dg, PushPullBatched(src)),
            trials=TRIALS,
            max_rounds=MAX_ROUNDS,
            seed=2,
        )
        single = run_trials(
            lambda ts: VectorizedEngine(dg, PushPullBatched(src), seed=ts),
            trials=TRIALS,
            max_rounds=MAX_ROUNDS,
            seed=2,
        )
        assert all(o.stabilized for o in batched)
        ratio = median_ratio(
            [o.rounds for o in batched], [o.rounds for o in single]
        )
        assert 0.5 < ratio < 2.0


class TestBitConvergenceBatchedEquivalence:
    def test_round_distributions_match(self):
        graph = families.random_regular(16, 4, seed=0)
        dg = StaticDynamicGraph(graph)
        cfg = BitConvergenceConfig(n_upper=16, delta_bound=4, beta=1.0)
        keys = keys_for(graph.n)

        batched = run_trials_batched(
            lambda seeds: (
                dg,
                BitConvergenceBatched(keys, cfg, unique_tags=True),
            ),
            trials=TRIALS,
            max_rounds=300_000,
            seed=5,
        )
        single = run_trials(
            lambda ts: VectorizedEngine(
                dg,
                BitConvergenceBatched(keys, cfg, tag_seed=ts, unique_tags=True),
                seed=ts,
            ),
            trials=TRIALS,
            max_rounds=300_000,
            seed=5,
        )
        assert all(o.stabilized for o in batched)
        ratio = median_ratio(
            [o.rounds for o in batched], [o.rounds for o in single]
        )
        assert 0.4 < ratio < 2.5

    def test_initial_tags_match_single_engine(self):
        """Replica t's ID tags are bit-identical to a single engine seeded with trial seed t."""
        from repro.algorithms.bit_convergence import draw_id_tags

        cfg = BitConvergenceConfig(n_upper=16, delta_bound=4, beta=1.0)
        keys = keys_for(16)
        seeds = trial_seeds_for(5, 8)
        algo = BitConvergenceBatched(keys, cfg, unique_tags=True)
        state = algo.init_state(16, np.asarray(seeds))
        for t, ts in enumerate(seeds):
            expected = draw_id_tags(16, cfg, ts, unique=True)
            assert np.array_equal(state.ctag[t], expected)


class TestEntryMaskAlgorithmsBatchedEquivalence:
    """Async bit convergence and consensus restrict targets per CSR entry
    (``eligible_flat``); the batched engine honours that on one shared
    topology and rejects it elsewhere."""

    CFG = BitConvergenceConfig(n_upper=16, delta_bound=4, beta=1.0)

    @classmethod
    def _algo(cls, name, keys):
        from repro.algorithms.async_bit_convergence import AsyncBitConvergenceBatched
        from repro.algorithms.consensus import ConsensusBatched

        if name == "async_bit_convergence":
            return AsyncBitConvergenceBatched(keys, cls.CFG, unique_tags=True)
        return ConsensusBatched(keys, cls.CFG, np.arange(keys.size), unique_tags=True)

    @pytest.mark.parametrize("name", ["async_bit_convergence", "consensus"])
    def test_static_round_distributions_match(self, name):
        graph = families.random_regular(16, 4, seed=0)
        dg = StaticDynamicGraph(graph)
        keys = keys_for(graph.n)
        batched = run_trials_batched(
            lambda seeds: (dg, self._algo(name, keys)),
            trials=TRIALS,
            max_rounds=MAX_ROUNDS,
            seed=4,
        )
        single = run_trials(
            lambda ts: VectorizedEngine(dg, self._algo(name, keys), seed=ts),
            trials=TRIALS,
            max_rounds=MAX_ROUNDS,
            seed=4,
        )
        assert all(o.stabilized for o in batched)
        assert all(o.stabilized for o in single)
        ratio = median_ratio(
            [o.rounds for o in batched], [o.rounds for o in single]
        )
        assert 0.4 < ratio < 2.5

    def test_per_replica_churn_list_rejected(self):
        base = families.random_regular(16, 4, seed=0)
        seeds = trial_seeds_for(2, 4)
        dgs = [PeriodicRelabelDynamicGraph(base, 2, seed=int(ts)) for ts in seeds]
        with pytest.raises(ValueError, match="eligible_flat"):
            BatchedVectorizedEngine(
                dgs, self._algo("async_bit_convergence", keys_for(16)), seeds=seeds
            )


class TestBatchedEngineBehavior:
    def test_deterministic_given_seed(self):
        graph = families.random_regular(32, 4, seed=0)
        keys = keys_for(graph.n)

        def once():
            return run_trials_batched(
                lambda seeds: (StaticDynamicGraph(graph), BlindGossipBatched(keys)),
                trials=12,
                max_rounds=50_000,
                seed=9,
            )

        a, b = once(), once()
        assert [(o.seed, o.rounds, o.stabilized) for o in a] == [
            (o.seed, o.rounds, o.stabilized) for o in b
        ]

    def test_convergence_masking_freezes_finished_replicas(self):
        """After a replica converges, its state never changes again."""
        graph = families.clique(12)
        keys = keys_for(graph.n)
        seeds = trial_seeds_for(0, 8)
        algo = BlindGossipBatched(keys)
        eng = BatchedVectorizedEngine(
            StaticDynamicGraph(graph), algo, seeds=seeds
        )
        frozen: dict[int, np.ndarray] = {}
        for r in range(1, 2000):
            eng.step(r)
            conv = algo.converged(eng.state)
            for t in np.flatnonzero(conv & eng.live):
                frozen[int(t)] = eng.state.best[t].copy()
            eng.live &= ~conv
            for t, snap in frozen.items():
                assert np.array_equal(eng.state.best[t], snap)
            if not eng.live.any():
                break
        assert not eng.live.any()

    def test_outcomes_align_with_trial_seed_scheme(self):
        graph = families.clique(10)
        keys = keys_for(graph.n)
        outs = run_trials_batched(
            lambda seeds: (StaticDynamicGraph(graph), BlindGossipBatched(keys)),
            trials=6,
            max_rounds=10_000,
            seed=4,
        )
        assert [o.seed for o in outs] == trial_seeds_for(4, 6)

    def test_rejects_mismatched_graph_count(self):
        graph = families.clique(8)
        keys = keys_for(graph.n)
        with pytest.raises(ValueError):
            BatchedVectorizedEngine(
                [StaticDynamicGraph(graph)],
                BlindGossipBatched(keys),
                seeds=[1, 2, 3],
            )


class TestChurnBatchedEquivalence:
    """Permuted-fast-path churn runs vs single-replica engines per algorithm."""

    def test_bit_convergence_under_churn(self):
        base = families.random_regular(16, 4, seed=0)
        cfg = BitConvergenceConfig(n_upper=16, delta_bound=4, beta=1.0)
        keys = keys_for(base.n)

        batched = run_trials_batched(
            lambda seeds: (
                [PeriodicRelabelDynamicGraph(base, 1, seed=int(ts)) for ts in seeds],
                BitConvergenceBatched(keys, cfg, unique_tags=True),
            ),
            trials=TRIALS,
            max_rounds=300_000,
            seed=6,
        )
        single = run_trials(
            lambda ts: VectorizedEngine(
                PeriodicRelabelDynamicGraph(base, 1, seed=ts),
                BitConvergenceBatched(keys, cfg, tag_seed=ts, unique_tags=True),
                seed=ts,
            ),
            trials=TRIALS,
            max_rounds=300_000,
            seed=6,
        )
        assert all(o.stabilized for o in batched)
        ratio = median_ratio(
            [o.rounds for o in batched], [o.rounds for o in single]
        )
        assert 0.4 < ratio < 2.5

    def test_push_pull_under_adaptive_adversary(self):
        from repro.graphs.adversary import BatchedPackingAdversary, PackingAdversary

        base = families.double_star(8)
        src = np.array([2])

        batched = run_trials_batched(
            lambda seeds: (
                BatchedPackingAdversary(base, tau=1, replicas=len(seeds)),
                PushPullBatched(src),
            ),
            trials=TRIALS,
            max_rounds=MAX_ROUNDS,
            seed=8,
        )
        single = run_trials(
            lambda ts: VectorizedEngine(
                PackingAdversary(base, tau=1), PushPullBatched(src), seed=ts
            ),
            trials=TRIALS,
            max_rounds=MAX_ROUNDS,
            seed=8,
        )
        assert all(o.stabilized for o in batched)
        assert all(o.stabilized for o in single)
        ratio = median_ratio(
            [o.rounds for o in batched], [o.rounds for o in single]
        )
        assert 0.5 < ratio < 2.0


class TestFaultPlanCrossEngine:
    """Same FaultPlan across tiers: round distributions must agree.

    Fault randomness draws from per-tier fault streams, so executions are
    not trace-identical; but a semantic divergence in hook placement
    (corruption before vs after the sender decision, drops after vs
    before the exchange, the crash mask missing the active set) shifts
    the rounds-to-stabilize distributions far outside the band.
    """

    def test_reference_vs_batched_under_crash_and_drop(self):
        graph = families.random_regular(16, 4, seed=0)
        dg = StaticDynamicGraph(graph)
        keys = keys_for(graph.n)
        plan = FaultPlan(
            crashes=CrashSchedule(
                (
                    CrashWindow(node=3, start=4, end=14),
                    CrashWindow(node=9, start=6, end=18),
                )
            ),
            connection_drop=ConnectionDropModel(p=0.4),
        )

        batched = run_trials_batched(
            lambda seeds: (dg, BlindGossipBatched(keys)),
            trials=TRIALS,
            max_rounds=MAX_ROUNDS,
            seed=21,
            fault_plan=plan,
        )
        ref_rounds = []
        for t in range(TRIALS):
            us = UIDSpace(graph.n, seed=100 + t)
            nodes = make_blind_gossip_nodes(us)
            eng = ReferenceEngine(dg, nodes, seed=t, fault_plan=plan)
            res = eng.run(MAX_ROUNDS, all_leaders_are(us.min_uid()))
            assert res.stabilized
            ref_rounds.append(res.rounds)

        assert all(o.stabilized for o in batched)
        # Both tiers gate verdicts until the plan quiesces.
        assert all(o.rounds >= plan.quiesce_round for o in batched)
        assert all(r >= plan.quiesce_round for r in ref_rounds)
        ratio = median_ratio([o.rounds for o in batched], ref_rounds)
        assert 0.5 < ratio < 2.0

    def test_vectorized_vs_batched_under_corruption_and_drop(self):
        graph = families.random_regular(16, 4, seed=0)
        dg = StaticDynamicGraph(graph)
        keys = keys_for(graph.n)
        plan = FaultPlan(
            connection_drop=ConnectionDropModel(p=0.3),
            state_corruption=(StateCorruptionEvent(round=12, fraction=0.5),),
        )

        batched = run_trials_batched(
            lambda seeds: (dg, BlindGossipBatched(keys)),
            trials=TRIALS,
            max_rounds=MAX_ROUNDS,
            seed=22,
            fault_plan=plan,
        )
        single = run_trials(
            lambda ts: VectorizedEngine(
                dg, BlindGossipBatched(keys), seed=ts, fault_plan=plan
            ),
            trials=TRIALS,
            max_rounds=MAX_ROUNDS,
            seed=22,
        )
        assert all(o.stabilized for o in batched)
        assert all(o.stabilized for o in single)
        assert [o.seed for o in batched] == [o.seed for o in single]
        ratio = median_ratio(
            [o.rounds for o in batched], [o.rounds for o in single]
        )
        assert 0.5 < ratio < 2.0


class TestExperimentCellCrossValidation:
    """Experiment cells routed through engine="batched" vs engine="single".

    The harness flips several standard profiles to the batched engine; a
    routing bug (wrong builder, wrong seeds, wrong dynamic-graph form)
    would shift the reported medians by integer factors.
    """

    def test_e6_bit_convergence_cells_match(self):
        from repro.harness.experiments import exp_bit_convergence_tau

        kw = dict(n=16, degree=4, taus=(1, math.inf), trials=12, seed=0)
        single = exp_bit_convergence_tau(engine="single", **kw)
        batched = exp_bit_convergence_tau(engine="batched", **kw)
        assert [r[0] for r in single.rows] == [r[0] for r in batched.rows]
        for row_s, row_b in zip(single.rows, batched.rows):
            # Columns: tau, tau_hat, oblivious median, adaptive median, bound.
            for col in (2, 3):
                ratio = float(row_b[col]) / max(float(row_s[col]), 1e-9)
                assert 0.4 < ratio < 2.5, (row_s, row_b)

    def test_e12_adaptive_adversary_cells_match(self):
        from repro.harness.experiments import exp_adaptive_adversary

        kw = dict(leaf_counts=(8,), trials=12, seed=0)
        single = exp_adaptive_adversary(engine="single", **kw)
        batched = exp_adaptive_adversary(engine="batched", **kw)
        for row_s, row_b in zip(single.rows, batched.rows):
            # Columns: Delta, n, static, oblivious tau=1, adaptive tau=1.
            for col in (2, 3, 4):
                ratio = float(row_b[col]) / max(float(row_s[col]), 1e-9)
                assert 0.4 < ratio < 2.5, (row_s, row_b)
        # The qualitative ordering the experiment exists to show survives
        # the engine change: oblivious churn helps, the adversary hurts.
        _, _, med_static, med_obliv, med_adapt = batched.rows[0]
        assert med_obliv < med_adapt
