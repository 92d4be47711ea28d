"""Conformance harness: invariant checkers, trace parity, differential fuzzing.

Covers the three layers of the conformance subsystem:

* the invariant checkers flag hand-built traces that break exactly one
  model rule each (and stay silent on real engine traces);
* cross-engine trace parity — on forced dynamics (PPUSH over a static
  path) all three tiers record bit-identical traces, and trace capture
  never perturbs a run;
* the differential fuzzer is deterministic end to end, including its
  shrinking of failing configurations.

Also holds the regression tests for the two bugs this harness surfaced:
silent τ truncation and stabilization predicates counting permanently
crashed nodes.
"""


import numpy as np
import pytest

from repro.algorithms.blind_gossip import make_blind_gossip_nodes
from repro.algorithms.ppush import PPushBatched, make_ppush_nodes
from repro.conformance import (
    AcceptanceStats,
    FuzzConfig,
    check_batched_trace,
    check_trace,
    fuzz,
    run_config,
    shrink,
)
from repro.conformance.differential import sample_config
from repro.conformance.invariants import check_tau_stability
from repro.core.batched import BatchedVectorizedEngine
from repro.core.engine import ReferenceEngine
from repro.core.monitor import all_leaders_are, excluding_permanently_crashed, rumor_complete
from repro.core.payload import UIDSpace
from repro.core.trace import RoundRecord, Trace, traces_equal
from repro.core.vectorized import VectorizedEngine
from repro.faults.plan import CrashSchedule, CrashWindow, FaultPlan
from repro.graphs import families
from repro.graphs.dynamic import (
    DynamicGraph,
    PeriodicRelabelDynamicGraph,
    StaticDynamicGraph,
    epoch_of_round,
    validate_tau,
)
from repro.harness.runner import trial_seeds_for


def _record(
    n,
    r=1,
    proposals=(),
    connections=(),
    tags=None,
    active=None,
):
    return RoundRecord(
        round_index=r,
        proposals=np.asarray(list(proposals), dtype=np.int64).reshape(-1, 2),
        connections=np.asarray(list(connections), dtype=np.int64).reshape(-1, 2),
        tags=np.zeros(n, dtype=np.int64) if tags is None else np.asarray(tags, dtype=np.int64),
        active=np.ones(n, dtype=bool) if active is None else np.asarray(active, dtype=bool),
    )


def _trace(*records):
    tr = Trace()
    for rec in records:
        tr.append(rec)
    return tr


def _rules(violations):
    return {v.rule for v in violations}


class TestInvariantCheckers:
    """Each hand-built trace breaks exactly one model rule."""

    def setup_method(self):
        self.g = families.clique(6)
        self.dg = StaticDynamicGraph(self.g)

    def test_clean_trace_passes(self):
        rec = _record(6, proposals=[(0, 1), (2, 3)], connections=[(0, 1), (2, 3)])
        assert check_trace(_trace(rec), self.dg) == []

    def test_double_connection_flagged(self):
        # Node 1 accepts two proposals in one round.
        rec = _record(6, proposals=[(0, 1), (2, 1)], connections=[(0, 1), (2, 1)])
        assert _rules(check_trace(_trace(rec), self.dg)) == {"connection-exclusivity"}

    def test_off_edge_proposal_flagged(self):
        g = families.path(6)  # 0-1-2-3-4-5: (0, 5) is not an edge
        rec = _record(6, proposals=[(0, 5)], connections=[(0, 5)])
        assert _rules(check_trace(_trace(rec), StaticDynamicGraph(g))) == {
            "proposals-on-edges"
        }

    def test_self_proposal_flagged(self):
        rec = _record(6, proposals=[(2, 2)], connections=[])
        out = check_trace(_trace(rec), self.dg)
        assert _rules(out) == {"proposals-on-edges"}
        assert "itself" in out[0].detail

    def test_proposal_to_inactive_node_flagged(self):
        active = np.ones(6, dtype=bool)
        active[3] = False
        tags = np.zeros(6, dtype=np.int64)
        tags[3] = -1
        rec = _record(6, proposals=[(0, 3)], connections=[], tags=tags, active=active)
        # (Also trips send-xor-receive: the "listener" accepted nothing.)
        assert "proposals-on-edges" in _rules(check_trace(_trace(rec), self.dg))

    def test_duplicate_proposer_flagged(self):
        rec = _record(6, proposals=[(0, 1), (0, 2)], connections=[(0, 1)])
        assert "proposals-on-edges" in _rules(check_trace(_trace(rec), self.dg))

    def test_over_width_tag_flagged(self):
        tags = np.zeros(6, dtype=np.int64)
        tags[4] = 2  # b = 1 allows only {0, 1}
        rec = _record(6, tags=tags, proposals=[(0, 1)], connections=[(0, 1)])
        assert _rules(check_trace(_trace(rec), self.dg, tag_length=1)) == {"tag-width"}

    def test_inactive_node_advertising_flagged(self):
        active = np.ones(6, dtype=bool)
        active[5] = False
        rec = _record(6, active=active, proposals=[(0, 1)], connections=[(0, 1)])
        # tags default to 0 everywhere; node 5 should have recorded -1.
        assert _rules(check_trace(_trace(rec), self.dg)) == {"tag-width"}

    def test_connection_without_proposal_flagged(self):
        rec = _record(6, proposals=[(0, 1)], connections=[(0, 1), (2, 3)])
        assert _rules(check_trace(_trace(rec), self.dg)) == {"send-xor-receive"}

    def test_proposer_accepting_flagged(self):
        # 0 and 1 both proposed, yet 1 accepted 0's proposal.
        rec = _record(6, proposals=[(0, 1), (1, 2)], connections=[(0, 1), (1, 2)])
        assert "send-xor-receive" in _rules(check_trace(_trace(rec), self.dg))

    def test_silent_listener_flagged_without_drop_model(self):
        # Node 1 listens with an incoming proposal but accepts none.
        rec = _record(6, proposals=[(0, 1)], connections=[])
        assert _rules(check_trace(_trace(rec), self.dg)) == {"send-xor-receive"}

    def test_silent_listener_allowed_with_drop_model(self):
        from repro.faults.plan import ConnectionDropModel

        plan = FaultPlan(connection_drop=ConnectionDropModel(p=0.5))
        rec = _record(6, proposals=[(0, 1)], connections=[])
        assert check_trace(_trace(rec), self.dg, fault_plan=plan) == []

    def test_activation_consistency_flagged(self):
        activation = np.ones(6, dtype=np.int64)
        activation[2] = 5  # node 2 must be inactive in round 1
        rec = _record(6, proposals=[(0, 1)], connections=[(0, 1)])
        out = check_trace(_trace(rec), self.dg, activation_rounds=activation)
        assert _rules(out) == {"activation-consistency"}

    def test_crash_mask_consistency_flagged(self):
        plan = FaultPlan(
            crashes=CrashSchedule((CrashWindow(node=4, start=1, end=3),))
        )
        # Trace claims node 4 was active in round 1 despite the crash.
        rec = _record(6, proposals=[(0, 1)], connections=[(0, 1)])
        out = check_trace(_trace(rec), self.dg, fault_plan=plan)
        assert _rules(out) == {"activation-consistency"}

    def test_mid_epoch_topology_change_flagged(self):
        class FlipFlop(DynamicGraph):
            """Changes topology every round while claiming tau = 2."""

            def __init__(self):
                self.n = 6
                self.tau = 2
                self._a = families.ring(6)
                self._b = families.path(6)

            def graph_at(self, r):
                return self._a if r % 2 else self._b

        out = check_tau_stability(FlipFlop(), horizon=4)
        assert _rules(out) == {"tau-stability"}
        # The legal schedule: constant within each 2-round epoch.
        assert check_tau_stability(StaticDynamicGraph(self.g), horizon=4) == []
        assert (
            check_tau_stability(PeriodicRelabelDynamicGraph(self.g, 3, seed=0), 12)
            == []
        )

    def test_uniform_acceptance_bias_flagged(self):
        stats = AcceptanceStats()
        for _ in range(300):  # always accepting the lowest-id sender
            stats.add_sample(0, 2)
        v = stats.violation()
        assert v is not None and v.rule == "uniform-acceptance"

    def test_uniform_acceptance_null_is_silent(self):
        stats = AcceptanceStats()
        rng = np.random.default_rng(0)
        for _ in range(2000):
            stats.add_sample(int(rng.integers(0, 3)), 3)
        assert stats.violation() is None

    def test_batched_checker_tags_replica(self):
        from repro.core.trace import BatchedTrace

        bt = BatchedTrace(2, 6)
        # Replica 1 carries a self-proposal (flat ids: t * n + v).
        sflat = np.array([0 * 6 + 0, 1 * 6 + 2])
        tflat = np.array([0 * 6 + 1, 1 * 6 + 2])
        bt.append_round(1, sflat, tflat, None, None, None, np.ones(6, dtype=bool))
        out = check_batched_trace(bt, self.dg)
        assert any(v.rule == "proposals-on-edges" and "replica 1" in v.detail for v in out)


class TestEngineTracesAreClean:
    """Real engine traces from all tiers pass every checker."""

    def test_reference_trace_clean(self):
        g = families.clique(8)
        us = UIDSpace(8, seed=5)
        eng = ReferenceEngine(
            StaticDynamicGraph(g),
            make_blind_gossip_nodes(us),
            seed=5,
            collect_trace=True,
        )
        res = eng.run(200, all_leaders_are(us.min_uid()))
        assert res.stabilized
        assert check_trace(res.trace, StaticDynamicGraph(g)) == []

    def test_vectorized_trace_clean_under_churn_and_faults(self):
        g = families.ring(10)
        plan = FaultPlan(
            crashes=CrashSchedule((CrashWindow(node=3, start=2, end=6),))
        )
        dg = PeriodicRelabelDynamicGraph(g, 2, seed=9)
        eng = VectorizedEngine(
            dg, PPushBatched(np.array([0])), seed=9, fault_plan=plan,
            collect_trace=True,
        )
        res = eng.run(500)
        assert res.stabilized
        assert check_trace(res.trace, dg, tag_length=1, fault_plan=plan) == []

    def test_batched_trace_clean(self):
        g = families.star(9)
        seeds = trial_seeds_for(3, 4)
        eng = BatchedVectorizedEngine(
            StaticDynamicGraph(g), PPushBatched(np.array([0])), seeds=seeds,
            collect_trace=True,
        )
        res = eng.run(300)
        assert res.stabilized.all()
        assert check_batched_trace(res.trace, StaticDynamicGraph(g), tag_length=1) == []


class TestCrossEngineTraceParity:
    """Forced dynamics (PPUSH on a path) leave no room for RNG divergence:
    all three tiers must record bit-identical traces."""

    def test_reference_matches_vectorized(self):
        g = families.path(7)
        for seed in (0, 1, 2):
            us = UIDSpace(7, seed=seed)
            ref = ReferenceEngine(
                StaticDynamicGraph(g),
                make_ppush_nodes(us, sources={0}),
                seed=seed,
                collect_trace=True,
            ).run(50, rumor_complete)
            vec = VectorizedEngine(
                StaticDynamicGraph(g),
                PPushBatched(np.array([0])),
                seed=seed,
                collect_trace=True,
            ).run(50)
            assert ref.stabilized and vec.stabilized
            assert ref.rounds == vec.rounds
            assert traces_equal(ref.trace, vec.trace)

    def test_batched_replicas_match_vectorized(self):
        g = families.path(9)
        seeds = trial_seeds_for(11, 5)
        bat = BatchedVectorizedEngine(
            StaticDynamicGraph(g), PPushBatched(np.array([0])), seeds=seeds,
            collect_trace=True,
        ).run(60)
        for t, seed in enumerate(seeds):
            vec = VectorizedEngine(
                StaticDynamicGraph(g), PPushBatched(np.array([0])),
                seed=seed, collect_trace=True,
            ).run(60)
            # The batched engine stops at the last replica's round; the
            # common prefix must agree record for record.
            btr = bat.trace.replica(t)
            for ra, rb in zip(vec.trace.rounds, btr.rounds):
                assert ra.round_index == rb.round_index
                assert np.array_equal(ra.proposals, rb.proposals)
                assert np.array_equal(ra.connections, rb.connections)
                assert np.array_equal(ra.tags, rb.tags)
                assert np.array_equal(ra.active, rb.active)
            assert int(bat.rounds[t]) == vec.rounds


class TestTraceCaptureIsPassive:
    """Collecting a trace must not perturb the run it records."""

    def test_vectorized_traced_equals_untraced(self):
        g = families.ring(12)
        for seed in (0, 7):
            runs = [
                VectorizedEngine(
                    StaticDynamicGraph(g), PPushBatched(np.array([0])),
                    seed=seed, collect_trace=ct,
                ).run(400)
                for ct in (True, False)
            ]
            assert runs[0].stabilized == runs[1].stabilized
            assert runs[0].rounds == runs[1].rounds
            assert runs[0].trace is not None and runs[1].trace is None

    def test_batched_traced_equals_untraced(self):
        g = families.clique(10)
        seeds = trial_seeds_for(2, 6)
        runs = [
            BatchedVectorizedEngine(
                StaticDynamicGraph(g), PPushBatched(np.array([0])),
                seeds=seeds, collect_trace=ct,
            ).run(200)
            for ct in (True, False)
        ]
        assert np.array_equal(runs[0].stabilized, runs[1].stabilized)
        assert np.array_equal(runs[0].rounds, runs[1].rounds)

    def test_traced_rerun_is_bit_identical(self):
        g = families.ring(10)
        mk = lambda: VectorizedEngine(  # noqa: E731
            StaticDynamicGraph(g), PPushBatched(np.array([0])),
            seed=13, collect_trace=True,
        ).run(300)
        assert traces_equal(mk().trace, mk().trace)


class TestTauValidation:
    """Regression: fractional τ used to be silently truncated (τ=2.5 ran as 2)."""

    def test_fractional_tau_rejected(self):
        for bad in (2.5, 0.5, 1.0000001):
            with pytest.raises(ValueError, match="whole number"):
                validate_tau(bad)

    def test_integral_float_tau_normalized(self):
        assert validate_tau(3.0) == 3
        assert isinstance(validate_tau(3.0), int)
        assert validate_tau(float("inf")) == float("inf")

    def test_nonpositive_tau_rejected(self):
        for bad in (0, -1, float("-inf")):
            with pytest.raises(ValueError):
                validate_tau(bad)
        with pytest.raises(ValueError):
            validate_tau(float("nan"))

    def test_constructors_reject_fractional_tau(self):
        g = families.ring(8)
        with pytest.raises(ValueError, match="whole number"):
            PeriodicRelabelDynamicGraph(g, 2.5, seed=0)
        with pytest.raises(ValueError, match="whole number"):
            epoch_of_round(10, 2.5)

    def test_cli_rejects_fractional_tau(self, capsys):
        from repro.cli import main

        code = main(
            ["simulate", "ppush", "--family", "clique", "--params", "8", "--tau", "2.5"]
        )
        assert code == 2
        assert "whole number" in capsys.readouterr().err

    def test_cli_accepts_integral_float_tau(self):
        from repro.cli import main

        code = main(
            ["simulate", "ppush", "--family", "clique", "--params", "8", "--tau", "3.0"]
        )
        assert code == 0


class TestPermanentCrashStabilization:
    """Regression: predicates used to demand agreement from permanently
    crashed (frozen) nodes, making stabilization unreachable whenever the
    winner spread after the crash."""

    PLAN = FaultPlan(crashes=CrashSchedule((CrashWindow(node=2, start=2, end=None),)))

    def test_reference_stabilizes_past_dead_node(self):
        g = families.clique(8)
        us = UIDSpace(8, seed=1)
        winner = us.min_uid()
        victim = next(v for v in range(8) if us.uid_of(v) != winner)
        plan = FaultPlan(
            crashes=CrashSchedule((CrashWindow(node=victim, start=2, end=None),))
        )
        res = ReferenceEngine(
            StaticDynamicGraph(g), make_blind_gossip_nodes(us), seed=1,
            fault_plan=plan,
        ).run(500, all_leaders_are(winner))
        assert res.stabilized

    def test_vectorized_stabilizes_past_dead_node(self):
        g = families.clique(8)
        res = VectorizedEngine(
            StaticDynamicGraph(g), PPushBatched(np.array([0])), seed=4,
            fault_plan=self.PLAN,
        ).run(500)
        assert res.stabilized

    def test_batched_stabilizes_past_dead_node(self):
        g = families.clique(8)
        res = BatchedVectorizedEngine(
            StaticDynamicGraph(g), PPushBatched(np.array([0])),
            seeds=trial_seeds_for(0, 4), fault_plan=self.PLAN,
        ).run(500)
        assert res.stabilized.all()

    def test_excluding_permanently_crashed_helper(self):
        protos = ["a", "b", "c", "d"]
        plan = FaultPlan(
            crashes=CrashSchedule(
                (
                    CrashWindow(node=1, start=2, end=None),
                    CrashWindow(node=3, start=2, end=9),
                )
            )
        )
        assert excluding_permanently_crashed(protos, plan) == ["a", "c", "d"]
        assert excluding_permanently_crashed(protos, None) == protos


class TestDifferentialFuzzer:
    def test_sampling_is_deterministic(self):
        a = [sample_config(5, i) for i in range(20)]
        b = [sample_config(5, i) for i in range(20)]
        assert a == b
        assert a != [sample_config(6, i) for i in range(20)]

    def test_config_json_roundtrip(self):
        import json

        for i in range(30):
            cfg = sample_config(2, i)
            assert FuzzConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_small_fuzz_session_is_clean_and_deterministic(self):
        a = fuzz(6, 0)
        b = fuzz(6, 0)
        assert a.ok, [f.failure_lines() for f in a.failures]
        assert b.ok
        assert a.pooled_log_ratio == b.pooled_log_ratio
        assert a.acceptance.count == b.acceptance.count

    def test_run_config_reports_crash_as_finding(self):
        # A configuration whose run raises is reported as a finding, not
        # an abort of the whole fuzz session.
        cfg = FuzzConfig(
            family="path", n=8, algorithm="push_pull", tau=None,
            fault={"kind": "bogus"}, activation="sync", seed=0,
        )
        report = run_config(cfg)
        assert report.failed
        assert any("exception:" in line for line in report.mismatches)

    def test_shrink_is_deterministic_and_minimizing(self):
        cfg = FuzzConfig(
            family="path", n=22, algorithm="ppush", tau=3,
            fault={"kind": "mixed", "windows": [[1, 2, 6]], "p": 0.1},
            activation="sync", seed=123,
        )
        # Synthetic oracle: "fails" whenever the topology churns — the
        # minimum keeps τ and strips everything else.
        fails = lambda c: c.tau is not None  # noqa: E731
        first = shrink(cfg, fails)
        second = shrink(cfg, fails)
        assert first == second
        assert first == FuzzConfig(
            family="clique", n=8, algorithm="ppush", tau=3,
            fault=None, activation="sync", seed=123,
        )

    def test_shrink_keeps_the_failures_cause(self):
        # A real failing run (broken fault spec -> exception): shrinking
        # must keep the fault while simplifying everything around it.
        cfg = FuzzConfig(
            family="ring", n=20, algorithm="push_pull", tau=2,
            fault={"kind": "bogus"}, activation="sync", seed=7,
        )
        minimal = shrink(cfg, lambda c: run_config(c).failed, max_steps=12)
        assert run_config(minimal).failed
        assert minimal.fault is not None
        assert minimal.n == 8 and minimal.tau is None


class TestAsyncFuzzing:
    """The event tier rides along in the differential fuzzer."""

    def test_sampling_covers_the_async_tier(self):
        configs = [sample_config(0, i) for i in range(60)]
        asyncs = [c for c in configs if c.engine == "async"]
        assert asyncs, "no async configuration in 60 samples"
        assert {c.scheduler for c in asyncs} <= {"random", "adversarial"}
        assert all(c.algorithm in ("blind_gossip", "push_pull") for c in asyncs)
        assert all(1 <= c.delta <= 8 and c.n <= 16 for c in asyncs)

    def test_async_config_runs_clean(self):
        cfg = FuzzConfig(
            family="clique", n=10, algorithm="blind_gossip", tau=2,
            fault={"kind": "drop", "p": 0.1}, activation="sync", seed=11,
            engine="async", delta=4, scheduler="adversarial",
        )
        report = run_config(cfg)
        assert not report.failed, report.failure_lines()

    def test_async_config_json_roundtrip_and_legacy_defaults(self):
        import json

        cfg = FuzzConfig(
            family="ring", n=8, algorithm="push_pull", tau=None,
            fault=None, activation="sync", seed=3,
            engine="async", delta=2, scheduler="random",
        )
        assert FuzzConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
        # Pre-async repro files carry no engine/delta/scheduler keys.
        legacy = {k: v for k, v in cfg.to_dict().items()
                  if k not in ("engine", "delta", "scheduler")}
        old = FuzzConfig.from_dict(legacy)
        assert (old.engine, old.delta, old.scheduler) == ("sync", 1, "random")

    def test_shrink_falls_back_to_sync_then_simplifies_schedule(self):
        cfg = FuzzConfig(
            family="ring", n=16, algorithm="blind_gossip", tau=2,
            fault={"kind": "drop", "p": 0.1}, activation="sync", seed=9,
            engine="async", delta=8, scheduler="adversarial",
        )
        # Oracle blames the engine alone: the minimum is the simplest
        # async configuration.
        m = shrink(cfg, lambda c: c.engine == "async")
        assert (m.engine, m.delta, m.scheduler) == ("async", 1, "random")
        assert m.fault is None and m.tau is None and m.n == 8
        # Oracle blames the adversary at delta > 1: both survive shrinking.
        m2 = shrink(
            cfg,
            lambda c: c.engine == "async"
            and c.scheduler == "adversarial"
            and c.delta > 1,
        )
        assert m2.engine == "async" and m2.scheduler == "adversarial"
        assert m2.delta > 1 and m2.fault is None

    def test_async_failure_is_detected_and_reported(self):
        # delta=0 is invalid: the exception surfaces as a finding.
        cfg = FuzzConfig(
            family="clique", n=8, algorithm="push_pull", tau=None,
            fault=None, activation="sync", seed=0,
            engine="async", delta=0, scheduler="random",
        )
        report = run_config(cfg)
        assert report.failed
        assert any("delta" in line for line in report.mismatches)
