"""Tests for the declarative fault-injection subsystem (``repro.faults``).

Covers the schema layer (validation, JSON round-trip, crash-schedule
bookkeeping), the run-time applicators (masks, drops, tag flips, victim
draws), engine behaviour under each fault model, the empty-plan ⇒
bit-identical-to-no-plan guarantee for every tier, and the seeding
contract: fault randomness derives from the trial seed on its own stream,
so the same plan + seed replays identically across processes and the
batched engine, and an unfired plan consumes zero algorithm draws.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.blind_gossip import (
    BlindGossipBatched,
    make_blind_gossip_nodes,
)
from repro.core.batched import BatchedVectorizedEngine
from repro.core.engine import ReferenceEngine
from repro.core.monitor import all_leaders_are, all_leaders_equal
from repro.core.payload import UIDSpace
from repro.core.vectorized import VectorizedEngine
from repro.faults import (
    BatchedFaultState,
    ConnectionDropModel,
    CrashSchedule,
    CrashWindow,
    FaultPlan,
    SingleFaultState,
    StateCorruptionEvent,
    TagCorruptionModel,
    example_plan,
    random_crash_schedule,
)
from repro.graphs import families
from repro.graphs.dynamic import StaticDynamicGraph
from repro.harness.runner import run_trials, run_trials_batched
from repro.util.rng import make_rng


def keys_for(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).permutation(n).astype(np.int64)


# A plan that exercises every model; module-level so the multiprocessing
# determinism test can pickle builders that reference it.
_MIXED_PLAN = FaultPlan(
    crashes=CrashSchedule(
        (
            CrashWindow(node=2, start=4, end=12, reset_on_rejoin=True),
            CrashWindow(node=5, start=8, end=20, reset_on_rejoin=False),
        )
    ),
    connection_drop=ConnectionDropModel(p=0.3),
    state_corruption=(StateCorruptionEvent(round=15, fraction=0.25),),
)


def _build_vec_mixed(trial_seed: int) -> VectorizedEngine:
    """Module-level (picklable) builder for run_trials(processes=K)."""
    graph = families.random_regular(16, 4, seed=0)
    return VectorizedEngine(
        StaticDynamicGraph(graph),
        BlindGossipBatched(keys_for(16)),
        seed=trial_seed,
        fault_plan=_MIXED_PLAN,
    )


class TestSchemaValidation:
    def test_crash_window_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            CrashWindow(node=-1, start=1)
        with pytest.raises(ValueError):
            CrashWindow(node=0, start=0)
        with pytest.raises(ValueError):
            CrashWindow(node=0, start=5, end=4)

    def test_drop_model_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            ConnectionDropModel(p=1.0)
        with pytest.raises(ValueError):
            ConnectionDropModel(p=-0.1)

    def test_tag_model_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            TagCorruptionModel(q=1.0)

    def test_corruption_event_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            StateCorruptionEvent(round=0, fraction=0.5)
        with pytest.raises(ValueError):
            StateCorruptionEvent(round=1, fraction=0.0)
        with pytest.raises(ValueError):
            StateCorruptionEvent(round=1, fraction=1.5)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultPlan.from_dict({"connection_drop": {"p": 0.1}, "typo": 1})

    def test_validate_for_checks_node_indices(self):
        plan = FaultPlan(crashes=CrashSchedule((CrashWindow(node=5, start=1),)))
        plan.validate_for(6)
        with pytest.raises(ValueError, match="node 5"):
            plan.validate_for(5)

    def test_emptiness(self):
        assert FaultPlan().is_empty()
        assert FaultPlan(connection_drop=ConnectionDropModel(p=0.0)).is_empty()
        assert FaultPlan(crashes=CrashSchedule(())).is_empty()
        assert not example_plan().is_empty()

    def test_engine_rejects_out_of_range_plan(self):
        plan = FaultPlan(crashes=CrashSchedule((CrashWindow(node=50, start=1),)))
        with pytest.raises(ValueError):
            VectorizedEngine(
                StaticDynamicGraph(families.clique(8)),
                BlindGossipBatched(keys_for(8)),
                seed=0,
                fault_plan=plan,
            )


class TestJsonRoundTrip:
    def test_example_plan_round_trips(self):
        plan = example_plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_mixed_plan_round_trips(self):
        assert FaultPlan.from_json(_MIXED_PLAN.to_json()) == _MIXED_PLAN

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "plan.json"
        example_plan().to_file(path)
        assert FaultPlan.from_file(path) == example_plan()

    def test_empty_plan_serializes_to_nothing(self):
        assert FaultPlan().to_dict() == {}
        assert FaultPlan.from_dict({}).is_empty()

    def test_empty_parts_drop_to_none_and_serialize_unchanged(self):
        from repro.faults.plan import MembershipSchedule

        plan = FaultPlan(
            crashes=CrashSchedule(()),
            connection_drop=ConnectionDropModel(p=0.0),
            tag_corruption=TagCorruptionModel(q=0.0),
            state_corruption=(StateCorruptionEvent(round=3, fraction=0.5),),
            membership=MembershipSchedule(max_live=4),
        )
        assert plan.crashes is None and plan.connection_drop is None
        assert plan.tag_corruption is None and plan.membership is None
        # The JSON text the plan wrote before empty parts were dropped.
        assert plan.to_json() == (
            '{\n  "state_corruption": [\n    {\n      "round": 3,\n'
            '      "fraction": 0.5\n    }\n  ]\n}'
        )
        assert plan.describe() == "state corruption: 50% at round 3; quiesce round 3"

    def test_describe_mentions_every_model(self):
        text = example_plan().describe()
        for fragment in ("crash", "drop", "flip", "corruption", "membership", "quiesce"):
            assert fragment in text
        assert FaultPlan().describe() == "empty plan (no faults)"


class TestCrashSchedule:
    def test_down_mask_over_window(self):
        sched = CrashSchedule((CrashWindow(node=1, start=3, end=5),))
        assert not sched.down_at(2, 4).any()
        for r in (3, 4, 5):
            assert sched.down_at(r, 4).tolist() == [False, True, False, False]
        assert not sched.down_at(6, 4).any()

    def test_permanent_crash_covers_forever(self):
        w = CrashWindow(node=0, start=10, end=None)
        assert not w.covers(9)
        assert w.covers(10) and w.covers(10**9)

    def test_transition_rounds_are_window_edges(self):
        sched = CrashSchedule(
            (CrashWindow(node=0, start=3, end=5), CrashWindow(node=1, start=7))
        )
        assert sched.transition_rounds() == frozenset({3, 6, 7})

    def test_rejoin_resets_basic(self):
        sched = CrashSchedule((CrashWindow(node=2, start=3, end=5),))
        assert sched.rejoin_resets() == {6: (2,)}

    def test_no_reset_without_flag_or_end(self):
        sched = CrashSchedule(
            (
                CrashWindow(node=0, start=3, end=5, reset_on_rejoin=False),
                CrashWindow(node=1, start=4, end=None),
            )
        )
        assert sched.rejoin_resets() == {}

    def test_adjacent_window_delays_reset(self):
        # Node 0's first window ends at 10, but an adjacent window still
        # holds it down through 15: the round-11 reset must not fire.
        sched = CrashSchedule(
            (
                CrashWindow(node=0, start=5, end=10),
                CrashWindow(node=0, start=11, end=15),
            )
        )
        assert sched.rejoin_resets() == {16: (0,)}

    def test_overlapping_windows_for_one_node_rejected(self):
        with pytest.raises(ValueError, match="overlapping crash windows"):
            CrashSchedule(
                (
                    CrashWindow(node=0, start=5, end=10),
                    CrashWindow(node=0, start=8, end=15),
                )
            )
        with pytest.raises(ValueError, match="overlapping"):
            CrashSchedule(
                (
                    CrashWindow(node=3, start=5, end=None),
                    CrashWindow(node=3, start=50, end=60),
                )
            )
        # Distinct nodes may overlap freely.
        CrashSchedule(
            (
                CrashWindow(node=0, start=5, end=10),
                CrashWindow(node=1, start=8, end=15),
            )
        )

    def test_quiesce_round(self):
        assert CrashSchedule((CrashWindow(node=0, start=3, end=5),)).quiesce_round() == 6
        assert CrashSchedule((CrashWindow(node=0, start=9),)).quiesce_round() == 9

    def test_plan_quiesce_combines_crashes_and_events(self):
        plan = FaultPlan(
            crashes=CrashSchedule((CrashWindow(node=0, start=3, end=5),)),
            state_corruption=(StateCorruptionEvent(round=40, fraction=0.5),),
        )
        assert plan.quiesce_round == 40

    def test_stationary_models_do_not_gate(self):
        plan = FaultPlan(
            connection_drop=ConnectionDropModel(p=0.5),
            tag_corruption=TagCorruptionModel(q=0.1),
        )
        assert plan.quiesce_round == 0


class TestRandomCrashSchedule:
    def test_windows_within_range_and_nodes_distinct(self):
        sched = random_crash_schedule(20, 8, first_round=5, last_round=40, seed=0)
        assert len(sched.windows) == 8
        assert len({w.node for w in sched.windows}) == 8
        for w in sched.windows:
            assert 5 <= w.start <= w.end <= 40
            assert w.reset_on_rejoin

    def test_deterministic_given_seed(self):
        a = random_crash_schedule(16, 5, first_round=2, last_round=30, seed=3)
        b = random_crash_schedule(16, 5, first_round=2, last_round=30, seed=3)
        assert a == b

    def test_zero_count_is_empty(self):
        assert random_crash_schedule(8, 0, first_round=1, last_round=5, seed=0).is_empty()

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            random_crash_schedule(8, 9, first_round=1, last_round=5, seed=0)


class TestSingleApplicator:
    def _state(self, plan, n=8, seed=0, tag_length=0):
        return SingleFaultState(plan, n, make_rng(seed, "faults"), tag_length=tag_length)

    def test_up_mask_none_without_crashes(self):
        fs = self._state(FaultPlan(connection_drop=ConnectionDropModel(p=0.5)))
        assert fs.up_mask(1) is None

    def test_up_mask_tracks_window(self):
        plan = FaultPlan(crashes=CrashSchedule((CrashWindow(node=3, start=2, end=4),)))
        fs = self._state(plan)
        assert fs.up_mask(1) is None
        for r in (2, 3, 4):
            up = fs.up_mask(r)
            assert up is not None and not up[3] and up.sum() == 7
        assert fs.up_mask(5) is None

    def test_connection_keep(self):
        fs = self._state(FaultPlan(connection_drop=ConnectionDropModel(p=0.4)))
        keep = fs.connection_keep(500)
        assert keep.shape == (500,) and keep.dtype == bool
        assert 0.35 < 1.0 - keep.mean() < 0.45  # ~p dropped
        assert fs.connection_keep(0) is None
        assert self._state(FaultPlan()).connection_keep(10) is None

    def test_corruption_victims_sizes(self):
        plan = FaultPlan(state_corruption=(StateCorruptionEvent(round=3, fraction=0.5),))
        fs = self._state(plan)
        assert fs.corruption_victims(2) == []
        (victims,) = fs.corruption_victims(3)
        assert victims.shape == (4,)
        assert len(set(victims.tolist())) == 4

    def test_corrupt_tags_spares_inactive_nodes(self):
        plan = FaultPlan(tag_corruption=TagCorruptionModel(q=0.9))
        fs = self._state(plan, tag_length=2)
        tags = np.zeros(200, dtype=np.int64)
        tags[100:] = -1  # inactive sentinel (reference engine)
        active = np.arange(200) < 100
        fs.corrupt_tags(tags, active)
        assert (tags[100:] == -1).all()
        assert (tags[:100] != 0).any()
        assert ((0 <= tags[:100]) & (tags[:100] < 4)).all()

    def test_corrupt_tags_noop_for_untagged_algorithms(self):
        plan = FaultPlan(tag_corruption=TagCorruptionModel(q=0.9))
        fs = self._state(plan, tag_length=0)
        tags = np.zeros(8, dtype=np.int64)
        fs.corrupt_tags(tags, np.ones(8, dtype=bool))
        assert (tags == 0).all()


class TestBatchedApplicator:
    def test_victims_are_per_replica_k_subsets(self):
        plan = FaultPlan(state_corruption=(StateCorruptionEvent(round=2, fraction=0.5),))
        fs = BatchedFaultState(plan, 10, 6, make_rng(0, "batched-faults", 6))
        (victims,) = fs.corruption_victims(2)
        assert victims.shape == (6, 5)
        for row in victims:
            assert len(set(row.tolist())) == 5
        # Replicas draw independently: rows are not all identical.
        assert any(not np.array_equal(victims[0], row) for row in victims[1:])

    def test_corrupt_tags_broadcasts_activity(self):
        plan = FaultPlan(tag_corruption=TagCorruptionModel(q=0.9))
        fs = BatchedFaultState(plan, 50, 4, make_rng(0, "batched-faults", 4), tag_length=3)
        tags = np.zeros((4, 50), dtype=np.int64)
        active = np.arange(50) < 25
        fs.corrupt_tags(tags, active)
        assert (tags[:, 25:] == 0).all()
        assert (tags[:, :25] != 0).any()


class TestReferenceEngineFaults:
    def test_crash_and_rejoin_with_reset_still_elects(self):
        g = families.random_regular(12, 4, seed=0)
        us = UIDSpace(g.n, seed=1)
        nodes = make_blind_gossip_nodes(us)
        plan = FaultPlan(
            crashes=CrashSchedule((CrashWindow(node=4, start=3, end=10),))
        )
        eng = ReferenceEngine(StaticDynamicGraph(g), nodes, seed=2, fault_plan=plan)
        res = eng.run(50_000, all_leaders_are(us.min_uid()))
        assert res.stabilized
        # Convergence checks are gated until the plan quiesces.
        assert res.rounds >= plan.quiesce_round

    def test_permanently_crashed_node_state_freezes(self):
        g = families.clique(8)
        us = UIDSpace(g.n, seed=1)
        nodes = make_blind_gossip_nodes(us)
        victim = 0 if nodes[0].uid != us.min_uid() else 1
        plan = FaultPlan(
            crashes=CrashSchedule((CrashWindow(node=victim, start=1, end=None),))
        )
        eng = ReferenceEngine(StaticDynamicGraph(g), nodes, seed=2, fault_plan=plan)
        eng.run(3000, lambda ps: False)
        # Down from round 1, the victim never hears anything.
        assert nodes[victim].leader == nodes[victim].uid
        # The survivors elect the global minimum around it.
        assert all(
            nodes[v].leader == us.min_uid() for v in range(g.n) if v != victim
        )

    def test_connection_drops_slow_but_do_not_block(self):
        g = families.clique(8)
        us = UIDSpace(g.n, seed=1)
        nodes = make_blind_gossip_nodes(us)
        plan = FaultPlan(connection_drop=ConnectionDropModel(p=0.5))
        eng = ReferenceEngine(StaticDynamicGraph(g), nodes, seed=2, fault_plan=plan)
        res = eng.run(50_000, all_leaders_are(us.min_uid()))
        assert res.stabilized

    def test_recovers_from_state_corruption(self):
        g = families.random_regular(12, 4, seed=0)
        us = UIDSpace(g.n, seed=1)
        nodes = make_blind_gossip_nodes(us)
        plan = FaultPlan(
            state_corruption=(StateCorruptionEvent(round=5, fraction=0.5),)
        )
        eng = ReferenceEngine(StaticDynamicGraph(g), nodes, seed=2, fault_plan=plan)
        res = eng.run(50_000, all_leaders_equal)
        assert res.stabilized
        assert res.rounds >= 5
        assert all_leaders_equal(nodes)

    def test_empty_plan_is_bit_identical_to_no_plan(self):
        g = families.random_regular(12, 4, seed=0)

        def outcome(fault_plan):
            us = UIDSpace(g.n, seed=1)
            nodes = make_blind_gossip_nodes(us)
            eng = ReferenceEngine(
                StaticDynamicGraph(g), nodes, seed=2, fault_plan=fault_plan
            )
            res = eng.run(50_000, all_leaders_are(us.min_uid()))
            return res.rounds, eng.connections_made, [p.leader for p in nodes]

        assert outcome(FaultPlan()) == outcome(None)


class TestVectorizedEngineFaults:
    def test_empty_plan_is_bit_identical_to_no_plan(self):
        g = families.random_regular(16, 4, seed=0)

        def outcome(fault_plan):
            eng = VectorizedEngine(
                StaticDynamicGraph(g),
                BlindGossipBatched(keys_for(16)),
                seed=5,
                fault_plan=fault_plan,
            )
            res = eng.run(50_000)
            return res.rounds, eng.connections_made, eng.state.best.tolist()

        assert outcome(FaultPlan()) == outcome(None)

    def test_unfired_plan_consumes_no_algorithm_draws(self):
        # A plan whose only event lies beyond the horizon draws nothing
        # from the fault stream and must not perturb the algorithm
        # streams: states stay bit-identical to a faultless engine.
        g = families.random_regular(16, 4, seed=0)
        plan = FaultPlan(
            state_corruption=(StateCorruptionEvent(round=10_000, fraction=0.5),)
        )
        faulty = VectorizedEngine(
            StaticDynamicGraph(g), BlindGossipBatched(keys_for(16)),
            seed=5, fault_plan=plan,
        )
        clean = VectorizedEngine(
            StaticDynamicGraph(g), BlindGossipBatched(keys_for(16)), seed=5
        )
        for r in range(1, 60):
            faulty.step(r)
            clean.step(r)
        assert np.array_equal(faulty.state.best, clean.state.best)
        assert faulty.connections_made == clean.connections_made

    def test_convergence_gated_until_quiesce(self):
        g = families.clique(16)
        plan = FaultPlan(
            state_corruption=(StateCorruptionEvent(round=400, fraction=0.5),)
        )
        eng = VectorizedEngine(
            StaticDynamicGraph(g),
            BlindGossipBatched(keys_for(16)),
            seed=5,
            fault_plan=plan,
        )
        res = eng.run(50_000)
        assert res.stabilized
        # A clique converges in tens of rounds; the gate must hold the
        # verdict until after the scheduled corruption.
        assert res.rounds >= 400


class TestBatchedEngineFaults:
    def test_empty_plan_is_bit_identical_to_no_plan(self):
        g = families.random_regular(16, 4, seed=0)
        keys = keys_for(16)

        def outcomes(fault_plan):
            return run_trials_batched(
                lambda seeds: (StaticDynamicGraph(g), BlindGossipBatched(keys)),
                trials=8,
                max_rounds=50_000,
                seed=7,
                fault_plan=fault_plan,
            )

        a, b = outcomes(FaultPlan()), outcomes(None)
        assert [(o.seed, o.rounds, o.stabilized) for o in a] == [
            (o.seed, o.rounds, o.stabilized) for o in b
        ]

    def test_mixed_plan_all_replicas_recover(self):
        g = families.random_regular(16, 4, seed=0)
        keys = keys_for(16)
        outs = run_trials_batched(
            lambda seeds: (StaticDynamicGraph(g), BlindGossipBatched(keys)),
            trials=8,
            max_rounds=100_000,
            seed=7,
            fault_plan=_MIXED_PLAN,
        )
        assert all(o.stabilized for o in outs)
        assert all(o.rounds >= _MIXED_PLAN.quiesce_round for o in outs)


class TestFaultDeterminism:
    """Satellite: same plan + seed replays identically everywhere."""

    def test_reference_engine_replays_identically(self):
        def run_once():
            g = families.random_regular(12, 4, seed=0)
            us = UIDSpace(g.n, seed=1)
            nodes = make_blind_gossip_nodes(us)
            eng = ReferenceEngine(
                StaticDynamicGraph(g), nodes, seed=9, fault_plan=_MIXED_PLAN
            )
            res = eng.run(50_000, all_leaders_equal)
            return res.rounds, eng.connections_made

        assert run_once() == run_once()

    def test_run_trials_identical_across_process_counts(self):
        kw = dict(trials=6, max_rounds=50_000, seed=11)
        serial = run_trials(_build_vec_mixed, processes=1, **kw)
        forked = run_trials(_build_vec_mixed, processes=2, **kw)
        assert [(o.seed, o.rounds, o.stabilized) for o in serial] == [
            (o.seed, o.rounds, o.stabilized) for o in forked
        ]

    def test_batched_replays_identically(self):
        g = families.random_regular(16, 4, seed=0)
        keys = keys_for(16)

        def once():
            return run_trials_batched(
                lambda seeds: (StaticDynamicGraph(g), BlindGossipBatched(keys)),
                trials=8,
                max_rounds=100_000,
                seed=13,
                fault_plan=_MIXED_PLAN,
            )

        a, b = once(), once()
        assert [(o.seed, o.rounds) for o in a] == [(o.seed, o.rounds) for o in b]
