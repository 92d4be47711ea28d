"""Open-world membership: schedules, engine plumbing, and the live monitor."""

import json

import numpy as np
import pytest

from repro.algorithms.blind_gossip import (
    BlindGossipBatched,
    make_blind_gossip_nodes,
)
from repro.core.batched import BatchedVectorizedEngine
from repro.core.capabilities import UnsupportedFeature
from repro.core.engine import ReferenceEngine
from repro.core.monitor import (
    LiveAgreementMonitor,
    excluding_permanently_crashed,
    live_population_agrees,
)
from repro.core.payload import UIDSpace
from repro.core.vectorized import VectorizedEngine
from repro.faults.apply import SingleFaultState
from repro.faults.plan import (
    CrashSchedule,
    CrashWindow,
    FaultPlan,
    MembershipEvent,
    MembershipSchedule,
    leader_assassin_schedule,
    random_membership_schedule,
)
from repro.graphs import families
from repro.graphs.dynamic import StaticDynamicGraph
from repro.util.rng import make_rng


def _keys(n, seed=0):
    return make_rng(seed, "uid-keys").choice(10 * n, size=n, replace=False)


# ---------------------------------------------------------------------------
# Schedule construction and validation
# ---------------------------------------------------------------------------


class TestMembershipSchedule:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            MembershipEvent(slot=-1, round=1, kind="join")
        with pytest.raises(ValueError):
            MembershipEvent(slot=0, round=0, kind="join")
        with pytest.raises(ValueError):
            MembershipEvent(slot=0, round=1, kind="vanish")

    def test_two_events_same_slot_same_round_rejected(self):
        with pytest.raises(ValueError, match="two membership events"):
            MembershipSchedule(
                events=(
                    MembershipEvent(slot=2, round=5, kind="depart"),
                    MembershipEvent(slot=2, round=5, kind="join"),
                )
            )

    def test_presence_alternation_enforced(self):
        # A present slot cannot join again without departing first.
        with pytest.raises(ValueError, match="already present"):
            MembershipSchedule(events=(MembershipEvent(slot=0, round=3, kind="join"),))
        with pytest.raises(ValueError, match="already absent"):
            MembershipSchedule(
                initial_absent=(1,),
                events=(MembershipEvent(slot=1, round=3, kind="depart"),),
            )

    def test_down_at_follows_timeline(self):
        sched = MembershipSchedule(
            events=(
                MembershipEvent(slot=1, round=4, kind="depart"),
                MembershipEvent(slot=2, round=6, kind="join"),
                MembershipEvent(slot=1, round=8, kind="join"),
            ),
            initial_absent=(2,),
        )
        n = 4
        assert sched.down_at(1, n).tolist() == [False, False, True, False]
        assert sched.down_at(4, n).tolist() == [False, True, True, False]
        assert sched.down_at(6, n).tolist() == [False, True, False, False]
        assert sched.down_at(8, n).tolist() == [False, False, False, False]

    def test_state_resets_cover_joins_and_clean_departures(self):
        sched = MembershipSchedule(
            events=(
                MembershipEvent(slot=0, round=3, kind="depart_clean"),
                MembershipEvent(slot=1, round=3, kind="depart"),
                MembershipEvent(slot=2, round=5, kind="join"),
            ),
            initial_absent=(2,),
        )
        assert sched.state_resets() == {3: (0,), 5: (2,)}
        assert sched.never_return() == frozenset({0, 1})

    def test_validate_for_cap_and_emptiness(self):
        sched = MembershipSchedule(
            events=(MembershipEvent(slot=0, round=2, kind="depart"),), max_live=2
        )
        sched.validate_for(2)
        with pytest.raises(ValueError, match="above the declared cap"):
            MembershipSchedule(max_live=1).validate_for(3)
        empties = MembershipSchedule(
            events=(
                MembershipEvent(slot=0, round=2, kind="depart"),
                MembershipEvent(slot=1, round=2, kind="depart"),
            )
        )
        with pytest.raises(ValueError, match="empties the network"):
            empties.validate_for(2)

    def test_plan_declared_n_checked_at_construction(self):
        sched = MembershipSchedule(
            events=(MembershipEvent(slot=9, round=2, kind="depart"),)
        )
        with pytest.raises(ValueError, match="slot 9"):
            FaultPlan(membership=sched, n=4)
        plan = FaultPlan(membership=sched, n=12)
        with pytest.raises(ValueError, match="declared for n=12"):
            plan.validate_for(10)

    def test_json_round_trip(self):
        plan = FaultPlan(
            crashes=CrashSchedule((CrashWindow(node=1, start=2, end=5),)),
            membership=MembershipSchedule(
                events=(
                    MembershipEvent(slot=3, round=4, kind="depart_clean"),
                    MembershipEvent(slot=3, round=9, kind="join"),
                ),
                initial_absent=(5,),
                max_live=7,
            ),
            n=8,
        )
        back = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert back == plan
        assert "membership" in plan.describe()
        assert "join" in plan.describe()


class TestMembershipGenerators:
    def test_random_schedule_deterministic_and_capped(self):
        a = random_membership_schedule(
            12, 8, first_round=2, last_round=30, seed=5, initial_absent=2, min_live=3
        )
        b = random_membership_schedule(
            12, 8, first_round=2, last_round=30, seed=5, initial_absent=2, min_live=3
        )
        assert a == b
        a.validate_for(12)
        live = 12 - len(a.initial_absent)
        for r in sorted({e.round for e in a.events}):
            down = a.down_at(r, 12)
            assert 3 <= 12 - int(down.sum()) <= 12

    def test_protect_pins_slots_live(self):
        for seed in range(6):
            sched = random_membership_schedule(
                10,
                12,
                first_round=2,
                last_round=40,
                seed=seed,
                initial_absent=2,
                min_live=2,
                protect=(0, 3),
            )
            assert 0 not in sched.initial_absent
            assert 3 not in sched.initial_absent
            assert all(e.slot not in (0, 3) for e in sched.events if e.kind != "join")

    def test_assassin_targets_smallest_keys_in_order(self):
        keys = np.array([40, 10, 30, 20, 50])
        sched = leader_assassin_schedule(keys, period=5, kills=3, first_round=2)
        departs = [e for e in sched.events if e.kind == "depart"]
        assert [e.slot for e in departs] == [1, 3, 2]
        assert [e.round for e in departs] == [2, 7, 12]
        assert sched.never_return() == frozenset({1, 3, 2})

    def test_assassin_with_down_for_rejoins(self):
        keys = np.array([40, 10, 30, 20])
        sched = leader_assassin_schedule(keys, period=6, kills=2, first_round=3, down_for=6)
        assert sched.never_return() == frozenset()
        joins = [e for e in sched.events if e.kind == "join"]
        assert [(e.slot, e.round) for e in joins] == [(1, 9), (3, 15)]


# ---------------------------------------------------------------------------
# Engine plumbing: identical application across tiers
# ---------------------------------------------------------------------------


def _churn_plan(n):
    return FaultPlan(
        membership=MembershipSchedule(
            events=(
                MembershipEvent(slot=2, round=3, kind="depart"),
                MembershipEvent(slot=5, round=4, kind="depart_clean"),
                MembershipEvent(slot=7, round=6, kind="join"),
                MembershipEvent(slot=2, round=8, kind="join"),
                MembershipEvent(slot=5, round=10, kind="join"),
            ),
            initial_absent=(7,),
        ),
        n=n,
    )


class TestCrossTierApplication:
    def test_active_masks_identical_on_all_tiers(self):
        n, rounds = 10, 14
        g = families.random_regular(n, 4, seed=3)
        keys = _keys(n)
        uids = UIDSpace(n, seed=0)
        plan = _churn_plan(n)

        ref = ReferenceEngine(
            StaticDynamicGraph(g),
            make_blind_gossip_nodes(uids),
            seed=1,
            fault_plan=plan,
            collect_trace=True,
        )
        vec = VectorizedEngine(
            StaticDynamicGraph(g),
            BlindGossipBatched(keys),
            seed=1,
            fault_plan=plan,
            collect_trace=True,
        )
        bat = BatchedVectorizedEngine(
            StaticDynamicGraph(g),
            BlindGossipBatched(keys),
            seeds=[1, 2],
            fault_plan=plan,
            collect_trace=True,
        )
        for r in range(1, rounds + 1):
            ref.step(r)
            vec.step(r)
            bat.step(r)
        for i in range(rounds):
            a = ref.trace.rounds[i].active
            assert np.array_equal(a, vec.trace.rounds[i].active)
            assert np.array_equal(a, bat.trace.replica(0).rounds[i].active)
            assert np.array_equal(a, bat.trace.replica(1).rounds[i].active)
        # last_active mirrors the final round's mask on every tier.
        assert np.array_equal(ref.last_active, vec.last_active)
        assert np.array_equal(ref.last_active, bat.last_active)

    def test_depart_clean_resets_state_but_depart_freezes(self):
        n = 8
        g = families.clique(n)
        keys = _keys(n)
        winner = int(np.argmin(keys))
        frozen = (winner + 1) % n
        cleaned = (winner + 2) % n
        plan = FaultPlan(
            membership=MembershipSchedule(
                events=(
                    MembershipEvent(slot=frozen, round=6, kind="depart"),
                    MembershipEvent(slot=cleaned, round=6, kind="depart_clean"),
                )
            ),
            n=n,
        )
        eng = VectorizedEngine(
            StaticDynamicGraph(g), BlindGossipBatched(keys), seed=2, fault_plan=plan
        )
        for r in range(1, 12):
            eng.step(r)
        # On a clique everyone holds the minimum by round 5; the crash-like
        # departure freezes that adopted value, the clean one wipes it.
        assert int(eng.state.best[0, frozen]) == int(keys[winner])
        assert int(eng.state.best[0, cleaned]) == int(keys[cleaned])

    def test_join_brings_fresh_state(self):
        n = 8
        g = families.clique(n)
        keys = _keys(n)
        joiner = int(np.argmax(keys))  # never the winner
        plan = FaultPlan(
            membership=MembershipSchedule(
                events=(MembershipEvent(slot=joiner, round=7, kind="join"),),
                initial_absent=(joiner,),
            ),
            n=n,
        )
        eng = VectorizedEngine(
            StaticDynamicGraph(g), BlindGossipBatched(keys), seed=2, fault_plan=plan
        )
        for r in range(1, 7):
            eng.step(r)
        eng.step(7)
        state = SingleFaultState(plan, n, make_rng(0, "x"))
        assert joiner in state.rejoin_resets(7)
        res = eng.run(60)
        assert res.stabilized

    def test_async_tier_rejects_membership(self):
        from repro.asyncsim.algorithms import blind_gossip_setup
        from repro.asyncsim.engine import EventSimEngine

        n = 6
        uids = UIDSpace(n, seed=0)
        setup = blind_gossip_setup(uids)
        plan = FaultPlan(
            membership=MembershipSchedule(
                events=(MembershipEvent(slot=0, round=3, kind="depart"),)
            ),
            n=n,
        )
        with pytest.raises(UnsupportedFeature, match="membership"):
            EventSimEngine(
                StaticDynamicGraph(families.clique(n)), setup.nodes, seed=1,
                fault_plan=plan,
            )


# ---------------------------------------------------------------------------
# Satellite: excluding_permanently_crashed / node_done edge cases
# ---------------------------------------------------------------------------


class TestPermanentExclusionEdgeCases:
    def test_crash_at_round_zero_rejected(self):
        with pytest.raises(ValueError):
            CrashWindow(node=0, start=0, end=3)
        with pytest.raises(ValueError):
            MembershipEvent(slot=0, round=0, kind="depart")

    def test_crash_at_round_one_excludes_node_from_round_one(self):
        plan = FaultPlan(crashes=CrashSchedule((CrashWindow(node=1, start=1, end=2),)))
        state = SingleFaultState(plan, 4, make_rng(0, "x"))
        assert state.up_mask(1).tolist() == [True, False, True, True]
        assert state.up_mask(3) is None  # everyone back up

    def test_rejoin_exactly_at_window_boundary(self):
        # Window [2, 5]: down through round 5, reset + live exactly at 6.
        plan = FaultPlan(crashes=CrashSchedule((CrashWindow(node=2, start=2, end=5),)))
        state = SingleFaultState(plan, 4, make_rng(0, "x"))
        assert not state.up_mask(5)[2]
        assert state.up_mask(6) is None  # all up again from round 6
        assert state.rejoin_resets(6).tolist() == [2]
        assert state.rejoin_resets(5).size == 0

    def test_crash_rejoin_into_membership_absence_is_moot(self):
        # The crash window ends at round 5, but the membership schedule has
        # already removed the slot for good: no reset fires at round 6.
        plan = FaultPlan(
            crashes=CrashSchedule((CrashWindow(node=1, start=2, end=5),)),
            membership=MembershipSchedule(
                events=(MembershipEvent(slot=1, round=4, kind="depart"),)
            ),
            n=6,
        )
        state = SingleFaultState(plan, 6, make_rng(0, "x"))
        assert state.rejoin_resets(6).size == 0
        assert not state.up_mask(8)[1]

    def test_crashed_then_departed_both_excluded(self):
        plan = FaultPlan(
            crashes=CrashSchedule((CrashWindow(node=0, start=3, end=None),)),
            membership=MembershipSchedule(
                events=(MembershipEvent(slot=4, round=5, kind="depart"),)
            ),
            n=6,
        )
        protocols = list(range(6))
        kept = excluding_permanently_crashed(protocols, plan)
        assert kept == [1, 2, 3, 5]
        state = SingleFaultState(plan, 6, make_rng(0, "x"))
        assert state.perma_down.tolist() == [True, False, False, False, True, False]

    def test_vectorized_run_converges_past_permanent_departure(self):
        # node_done is evaluated only over slots that can still change
        # state; a frozen never-returning slot must not block convergence.
        n = 10
        g = families.random_regular(n, 4, seed=1)
        keys = _keys(n)
        loser = int(np.argmax(keys))
        plan = FaultPlan(
            membership=MembershipSchedule(
                events=(MembershipEvent(slot=loser, round=2, kind="depart"),)
            ),
            n=n,
        )
        res = VectorizedEngine(
            StaticDynamicGraph(g), BlindGossipBatched(keys), seed=4, fault_plan=plan
        ).run(300)
        assert res.stabilized


# ---------------------------------------------------------------------------
# The open-world stabilization predicate
# ---------------------------------------------------------------------------


class TestLiveAgreementMonitor:
    def test_live_population_agrees_election(self):
        keys = np.array([5, 1, 9, 3])
        values = np.array([1, 1, 1, 1])
        live = np.array([True, True, True, True])
        assert live_population_agrees(values, live, leader_keys=keys)
        # The agreed key's holder is dead: not a live leader.
        live = np.array([True, False, True, True])
        assert not live_population_agrees(values, live, leader_keys=keys)
        # Disagreement among the live.
        assert not live_population_agrees(
            np.array([1, 1, 3, 1]), np.ones(4, bool), leader_keys=keys
        )
        # Nobody live: vacuously not stabilized.
        assert not live_population_agrees(values, np.zeros(4, bool), leader_keys=keys)

    def test_live_population_agrees_rumor(self):
        informed = np.array([True, False, True])
        assert live_population_agrees(informed, np.array([True, False, True]))
        assert not live_population_agrees(informed, np.ones(3, bool))

    def test_monitor_latches_streak_start(self):
        keys = np.array([2, 1, 3])
        mon = LiveAgreementMonitor(3, leader_keys=keys)
        live = np.ones(3, bool)
        agreed = np.array([1, 1, 1])
        assert not mon.observe(1, np.array([2, 1, 3]), live)
        assert not mon.observe(2, agreed, live)
        assert not mon.observe(3, agreed, live)
        assert mon.observe(4, agreed, live)
        assert mon.stabilized_round == 2
        # Latched: later churn does not un-stabilize.
        assert mon.observe(5, np.array([9, 9, 9]), live)
        assert mon.stabilized_round == 2

    def test_streak_resets_when_agreed_value_changes(self):
        keys = np.array([2, 1])
        mon = LiveAgreementMonitor(3, leader_keys=keys)
        live = np.ones(2, bool)
        assert not mon.observe(1, np.array([1, 1]), live)
        assert not mon.observe(2, np.array([2, 2]), live)  # new value: streak restarts
        assert not mon.observe(3, np.array([2, 2]), live)
        assert mon.observe(4, np.array([2, 2]), live)
        assert mon.stabilized_round == 2

    def test_monitor_requires_consecutive_rounds(self):
        mon = LiveAgreementMonitor(2)
        mon.observe(1, np.array([True]), np.array([True]))
        with pytest.raises(ValueError, match="once per round"):
            mon.observe(3, np.array([True]), np.array([True]))

    def test_monitor_with_engine_last_active(self):
        n = 8
        g = families.clique(n)
        keys = _keys(n)
        plan = _churn_plan(n)
        eng = VectorizedEngine(
            StaticDynamicGraph(g), BlindGossipBatched(keys), seed=3, fault_plan=plan
        )
        mon = LiveAgreementMonitor(4, leader_keys=keys)
        done = None
        for r in range(1, 60):
            eng.step(r)
            if mon.observe(r, eng.state.best[0], eng.last_active):
                done = r
                break
        assert done is not None and mon.stabilized
