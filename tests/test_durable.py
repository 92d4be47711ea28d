"""Tests for the durable execution layer (the bounded fork-per-unit
wave, timeouts, retries, degradation, trial checkpoints).

The recurring trick: a *heal-once* builder that misbehaves (hangs,
SIGKILLs itself, raises) only while a marker file is absent, creating the
marker first — so the first attempt fails in the forked worker, the
retry succeeds, and the final outcomes must equal a clean run's.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.algorithms.blind_gossip import BlindGossipBatched
from repro.core.vectorized import VectorizedEngine
from repro.graphs import families
from repro.graphs.dynamic import StaticDynamicGraph
from repro.harness import durable
from repro.harness.campaign import CampaignConfig, run_campaign
from repro.harness.durable import (
    DurableExecutionError,
    DurablePolicy,
    FailureBudgetExceeded,
    TrialCheckpointStore,
    UnitFailure,
    _run_wave,
    active_policy,
    run_isolated,
    run_trials_batched_durable,
    run_trials_durable,
    use_policy,
)
from repro.harness.experiments import uid_keys_random
from repro.harness.persistence import load_document
from repro.harness.runner import run_trials, run_trials_batched, trial_seeds_for

GRAPH = families.double_star(4)


def good_build(seed: int) -> VectorizedEngine:
    return VectorizedEngine(
        StaticDynamicGraph(GRAPH),
        BlindGossipBatched(uid_keys_random(GRAPH.n, seed)),
        seed=seed,
    )


def good_build_batched(seeds):
    return StaticDynamicGraph(GRAPH), BlindGossipBatched(uid_keys_random(GRAPH.n, 3))


def fast_policy(**kw) -> DurablePolicy:
    kw.setdefault("backoff_base", 0.0)
    kw.setdefault("sleep", lambda s: None)
    return DurablePolicy(**kw)


class _HangingEngine:
    def run(self, max_rounds, *, check_every=1):  # pragma: no cover - killed
        time.sleep(60)


class TestPolicy:
    def test_backoff_sequence(self):
        policy = DurablePolicy(backoff_base=0.25, backoff_cap=1.0)
        assert [policy.backoff_delay(a) for a in range(4)] == [0.25, 0.5, 1.0, 1.0]

    def test_unit_timeout_scales_with_trials(self):
        policy = DurablePolicy(timeout_per_trial=2.0)
        assert policy.unit_timeout(5) == 10.0
        assert DurablePolicy().unit_timeout(5) is None

    def test_context_activation(self):
        assert active_policy() is None
        policy = DurablePolicy()
        with use_policy(policy):
            assert active_policy() is policy
            with use_policy(None):
                assert active_policy() is None
            assert active_policy() is policy
        assert active_policy() is None


def _timed_unit(seconds: float = 0.05) -> tuple[int, float, float]:
    start = time.monotonic()
    time.sleep(seconds)
    return os.getpid(), start, time.monotonic()


def _pid_then_sleep(path) -> None:  # pragma: no cover - killed
    path.write_text(str(os.getpid()))
    time.sleep(60)


def _reaped(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestWave:
    def test_runs_more_units_than_width(self):
        results, failures = _run_wave(
            {i: (f"u{i}", _timed_unit, None) for i in range(7)}, width=2
        )
        assert not failures and sorted(results) == list(range(7))
        assert len({pid for pid, _, _ in results.values()}) == 7  # one fork per unit
        spans = list(results.values())
        for _, start, _ in spans:
            alive = sum(1 for _, s, e in spans if s <= start < e)
            assert alive <= 2

    def test_error_unit_does_not_cancel_siblings(self):
        def boom():
            raise ValueError("unit exploded")

        results, failures = _run_wave(
            {0: ("bad", boom, None), 1: ("good", lambda: 3 * 3, None)}, width=1
        )
        assert results == {1: 9}
        assert failures[0].kind == "error" and "ValueError" in failures[0].detail

    def test_timeout_kills_child(self, tmp_path):
        pid_file = tmp_path / "hung.pid"
        start = time.monotonic()
        results, failures = _run_wave(
            {
                0: ("hang", lambda: _pid_then_sleep(pid_file), 0.5),
                1: ("quick", lambda: 16, None),
            }
        )
        assert results == {1: 16}
        assert failures[0].kind == "timeout"
        assert time.monotonic() - start < 10
        assert _reaped(int(pid_file.read_text()))

    def test_sigkilled_child_reported_as_crash(self):
        results, failures = _run_wave(
            {
                0: ("suicidal", lambda: os.kill(os.getpid(), signal.SIGKILL), None),
                1: ("healthy", lambda: "survived", None),
            }
        )
        assert results == {1: "survived"}
        assert failures[0].kind == "crash"

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            _run_wave({0: ("u", lambda: 1, None)}, width=0)

    def test_keyboard_interrupt_leaves_no_live_child(self, tmp_path, monkeypatch):
        pid_files = [tmp_path / f"{i}.pid" for i in range(3)]

        real_wait = durable.mp_connection.wait
        calls = []

        def interrupted_wait(handles, timeout=None):
            # Interrupt the wave's first wait, once both children started;
            # later waits (reaping the killed children) are real.
            calls.append(timeout)
            if len(calls) > 1:
                return real_wait(handles, timeout)
            deadline = time.monotonic() + 10
            while not all(p.exists() and p.read_text() for p in pid_files[:2]):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            raise KeyboardInterrupt

        monkeypatch.setattr(durable.mp_connection, "wait", interrupted_wait)
        with pytest.raises(KeyboardInterrupt):
            _run_wave(
                {
                    i: (f"u{i}", (lambda p: lambda: _pid_then_sleep(p))(p), None)
                    for i, p in enumerate(pid_files)
                },
                width=2,
            )
        assert not pid_files[2].exists()  # queued beyond the width: never forked
        assert all(_reaped(int(p.read_text())) for p in pid_files[:2])


class TestNestedWaves:
    def test_pooled_campaign_cells_fork_trial_waves(self, tmp_path):
        """A pooled cell's child forks its own trial-chunk wave (per-trial
        timeouts force it), and the tables equal a serial campaign's."""
        kw = dict(
            exp_ids=("E1", "E3"),
            overrides={
                "E1": {"n_small": 6, "random_graphs": 1},
                "E3": {"leaf_counts": (4, 8), "trials": 4},
            },
            backoff_base=0.0,
            verify=False,
        )
        serial = run_campaign(CampaignConfig(checkpoint_dir=tmp_path / "serial", **kw))
        pooled = run_campaign(
            CampaignConfig(
                checkpoint_dir=tmp_path / "pooled",
                pool_workers=2,
                timeout_per_trial=60.0,
                processes=2,
                **kw,
            )
        )
        assert serial.ok and pooled.ok and not pooled.failures
        assert [c.status for c in pooled.cells] == ["completed", "completed"]
        for s_cell, p_cell in zip(serial.cells, pooled.cells):
            assert load_document(p_cell.path).table == load_document(s_cell.path).table


class TestRunIsolated:
    def test_returns_value(self):
        assert run_isolated(lambda: 41 + 1) == 42

    def test_timeout_kills_worker(self):
        start = time.monotonic()
        with pytest.raises(UnitFailure) as exc_info:
            run_isolated(lambda: time.sleep(60), timeout=0.3, unit="sleeper")
        assert exc_info.value.kind == "timeout"
        assert time.monotonic() - start < 10

    def test_worker_exception_reported(self):
        def boom():
            raise RuntimeError("kaput")

        with pytest.raises(UnitFailure) as exc_info:
            run_isolated(boom)
        assert exc_info.value.kind == "error"
        assert "kaput" in exc_info.value.detail

    def test_worker_sigkill_detected(self):
        with pytest.raises(UnitFailure) as exc_info:
            run_isolated(lambda: os.kill(os.getpid(), signal.SIGKILL))
        assert exc_info.value.kind == "crash"


class TestDurableTrials:
    def test_matches_plain_serial(self):
        plain = run_trials(good_build, trials=5, max_rounds=500, seed=7)
        assert run_trials_durable(good_build, trials=5, max_rounds=500, seed=7) == plain

    def test_matches_plain_with_timeout_and_processes(self):
        plain = run_trials(good_build, trials=5, max_rounds=500, seed=7)
        durable = run_trials_durable(
            good_build, trials=5, max_rounds=500, seed=7,
            policy=fast_policy(timeout_per_trial=30.0, processes=2),
        )
        assert durable == plain

    def test_hung_trial_killed_and_retried(self, tmp_path):
        marker = tmp_path / "healed"

        def build(seed):
            if not marker.exists():
                marker.write_text("x")
                return _HangingEngine()
            return good_build(seed)

        policy = fast_policy(timeout_per_trial=0.4, max_retries=2, processes=2)
        budget = policy.new_budget()
        out = run_trials_durable(
            build, trials=4, max_rounds=500, seed=7, policy=policy, budget=budget
        )
        assert out == run_trials(good_build, trials=4, max_rounds=500, seed=7)
        assert any(e.kind == "timeout" for e in budget.events)

    def test_sigkilled_worker_detected_and_retried(self, tmp_path):
        marker = tmp_path / "healed"

        def build(seed):
            if not marker.exists():
                marker.write_text("x")
                os.kill(os.getpid(), signal.SIGKILL)
            return good_build(seed)

        policy = fast_policy(timeout_per_trial=30.0, max_retries=2, processes=2)
        budget = policy.new_budget()
        out = run_trials_durable(
            build, trials=4, max_rounds=500, seed=7, policy=policy, budget=budget
        )
        assert out == run_trials(good_build, trials=4, max_rounds=500, seed=7)
        assert any(e.kind == "crash" for e in budget.events)

    def test_persistent_failure_exhausts_ladder(self):
        def bad(seed):
            raise RuntimeError("permanently broken")

        policy = fast_policy(timeout_per_trial=30.0, max_retries=1, processes=2)
        with pytest.raises(DurableExecutionError, match="all execution tiers"):
            run_trials_durable(bad, trials=4, max_rounds=500, seed=7, policy=policy)

    def test_failure_budget_stops_retry_storm(self):
        def bad(seed):
            raise RuntimeError("broken")

        policy = fast_policy(
            timeout_per_trial=30.0, max_retries=5, processes=2, failure_budget=2
        )
        with pytest.raises(FailureBudgetExceeded):
            run_trials_durable(bad, trials=4, max_rounds=500, seed=7, policy=policy)

    def test_active_policy_routes_run_trials(self):
        plain = run_trials(good_build, trials=4, max_rounds=500, seed=7)
        with use_policy(fast_policy(timeout_per_trial=30.0, processes=2)):
            routed = run_trials(good_build, trials=4, max_rounds=500, seed=7)
        assert routed == plain


class TestDurableBatched:
    def test_matches_plain_batched(self):
        plain = run_trials_batched(good_build_batched, trials=4, max_rounds=500, seed=3)
        durable = run_trials_batched_durable(
            good_build_batched, trials=4, max_rounds=500, seed=3
        )
        assert durable == plain

    def test_memory_error_degrades_to_sub_batches(self):
        def build(seeds):
            if len(seeds) > 2:
                raise MemoryError("replica batch too large")
            return good_build_batched(seeds)

        policy = fast_policy(max_retries=2, processes=2)
        budget = policy.new_budget()
        out = run_trials_batched_durable(
            build, trials=4, max_rounds=500, seed=3, policy=policy, budget=budget
        )
        assert [o.seed for o in out] == trial_seeds_for(3, 4)
        assert all(o.stabilized for o in out)
        assert any(e.kind == "error" and "MemoryError" in e.detail for e in budget.events)

    def test_degrades_to_singletons(self):
        def build(seeds):
            if len(seeds) > 1:
                raise MemoryError("only singleton batches fit")
            return good_build_batched(seeds)

        policy = fast_policy(max_retries=0, processes=2)
        out = run_trials_batched_durable(
            build, trials=4, max_rounds=500, seed=3, policy=policy
        )
        assert [o.seed for o in out] == trial_seeds_for(3, 4)
        assert all(o.stabilized for o in out)

    def test_active_policy_routes_run_trials_batched(self):
        plain = run_trials_batched(good_build_batched, trials=4, max_rounds=500, seed=3)
        with use_policy(fast_policy()):
            routed = run_trials_batched(
                good_build_batched, trials=4, max_rounds=500, seed=3
            )
        assert routed == plain


class TestTrialCheckpointStore:
    def test_roundtrip_and_replay(self, tmp_path):
        store = TrialCheckpointStore(tmp_path)
        out = run_trials_durable(
            good_build, trials=4, max_rounds=500, seed=7,
            checkpoint=store, unit_id="unit-a",
        )

        def never_called(seed):  # pragma: no cover - checkpoint replays instead
            raise AssertionError("checkpointed unit must not re-run")

        replayed = run_trials_durable(
            never_called, trials=4, max_rounds=500, seed=7,
            checkpoint=store, unit_id="unit-a",
        )
        assert replayed == out

    def test_corrupt_checkpoint_quarantined(self, tmp_path):
        store = TrialCheckpointStore(tmp_path)
        seeds = trial_seeds_for(7, 4)
        out = run_trials_durable(
            good_build, trials=4, max_rounds=500, seed=7,
            checkpoint=store, unit_id="unit-a",
        )
        path = store.path_for("unit-a")
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # truncated mid-write
        assert store.load("unit-a", seeds) is None
        assert (tmp_path / f"{path.name}.quarantined").exists()
        rerun = run_trials_durable(
            good_build, trials=4, max_rounds=500, seed=7,
            checkpoint=store, unit_id="unit-a",
        )
        assert rerun == out

    def test_seed_mismatch_quarantined(self, tmp_path):
        store = TrialCheckpointStore(tmp_path)
        run_trials_durable(
            good_build, trials=4, max_rounds=500, seed=7,
            checkpoint=store, unit_id="unit-a",
        )
        assert store.load("unit-a", trial_seeds_for(8, 4)) is None
        assert not store.path_for("unit-a").exists()  # moved aside

    def test_hash_mismatch_quarantined(self, tmp_path):
        import json

        store = TrialCheckpointStore(tmp_path)
        run_trials_durable(
            good_build, trials=4, max_rounds=500, seed=7,
            checkpoint=store, unit_id="unit-a",
        )
        path = store.path_for("unit-a")
        doc = json.loads(path.read_text())
        doc["outcomes"][0]["rounds"] += 1  # silent corruption
        path.write_text(json.dumps(doc))
        assert store.load("unit-a", trial_seeds_for(7, 4)) is None
