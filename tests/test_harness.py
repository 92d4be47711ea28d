"""Tests for the harness: runner and tables."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.trace import RunResult
from repro.harness.runner import (
    PROCESSES_ENV,
    TrialOutcome,
    default_processes,
    run_trials,
    trial_seeds_for,
    trial_summary,
)
from repro.harness.tables import Table, format_cell


class FakeEngine:
    """Stabilizes after a seed-derived number of rounds."""

    def __init__(self, seed, fail=False):
        self.target = (seed % 7) + 3
        self.fail = fail

    def run(self, max_rounds, *, check_every=1):
        if self.fail or self.target > max_rounds:
            return RunResult(False, max_rounds, max_rounds)
        r = ((self.target + check_every - 1) // check_every) * check_every
        return RunResult(True, r, r)


class TestRunTrials:
    def test_count_and_determinism(self):
        out1 = run_trials(FakeEngine, trials=8, max_rounds=100, seed=1)
        out2 = run_trials(FakeEngine, trials=8, max_rounds=100, seed=1)
        assert len(out1) == 8
        assert out1 == out2

    def test_different_seeds_different_trials(self):
        a = run_trials(FakeEngine, trials=8, max_rounds=100, seed=1)
        b = run_trials(FakeEngine, trials=8, max_rounds=100, seed=2)
        assert [o.rounds for o in a] != [o.rounds for o in b]

    def test_check_every_forwarded(self):
        out = run_trials(FakeEngine, trials=4, max_rounds=100, seed=0, check_every=5)
        assert all(o.rounds % 5 == 0 for o in out)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            run_trials(FakeEngine, trials=0, max_rounds=10)

    def test_summary_raises_on_unstabilized(self):
        out = run_trials(
            lambda s: FakeEngine(s, fail=True), trials=3, max_rounds=10, seed=0
        )
        with pytest.raises(RuntimeError):
            trial_summary(out)

    def test_summary_values(self):
        out = [
            TrialOutcome(seed=i, stabilized=True, rounds=r, rounds_after_last_activation=r - 1)
            for i, r in enumerate([10, 20, 30])
        ]
        s = trial_summary(out)
        assert s.median == 20.0
        s2 = trial_summary(out, after_activation=True)
        assert s2.median == 19.0


def _module_level_engine(seed: int) -> FakeEngine:
    """Module-level builder: picklable for the process-parallel path."""
    return FakeEngine(seed)


class TestParallelRunner:
    def test_processes_match_serial(self):
        serial = run_trials(_module_level_engine, trials=6, max_rounds=100, seed=3)
        parallel = run_trials(
            _module_level_engine, trials=6, max_rounds=100, seed=3, processes=2
        )
        assert serial == parallel

    def test_single_trial_stays_serial(self):
        out = run_trials(
            _module_level_engine, trials=1, max_rounds=100, seed=0, processes=4
        )
        assert len(out) == 1

    def test_more_workers_than_trials(self):
        # Chunking must not produce empty chunks or drop/duplicate trials.
        out = run_trials(
            _module_level_engine, trials=3, max_rounds=100, seed=5, processes=8
        )
        assert [o.seed for o in out] == trial_seeds_for(5, 3)

    def test_seed_order_preserved_across_chunks(self):
        out = run_trials(
            _module_level_engine, trials=10, max_rounds=100, seed=7, processes=3
        )
        assert [o.seed for o in out] == trial_seeds_for(7, 10)

    def test_env_default_used(self, monkeypatch):
        monkeypatch.setenv(PROCESSES_ENV, "2")
        assert default_processes() == 2
        env = run_trials(_module_level_engine, trials=6, max_rounds=100, seed=3)
        serial = run_trials(
            _module_level_engine, trials=6, max_rounds=100, seed=3, processes=1
        )
        assert env == serial

    def test_env_default_unpicklable_builder_falls_back_serial(self, monkeypatch):
        """A lambda builder under the env default processes=2 returns the
        serial outcomes.  Fork-per-unit carries closures, so nothing has
        to fall back or warn any more; the result contract is unchanged."""
        import warnings

        serial = run_trials(lambda s: FakeEngine(s), trials=4, max_rounds=100, seed=3)
        monkeypatch.setenv(PROCESSES_ENV, "2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = run_trials(lambda s: FakeEngine(s), trials=4, max_rounds=100, seed=3)
        assert [o.seed for o in out] == trial_seeds_for(3, 4)
        assert out == serial

    def test_explicit_processes_unpicklable_builder_falls_back_serial(self):
        """An explicit processes=K with an unpicklable builder returns the
        serial outcomes deterministically (same seeds, same order), also
        when the chunks are uneven, and warns nothing."""
        import warnings

        serial = run_trials(lambda s: FakeEngine(s), trials=5, max_rounds=100, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parallel = run_trials(
                lambda s: FakeEngine(s), trials=5, max_rounds=100, seed=3, processes=3
            )
        assert parallel == serial

    def test_lambda_builder_forks_without_warning(self, tmp_path):
        """Fork-per-unit carries closures: a lambda builder with
        processes=2 runs in two children, warns nothing, and returns the
        serial outcomes (same seeds, same chunk order)."""
        import os
        import warnings

        def record_pid(seed):
            (tmp_path / f"{seed}.pid").write_text(str(os.getpid()))
            return FakeEngine(seed)

        serial = run_trials(lambda s: FakeEngine(s), trials=4, max_rounds=100, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parallel = run_trials(
                lambda s: record_pid(s), trials=4, max_rounds=100, seed=3, processes=2
            )
        assert parallel == serial
        pids = {int(p.read_text()) for p in tmp_path.glob("*.pid")}
        assert len(pids) >= 2 and os.getpid() not in pids

    def test_env_default_validation(self, monkeypatch):
        monkeypatch.setenv(PROCESSES_ENV, "lots")
        with pytest.raises(ValueError):
            default_processes()
        monkeypatch.setenv(PROCESSES_ENV, "")
        assert default_processes() is None
        monkeypatch.setenv(PROCESSES_ENV, "1")
        assert default_processes() is None


class TestPlainRunnerFailures:
    """With no durable policy active, a failing trial raises at once: no
    retry, no fall-back to serial, no replica-batch split."""

    def test_failing_chunk_raises_without_retry_or_serial_fallback(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(PROCESSES_ENV, raising=False)
        seeds = trial_seeds_for(3, 4)
        log = tmp_path / "calls.log"

        def build(seed):
            with open(log, "a") as fh:
                fh.write(f"{seed}\n")
            if seed == seeds[2]:
                raise RuntimeError("chunk two broke")
            return FakeEngine(seed)

        with pytest.raises(RuntimeError) as exc_info:
            run_trials(build, trials=4, max_rounds=100, seed=3, processes=2)
        message = str(exc_info.value)
        assert "trial chunk 2/2" in message
        assert "RuntimeError: chunk two broke" in message
        # Chunk 1 ran both seeds, chunk 2 stopped at its first: nothing
        # was retried and nothing re-ran serially in this process.
        calls = [int(line) for line in log.read_text().split()]
        assert sorted(calls) == sorted(seeds[:3])

    def test_failing_batched_engine_raises_without_splitting(
        self, tmp_path, monkeypatch
    ):
        from repro.algorithms.blind_gossip import BlindGossipBatched
        from repro.core.batched import BatchedVectorizedEngine
        from repro.graphs import families
        from repro.graphs.dynamic import StaticDynamicGraph
        from repro.harness.experiments import uid_keys_random
        from repro.harness.runner import run_trials_batched

        monkeypatch.delenv(PROCESSES_ENV, raising=False)
        graph = families.double_star(4)
        log = tmp_path / "batches.log"

        def build(batch_seeds):
            with open(log, "a") as fh:
                fh.write(f"{len(batch_seeds)}\n")
            return StaticDynamicGraph(graph), BlindGossipBatched(uid_keys_random(graph.n, 3))

        def broken_run(self, max_rounds, *, check_every=1):
            raise RuntimeError("batched kernel unavailable")

        monkeypatch.setattr(BatchedVectorizedEngine, "run", broken_run)
        with pytest.raises(RuntimeError, match="batched kernel unavailable"):
            run_trials_batched(build, trials=4, max_rounds=100, seed=3)
        assert log.read_text().split() == ["4"]  # one full batch, never split


class TestTable:
    def test_render_contains_all_cells(self):
        t = Table(title="T", columns=["a", "b"])
        t.add_row(1, 2.5)
        t.add_row("x", True)
        out = t.render()
        assert "T" in out and "a" in out and "2.5" in out and "yes" in out

    def test_row_width_checked(self):
        t = Table(title="T", columns=["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_column_extraction(self):
        t = Table(title="T", columns=["a", "b"])
        t.add_row(1, 2)
        t.add_row(3, 4)
        assert t.column("b") == [2, 4]

    def test_notes_rendered(self):
        t = Table(title="T", columns=["a"], notes=["hello note"])
        t.add_row(1)
        assert "hello note" in t.render()

    def test_empty_table_renders(self):
        t = Table(title="T", columns=["a"])
        assert "T" in t.render()


class TestFormatCell:
    def test_float_precision(self):
        assert format_cell(3.14159) == "3.142"

    def test_scientific_for_extremes(self):
        assert "e" in format_cell(1.5e7)
        assert "e" in format_cell(1.5e-7)

    def test_bool(self):
        assert format_cell(True) == "yes" and format_cell(False) == "no"

    def test_zero(self):
        assert format_cell(0.0) == "0"
