"""Tests for pooled campaigns (cells forked in waves ``pool_workers``
wide): serial/pooled bit-identity, resume, hung/killed workers, and
per-cell streaming of checkpoints and progress lines.  Each cell child
inherits the campaign parent's objects copy-on-write; only its table
crosses the pipe back.

The headline contract: ``pool_workers=K`` must produce checkpoint tables
**bit-identical** to a serial in-process campaign for every K (including
1, the degrade-to-serial case CI forces), because trial seeds are
derived from cell identity, never from scheduling order.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

import pytest

from repro.harness.campaign import checkpoint_path, render_campaign_text, run_campaign
from repro.harness.experiments import EXPERIMENTS, Experiment
from repro.harness.persistence import load_document
from repro.harness.tables import Table

from test_campaign import CELLS, _slow_then_fast, small_config, tables_of


def _kill_worker_once(marker: str = "") -> Table:
    """A registrable cell that SIGKILLs its own worker on first execution."""
    path = Path(marker)
    if not path.exists():
        path.write_text("x")
        os.kill(os.getpid(), signal.SIGKILL)
    table = Table(title="Z2: worker-death probe", columns=["k", "v"])
    table.add_row(1, 7)
    return table


def _await_checkpoint(checkpoint: str = "", wait: float = 10.0) -> Table:
    """A registrable cell that blocks until ``checkpoint`` exists (at most
    ``wait`` seconds) and records whether it appeared."""
    path = Path(checkpoint)
    deadline = time.monotonic() + wait
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.02)
    table = Table(title="Z3: streaming-checkpoint probe", columns=["checkpoint", "seen"])
    table.add_row(path.name, path.exists())
    return table


@pytest.fixture
def hang_probe(tmp_path):
    marker = tmp_path / "slow-once"
    EXPERIMENTS["Z1"] = Experiment(
        "Z1", "probe: heals after one hung run", _slow_then_fast,
        quick=dict(marker=str(marker)),
    )
    try:
        yield "Z1"
    finally:
        del EXPERIMENTS["Z1"]


@pytest.fixture
def kill_probe(tmp_path):
    marker = tmp_path / "kill-once"
    EXPERIMENTS["Z2"] = Experiment(
        "Z2", "probe: kills its worker once", _kill_worker_once,
        quick=dict(marker=str(marker)),
    )
    try:
        yield marker
    finally:
        del EXPERIMENTS["Z2"]


class TestParity:
    def test_pooled_tables_bit_identical_to_serial(self, tmp_path):
        """The ISSUE's acceptance check: run the same campaign serially and
        on the pool, then diff the rendered tables."""
        serial_dir = tmp_path / "serial"
        pooled_dir = tmp_path / "pooled"
        serial = run_campaign(small_config(tmp_path, checkpoint_dir=serial_dir))
        pooled = run_campaign(
            small_config(tmp_path, checkpoint_dir=pooled_dir, pool_workers=2)
        )
        assert serial.ok and pooled.ok
        assert tables_of(pooled_dir) == tables_of(serial_dir)
        assert {c.exp_id: c.status for c in pooled.cells} == {
            c.exp_id: c.status for c in serial.cells
        }

    def test_single_worker_pool_degrades_to_serial_tables(self, tmp_path):
        """pool_workers=1 is the forced-serial CI leg: same pool machinery,
        bit-identical tables."""
        serial_dir = tmp_path / "serial"
        single_dir = tmp_path / "single"
        run_campaign(small_config(tmp_path, checkpoint_dir=serial_dir))
        report = run_campaign(
            small_config(tmp_path, checkpoint_dir=single_dir, pool_workers=1)
        )
        assert report.ok
        assert all(c.status == "completed" for c in report.cells)
        assert tables_of(single_dir) == tables_of(serial_dir)

    def test_rendered_archive_matches_serial_modulo_elapsed(self, tmp_path):
        serial_dir = tmp_path / "serial"
        pooled_dir = tmp_path / "pooled"
        run_campaign(small_config(tmp_path, checkpoint_dir=serial_dir))
        run_campaign(
            small_config(tmp_path, checkpoint_dir=pooled_dir, pool_workers=2)
        )
        assert render_campaign_text(pooled_dir, "quick", CELLS) == render_campaign_text(
            serial_dir, "quick", CELLS
        )


class TestPooledResume:
    def test_resume_runs_only_missing_cells(self, tmp_path):
        config = small_config(tmp_path, pool_workers=2)
        run_campaign(config)
        clean = tables_of(config.checkpoint_dir)
        checkpoint_path(config.checkpoint_dir, "A3", "quick").unlink()
        resumed = run_campaign(small_config(tmp_path, pool_workers=2, resume=True))
        assert resumed.ok
        statuses = {c.exp_id: c.status for c in resumed.cells}
        assert statuses == {"E1": "resumed", "A3": "completed"}
        assert tables_of(config.checkpoint_dir) == clean  # bit-identical

    def test_serial_checkpoints_resumable_by_pool_and_back(self, tmp_path):
        """Checkpoints are scheduler-agnostic artifacts: serial runs resume
        under the pool and vice versa."""
        config = small_config(tmp_path)
        run_campaign(config)
        pooled = run_campaign(small_config(tmp_path, pool_workers=2, resume=True))
        assert pooled.ok and all(c.status == "resumed" for c in pooled.cells)
        serial = run_campaign(small_config(tmp_path, resume=True))
        assert serial.ok and all(c.status == "resumed" for c in serial.cells)


class TestPooledFailures:
    def test_failed_cell_recorded_campaign_continues(self, tmp_path):
        config = small_config(
            tmp_path,
            overrides={"E1": {"bogus_kwarg": 1}},
            max_retries=0,
            pool_workers=2,
        )
        report = run_campaign(config)
        assert not report.ok
        by_id = {c.exp_id: c for c in report.cells}
        assert by_id["E1"].status == "failed"
        assert "bogus_kwarg" in by_id["E1"].error
        assert by_id["A3"].status == "completed"  # work stealing kept going
        assert any(e.kind == "error" for e in report.failures)

    def test_hung_cell_killed_replaced_and_retried(self, tmp_path, hang_probe):
        config = small_config(
            tmp_path,
            exp_ids=("E1", "Z1"),
            timeout_per_experiment=1.0,
            max_retries=1,
            pool_workers=2,
        )
        report = run_campaign(config)
        assert report.ok
        by_id = {c.exp_id: c for c in report.cells}
        assert by_id["Z1"].status == "completed"
        assert by_id["Z1"].attempts == 2  # first attempt SIGKILLed at 1.0s
        assert by_id["E1"].status == "completed"
        assert any(e.kind == "timeout" for e in report.failures)

    def test_worker_death_absorbed_with_identical_tables(self, tmp_path, kill_probe):
        """Mid-campaign SIGKILL of a worker is absorbed by replacement and
        retry, and the final tables equal a clean run's."""
        marker = kill_probe
        cells = ("E1", "Z2")
        clean_dir = tmp_path / "clean"
        marker.write_text("x")  # pre-healed: the serial reference never kills
        run_campaign(small_config(tmp_path, checkpoint_dir=clean_dir, exp_ids=cells))
        clean = tables_of(clean_dir, exp_ids=cells)

        marker.unlink()
        pooled_dir = tmp_path / "pooled"
        report = run_campaign(
            small_config(tmp_path, checkpoint_dir=pooled_dir, exp_ids=cells,
                         pool_workers=2)
        )
        assert report.ok
        by_id = {c.exp_id: c for c in report.cells}
        assert by_id["Z2"].attempts == 2
        assert any(e.kind == "crash" for e in report.failures)
        assert tables_of(pooled_dir, exp_ids=cells) == clean


class TestStreaming:
    def test_pooled_checkpoint_lands_when_cell_finishes(self, tmp_path):
        """E1's checkpoint and progress line land while its sibling cell is
        still running, not when the wave ends."""
        directory = tmp_path / "campaign"
        EXPERIMENTS["Z3"] = Experiment(
            "Z3", "probe: waits for E1's checkpoint", _await_checkpoint,
            quick=dict(checkpoint=str(checkpoint_path(directory, "E1", "quick"))),
        )
        lines = []
        try:
            report = run_campaign(
                small_config(
                    tmp_path, checkpoint_dir=directory, exp_ids=("E1", "Z3"),
                    pool_workers=2,
                ),
                progress=lines.append,
            )
        finally:
            del EXPERIMENTS["Z3"]
        assert report.ok
        probe = load_document(checkpoint_path(directory, "Z3", "quick")).table
        assert probe.column("seen") == [True]
        done = [line.split(":", 1)[0] for line in lines if ": completed in " in line]
        assert done == ["E1", "Z3"]
        # A registered cell reports its tally; a probe that declares no
        # checks gets no ``checks k/n`` suffix.
        tallies = [line.rpartition("]")[2] for line in lines if ": completed in " in line]
        assert tallies == [", checks 2/2", ""]

    def test_serial_progress_precedes_next_cell(self, tmp_path, monkeypatch):
        """Each cell's progress line is emitted before the next cell runs."""
        import repro.harness.campaign as campaign

        events = []
        real_run = campaign.run_experiment

        def traced_run(exp_id, *args, **kwargs):
            events.append(f"run {exp_id}")
            return real_run(exp_id, *args, **kwargs)

        monkeypatch.setattr(campaign, "run_experiment", traced_run)
        report = run_campaign(
            small_config(tmp_path),
            progress=lambda line: events.append(f"line {line.split(':', 1)[0]}"),
        )
        assert report.ok
        assert events == ["run E1", "line E1", "run A3", "line A3"]
