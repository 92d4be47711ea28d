"""Tests for resumable campaigns: checkpoint/resume, kill-resume
determinism, cell timeouts, and checkpoint quarantine.

The kill-resume tests assert the ISSUE's core guarantee: SIGKILLing a
campaign at an arbitrary point and re-running with ``resume`` produces
tables bit-identical (rendered text equality) to an uninterrupted run —
every cell is deterministically seeded, so identity of the *cell set*
implies identity of the *tables*.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.harness.campaign import (
    CampaignConfig,
    checkpoint_path,
    read_campaign_text,
    render_campaign_text,
    run_campaign,
)
from repro.harness.experiments import EXPERIMENTS, Experiment, registry_order
from repro.harness.persistence import load_document, save_table
from repro.harness.tables import Table

# Cheap registry cells (fractions of a second each at the quick profile).
CELLS = ("E1", "A3")
# Shrunk-down kwargs so campaign tests stay fast.
OVERRIDES = {"E1": {"n_small": 6, "random_graphs": 1}}


def small_config(tmp_path, **kw) -> CampaignConfig:
    kw.setdefault("checkpoint_dir", tmp_path / "campaign")
    kw.setdefault("profile", "quick")
    kw.setdefault("exp_ids", CELLS)
    kw.setdefault("overrides", OVERRIDES)
    kw.setdefault("backoff_base", 0.0)
    return CampaignConfig(**kw)


def tables_of(directory, profile="quick", exp_ids=CELLS) -> dict[str, str]:
    return {
        exp_id: load_document(checkpoint_path(directory, exp_id, profile)).table.render()
        for exp_id in exp_ids
    }


class TestRegistryOrder:
    def test_e_series_first(self):
        order = registry_order()
        assert order[0] == "E1"
        assert set(order) == set(EXPERIMENTS)
        e_ids = [i for i in order if i.startswith("E")]
        assert e_ids == sorted(e_ids, key=lambda k: (len(k), k))

    def test_subset_keeps_canonical_order(self):
        assert registry_order(["A3", "E13", "E2"]) == ["E2", "E13", "A3"]

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            registry_order(["E1", "NOPE"])


class TestFreshCampaign:
    def test_completes_checkpoints_and_verifies(self, tmp_path):
        config = small_config(tmp_path)
        report = run_campaign(config)
        assert report.ok
        assert [c.exp_id for c in report.cells] == list(CELLS)
        for cell in report.cells:
            assert cell.status == "completed"
            assert cell.checks_passed == cell.checks_total
            assert checkpoint_path(config.checkpoint_dir, cell.exp_id, "quick").exists()

    def test_render_matches_reproduce_paper_format(self, tmp_path):
        config = small_config(tmp_path)
        run_campaign(config)
        text = render_campaign_text(config.checkpoint_dir, "quick", CELLS)
        assert text.startswith("\n### E1 — ")
        assert "  [quick]\n" in text
        assert "(completed in " not in text
        assert read_campaign_text(text) == tables_of(config.checkpoint_dir)
        # Wall-clock seconds live only in the checkpoints' metadata.
        for exp_id in CELLS:
            path = checkpoint_path(config.checkpoint_dir, exp_id, "quick")
            doc = load_document(path)
            campaign = dict(doc.extra["campaign"], elapsed_s=123.4)
            save_table(doc.table, path, exp_id=exp_id, profile="quick",
                       extra={"campaign": campaign})
        assert render_campaign_text(config.checkpoint_dir, "quick", CELLS) == text

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "### E1 — c  [quick]\nt\n",  # no blank line before the header
            "\n### E1 — c  [quick]\nt",  # no final newline
            "\n### E1 — c\nt\n",  # header without a profile
            "\n### E1 — c  [quick]\nt\n\n### E1 — c  [quick]\nt\n",  # repeated cell
        ],
    )
    def test_read_rejects_what_render_cannot_write(self, text):
        with pytest.raises(ValueError):
            read_campaign_text(text)

    def test_failed_cell_recorded_campaign_continues(self, tmp_path):
        config = small_config(
            tmp_path,
            overrides={"E1": {"bogus_kwarg": 1}},
            max_retries=0,
        )
        report = run_campaign(config)
        assert not report.ok
        by_id = {c.exp_id: c for c in report.cells}
        assert by_id["E1"].status == "failed"
        assert "bogus_kwarg" in by_id["E1"].error
        assert by_id["A3"].status == "completed"  # later cells still ran
        assert any(e.kind == "error" for e in report.failures)


class TestDegradationLadder:
    """A cell whose profile requests the batched engine falls back to the
    single engine (``profile -> single+processes=K -> single+serial``)
    and checkpoints exactly the table the single engine produces."""

    def test_broken_batched_engine_degrades_to_single_tier(
        self, tmp_path, monkeypatch
    ):
        from repro.core.batched import BatchedVectorizedEngine
        from repro.harness.experiments import run_experiment

        calls = []

        def broken_run(self, max_rounds, *, check_every=1):
            calls.append(max_rounds)
            raise RuntimeError("batched kernel unavailable")

        monkeypatch.setattr(BatchedVectorizedEngine, "run", broken_run)
        config = small_config(
            tmp_path,
            exp_ids=("R1",),
            overrides={"R1": {"engine": "batched"}},
            max_retries=0,
        )
        report = run_campaign(config)
        assert calls, "the profile tier never reached the batched engine"
        (cell,) = report.cells
        assert cell.status == "completed"
        assert cell.tier.startswith("single+")
        doc = load_document(checkpoint_path(config.checkpoint_dir, "R1", "quick"))
        assert doc.extra["campaign"]["tier"] == cell.tier
        direct = run_experiment("R1", "quick", engine="single")
        assert doc.table.render() == direct.render()


class TestResume:
    def test_resume_skips_completed_cells(self, tmp_path):
        config = small_config(tmp_path)
        first = run_campaign(config)
        resumed = run_campaign(small_config(tmp_path, resume=True))
        assert resumed.ok
        assert all(c.status == "resumed" for c in resumed.cells)
        assert tables_of(config.checkpoint_dir) == tables_of(config.checkpoint_dir)
        assert first.ok

    def test_resume_runs_only_missing_cells(self, tmp_path):
        config = small_config(tmp_path)
        run_campaign(config)
        clean = tables_of(config.checkpoint_dir)
        checkpoint_path(config.checkpoint_dir, "A3", "quick").unlink()
        resumed = run_campaign(small_config(tmp_path, resume=True))
        statuses = {c.exp_id: c.status for c in resumed.cells}
        assert statuses == {"E1": "resumed", "A3": "completed"}
        assert tables_of(config.checkpoint_dir) == clean  # bit-identical

    def test_truncated_checkpoint_quarantined_and_rerun(self, tmp_path):
        config = small_config(tmp_path)
        run_campaign(config)
        clean = tables_of(config.checkpoint_dir)
        path = checkpoint_path(config.checkpoint_dir, "E1", "quick")
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # crash mid-write
        resumed = run_campaign(small_config(tmp_path, resume=True))
        assert resumed.ok
        statuses = {c.exp_id: c.status for c in resumed.cells}
        assert statuses == {"E1": "completed", "A3": "resumed"}
        assert (path.parent / f"{path.name}.quarantined").exists()
        assert tables_of(config.checkpoint_dir) == clean  # bit-identical

    def test_wrong_profile_checkpoint_quarantined(self, tmp_path):
        config = small_config(tmp_path)
        run_campaign(config)
        path = checkpoint_path(config.checkpoint_dir, "E1", "quick")
        doc = json.loads(path.read_text())
        doc["exp_id"] = "E2"  # wrong cell in the right filename
        path.write_text(json.dumps(doc))
        resumed = run_campaign(small_config(tmp_path, resume=True))
        assert resumed.ok
        assert {c.exp_id: c.status for c in resumed.cells} == {
            "E1": "completed",
            "A3": "resumed",
        }


def _slow_then_fast(marker: str = "", delay: float = 30.0, always: bool = False) -> Table:
    """A registrable cell that hangs on its first execution only (or on
    every execution with ``always=True``)."""
    path = Path(marker)
    if always or not path.exists():
        if not always:
            path.write_text("x")
        time.sleep(delay)
    table = Table(title="Z1: deterministic probe", columns=["k", "v"])
    table.add_row(1, 42)
    return table


@pytest.fixture
def probe_experiment(tmp_path):
    marker = tmp_path / "slow-once"
    EXPERIMENTS["Z1"] = Experiment(
        "Z1", "probe: heals after one hung run", _slow_then_fast,
        quick=dict(marker=str(marker)),
    )
    try:
        yield "Z1"
    finally:
        del EXPERIMENTS["Z1"]


class TestTimeouts:
    def test_hung_cell_killed_retried_and_resumable(self, tmp_path, probe_experiment):
        """A cell that sleeps past its ceiling is killed in its forked
        child, retried (now healed), checkpointed — and a follow-up
        resume run replays it bit-identically."""
        config = small_config(
            tmp_path,
            exp_ids=("E1", "Z1"),
            timeout_per_experiment=1.0,
            max_retries=1,
        )
        assert config.isolate_cells
        report = run_campaign(config)
        assert report.ok
        by_id = {c.exp_id: c for c in report.cells}
        assert by_id["Z1"].status == "completed"
        assert by_id["Z1"].attempts == 2
        assert any(e.kind == "timeout" for e in report.failures)
        clean = tables_of(config.checkpoint_dir, exp_ids=("E1", "Z1"))
        resumed = run_campaign(
            small_config(
                tmp_path, exp_ids=("E1", "Z1"), resume=True,
                timeout_per_experiment=1.0, max_retries=1,
            )
        )
        assert resumed.ok
        assert all(c.status == "resumed" for c in resumed.cells)
        assert tables_of(config.checkpoint_dir, exp_ids=("E1", "Z1")) == clean

    def test_permanently_hung_cell_fails_within_budget(self, tmp_path, probe_experiment):
        config = small_config(
            tmp_path,
            exp_ids=("Z1",),
            overrides={"Z1": {"always": True}},  # never heals
            timeout_per_experiment=0.5,
            max_retries=0,
        )
        report = run_campaign(config)
        assert not report.ok
        assert report.cells[0].status == "failed"
        assert "timeout" in report.cells[0].error


class TestKillResume:
    def _spawn_campaign(self, directory, resume=False):
        cmd = [
            sys.executable, "-m", "repro", "experiments", "run-all",
            "--only", "E1,A3,E13", "--checkpoint-dir", str(directory),
            "--backoff-base", "0",
        ] + (["--resume"] if resume else [])
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        return subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
        )

    def test_sigkilled_campaign_resumes_bit_identical(self, tmp_path):
        """SIGKILL a real `repro experiments run-all` subprocess once its
        first checkpoint lands, resume it, and diff every table against
        an uninterrupted campaign."""
        cells = ("E1", "A3", "E13")
        clean_dir = tmp_path / "clean"
        run_campaign(
            CampaignConfig(checkpoint_dir=clean_dir, exp_ids=cells, backoff_base=0.0)
        )
        clean = tables_of(clean_dir, exp_ids=cells)

        killed_dir = tmp_path / "killed"
        proc = self._spawn_campaign(killed_dir)
        deadline = time.monotonic() + 60
        try:
            while time.monotonic() < deadline and proc.poll() is None:
                if any(
                    checkpoint_path(killed_dir, c, "quick").exists() for c in cells
                ):
                    break
                time.sleep(0.02)
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
        finally:
            proc.wait(timeout=60)
        done = [c for c in cells if checkpoint_path(killed_dir, c, "quick").exists()]
        assert done, "campaign produced no checkpoint before the kill"

        resume = self._spawn_campaign(killed_dir, resume=True)
        out, _ = resume.communicate(timeout=300)
        assert resume.returncode == 0, out
        assert tables_of(killed_dir, exp_ids=cells) == clean
