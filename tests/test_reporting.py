"""Tests for markdown report assembly."""

from __future__ import annotations

import pytest

from repro.harness.persistence import save_table
from repro.harness.reporting import build_report, collect_documents, write_report
from repro.harness.tables import Table


def save_sample(dirpath, exp_id, profile="quick"):
    t = Table(title=f"{exp_id} sample", columns=["x"], notes=[])
    t.add_row(1)
    save_table(t, dirpath / f"{exp_id}.json", exp_id=exp_id, profile=profile)


class TestCollect:
    def test_registry_order(self, tmp_path):
        for eid in ("T1", "A1", "S1", "E10", "R1", "E2", "A4", "E1", "A3"):
            save_sample(tmp_path, eid)
        docs = collect_documents(tmp_path)
        assert [d.exp_id for d in docs] == [
            "E1", "E2", "E10", "A1", "A3", "A4", "R1", "S1", "T1"
        ]

    def test_empty_dir(self, tmp_path):
        assert collect_documents(tmp_path) == []


class TestBuildReport:
    def test_contains_tables_and_claims(self, tmp_path):
        save_sample(tmp_path, "E1")
        save_sample(tmp_path, "E3")
        report = build_report(collect_documents(tmp_path))
        assert "## E1 — Lemma V.1" in report
        assert "## E3 —" in report
        assert "E1 sample" in report

    def test_custom_title(self, tmp_path):
        save_sample(tmp_path, "E1")
        report = build_report(collect_documents(tmp_path), title="# Custom")
        assert report.startswith("# Custom")

    def test_empty_report(self):
        assert build_report([]).startswith("# Experiment results")


class TestWriteReport:
    def test_writes_file(self, tmp_path):
        save_sample(tmp_path, "E1", profile="standard")
        out = tmp_path / "report.md"
        write_report(tmp_path, out)
        text = out.read_text()
        assert "standard" in text and "## E1" in text
