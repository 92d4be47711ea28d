"""Tests for the shape-verification suite."""

from __future__ import annotations

import pytest

from repro.harness.tables import Table
from repro.harness.verify import CheckResult, verify_experiment


def make_table(columns, rows):
    t = Table(title="T", columns=columns)
    for r in rows:
        t.add_row(*r)
    return t


class TestFramework:
    def test_every_experiment_declares_checks(self):
        from repro.harness.experiments import EXPERIMENTS

        for exp_id, exp in EXPERIMENTS.items():
            names = [check.name for check in exp.checks]
            assert names, f"{exp_id} declares no checks"
            assert len(set(names)) == len(names), f"{exp_id} repeats a check name"

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            verify_experiment("E99", Table(title="T", columns=["x"]))

    def test_check_result_str(self):
        assert "PASS" in str(CheckResult("c", True, "d"))
        assert "FAIL" in str(CheckResult("c", False, "d"))


class TestSyntheticTables:
    """Verifiers respond correctly to hand-built pass/fail tables."""

    def test_e1_pass_and_fail(self):
        cols = ["graph", "n", "alpha", "gamma", "alpha/4", "gamma >= alpha/4"]
        good = make_table(cols, [("g", 8, 0.5, 0.5, 0.125, True)])
        assert all(c.passed for c in verify_experiment("E1", good))
        bad = make_table(cols, [("g", 8, 0.5, 0.1, 0.125, False)])
        assert not all(c.passed for c in verify_experiment("E1", bad))

    def test_e3_slope_detection(self):
        cols = ["Delta", "n", "alpha", "rounds static", "rounds tau=1", "bound shape"]
        quadratic = make_table(
            cols,
            [(d, 2 * d, 0.1, float(d * d), 1.0, 1.0) for d in (4, 8, 16, 32)],
        )
        assert all(c.passed for c in verify_experiment("E3", quadratic))
        flat = make_table(
            cols, [(d, 2 * d, 0.1, 50.0, 1.0, 1.0) for d in (4, 8, 16, 32)]
        )
        assert not all(c.passed for c in verify_experiment("E3", flat))

    def test_e7_trend_detection(self):
        cols = ["tau", "blind gossip (b=0)", "bit convergence (b=1)", "speedup"]
        growing = make_table(cols, [(1, 100, 120, 0.8), ("inf", 500, 100, 5.0)])
        assert all(c.passed for c in verify_experiment("E7", growing))
        shrinking = make_table(cols, [(1, 100, 50, 2.0), ("inf", 100, 200, 0.5)])
        assert not all(c.passed for c in verify_experiment("E7", shrinking))

    def test_e12_ordering_detection(self):
        cols = ["Delta", "n", "static", "oblivious tau=1", "adaptive tau=1"]
        good = make_table(cols, [(9, 18, 90.0, 40.0, 150.0), (17, 34, 280.0, 90.0, 460.0)])
        assert all(c.passed for c in verify_experiment("E12", good))
        bad = make_table(cols, [(9, 18, 90.0, 40.0, 30.0), (17, 34, 280.0, 90.0, 60.0)])
        assert not all(c.passed for c in verify_experiment("E12", bad))

    def test_r3_without_clean_row_fails(self):
        cols = [
            "crash fraction", "crashed nodes", "quiesce round",
            "median rounds", "recovery after quiesce",
        ]
        table = make_table(cols, [(0.25, 4, 30, 40.0, 12.0), (0.5, 8, 30, 55.0, 20.0)])
        results = {c.name: c for c in verify_experiment("R3", table)}
        recovery = results["post-quiesce recovery within 5x of the clean run"]
        assert not recovery.passed
        assert "no crash fraction 0 row" in recovery.detail

    def test_e18_agreement_detection(self):
        cols = ["tau", "leader election rounds", "consensus rounds", "overhead", "agreement+validity"]
        good = make_table(cols, [(1, 50.0, 50.0, 1.0, True)])
        assert all(c.passed for c in verify_experiment("E18", good))
        bad = make_table(cols, [(1, 50.0, 50.0, 1.0, False)])
        assert not all(c.passed for c in verify_experiment("E18", bad))


class TestLiveQuickRuns:
    """A sample of experiments verifies end-to-end at tiny size."""

    @pytest.mark.parametrize("exp_id,overrides", [
        ("E1", dict(n_small=8, random_graphs=2)),
        ("E3", dict(leaf_counts=(4, 8, 16), trials=5)),
        ("A3", dict(leaves=6, regular_n=12, degree=3, trials=4)),
    ])
    def test_quick_profile_passes(self, exp_id, overrides):
        from repro.harness.experiments import run_experiment

        table = run_experiment(exp_id, "quick", **overrides)
        results = verify_experiment(exp_id, table)
        assert results
        assert all(c.passed for c in results), [str(c) for c in results]


class TestArchivedResultsVerify:
    def test_saved_json_results_verify(self, tmp_path):
        """The verifier consumes persisted results, not just live ones."""
        from repro.harness.experiments import run_experiment
        from repro.harness.persistence import load_table, save_table

        table = run_experiment("E1", "quick", n_small=8, random_graphs=1)
        path = tmp_path / "E1.json"
        save_table(table, path, exp_id="E1", profile="quick")
        reloaded = load_table(path)
        assert all(c.passed for c in verify_experiment("E1", reloaded))
