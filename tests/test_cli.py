"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiments_run_args(self):
        args = build_parser().parse_args(
            ["experiments", "run", "E3", "--profile", "standard"]
        )
        assert args.exp_id == "E3" and args.profile == "standard"

    def test_graph_args(self):
        args = build_parser().parse_args(["graph", "double_star", "5"])
        assert args.family == "double_star" and args.params == [5]

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["graph", "mystery"])


class TestExperimentsCommand:
    def test_list(self, capsys):
        assert main(["experiments", "list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "A3" in out and "Lemma V.1" in out

    def test_run_tiny(self, capsys, tmp_path):
        save = tmp_path / "e1.txt"
        code = main(
            ["experiments", "run", "e1", "--profile", "quick", "--save", str(save)]
        )
        assert code == 0
        assert "Lemma V.1" in capsys.readouterr().out
        assert save.exists() and "gamma" in save.read_text()

    def test_run_unknown_id(self):
        with pytest.raises(KeyError):
            main(["experiments", "run", "E99"])


class TestGraphCommand:
    def test_small_graph_report(self, capsys):
        assert main(["graph", "double_star", "4"]) == 0
        out = capsys.readouterr().out
        assert "n          : 10" in out
        assert "gamma" in out  # small enough for exact gamma

    def test_large_graph_skips_gamma(self, capsys):
        assert main(["graph", "clique", "24"]) == 0
        out = capsys.readouterr().out
        assert "gamma" not in out
        assert "sweep upper bound" in out

    def test_wrong_param_count(self):
        with pytest.raises(SystemExit):
            main(["graph", "grid", "3"])

    def test_default_params(self, capsys):
        assert main(["graph", "hypercube"]) == 0
        assert "n          : 16" in capsys.readouterr().out


class TestSimulateCommand:
    @pytest.mark.parametrize(
        "algo", ["blind_gossip", "bit_convergence", "push_pull", "ppush"]
    )
    def test_algorithms_stabilize(self, algo, capsys):
        code = main(
            ["simulate", algo, "--family", "random_regular", "--params", "16", "4"]
        )
        assert code == 0
        assert "stabilized" in capsys.readouterr().out

    def test_with_churn(self, capsys):
        code = main(
            [
                "simulate", "blind_gossip",
                "--family", "double_star", "--params", "4",
                "--tau", "1",
            ]
        )
        assert code == 0

    def test_horizon_failure_exit_code(self, capsys):
        code = main(
            [
                "simulate", "blind_gossip",
                "--family", "double_star", "--params", "16",
                "--max-rounds", "2",
            ]
        )
        assert code == 1
        assert "did not stabilize" in capsys.readouterr().out


class TestBoundsCommand:
    def test_outputs_all_bounds(self, capsys):
        code = main(["bounds", "--n", "64", "--alpha", "0.5", "--delta", "8"])
        assert code == 0
        out = capsys.readouterr().out
        for needle in ("Thm VI.1", "Thm VII.2", "Thm VIII.2", "tau_hat"):
            assert needle in out
