"""Additional CLI coverage: async simulate, new families, verify subcommand."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestSimulateAsync:
    def test_async_bit_convergence(self, capsys):
        code = main(
            [
                "simulate", "async_bit_convergence",
                "--family", "random_regular", "--params", "12", "3",
            ]
        )
        assert code == 0
        assert "stabilized" in capsys.readouterr().out

    def test_async_rejects_membership_plan(self, capsys, tmp_path):
        import json

        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            {"membership": {"events": [{"slot": 1, "round": 3, "kind": "depart"}]}}
        ))
        code = main(
            [
                "simulate", "blind_gossip", "--engine", "async",
                "--family", "clique", "--params", "8", "--fault-plan", str(plan),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: the async tier does not run: membership")
        assert "Traceback" not in err

    def test_progress_sparkline_shown_for_observables(self, capsys):
        code = main(
            ["simulate", "blind_gossip", "--family", "clique", "--params", "12"]
        )
        assert code == 0
        assert "progress" in capsys.readouterr().out


class TestNewFamilies:
    @pytest.mark.parametrize(
        "family,params,expected_n",
        [
            ("wheel", ["10"], 10),
            ("torus", ["3", "4"], 12),
            ("caterpillar", ["3", "2"], 9),
            ("staircase_bipartite", ["5"], 10),
        ],
    )
    def test_graph_command(self, capsys, family, params, expected_n):
        assert main(["graph", family, *params]) == 0
        assert f"n          : {expected_n}" in capsys.readouterr().out


class TestChunkNodesFlag:
    def test_chunked_engine_simulates(self, capsys):
        code = main(
            [
                "simulate", "blind_gossip",
                "--family", "random_regular", "--params", "64", "4",
                "--chunk-nodes", "16",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stabilized" in out

    def test_chunk_nodes_must_be_positive(self, capsys):
        code = main(
            [
                "simulate", "blind_gossip",
                "--family", "clique", "--params", "8",
                "--chunk-nodes", "0",
            ]
        )
        assert code == 2
        assert "chunk-nodes" in capsys.readouterr().err

    def test_chunked_rejects_non_sparse_algorithms(self, capsys):
        code = main(
            [
                "simulate", "ppush",
                "--family", "random_regular", "--params", "16", "4",
                "--chunk-nodes", "8",
            ]
        )
        assert code == 2
        assert "sparse_compatible" in capsys.readouterr().err

    def test_chunked_rejects_fault_plans(self, capsys, tmp_path):
        import json

        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"connection_drop": {"p": 0.5}}))
        code = main(
            [
                "simulate", "blind_gossip",
                "--family", "random_regular", "--params", "16", "4",
                "--chunk-nodes", "8", "--fault-plan", str(plan),
            ]
        )
        assert code == 2
        assert "connection_drop" in capsys.readouterr().err


class TestVerifySubcommand:
    def test_verify_passes_on_e1(self, capsys):
        code = main(["experiments", "verify", "E1", "--profile", "quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "checks passed" in out

    def test_verify_lowercase_id(self, capsys):
        assert main(["experiments", "verify", "e1"]) == 0
