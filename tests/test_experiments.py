"""Tests for the experiment registry.

Each registered experiment runs at a *tiny* override (smaller than its
``quick`` profile) to verify it executes end-to-end and produces a table
with the expected columns. Every cheap quick-profile cell is also run and
compared with its section of the committed ``quick_results.txt``; CI
diffs a fresh ``repro experiments run-all --output`` against the whole
archive.
The cheap structural claims (E1, E2) are asserted here in full.
"""

from __future__ import annotations

import hashlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

from repro.graphs import families
from repro.graphs.adversary import BatchedPackingAdversary, PackingAdversary
from repro.graphs.dynamic import PeriodicRelabelDynamicGraph, StaticDynamicGraph
from repro.harness.campaign import read_campaign_text
from repro.harness.experiments import (
    EXPERIMENTS,
    _one_replica,
    registry_order,
    run_experiment,
    uid_keys_random,
    uid_keys_with_min_at,
)
from repro.harness.tables import Table

_REPO = Path(__file__).resolve().parent.parent


class TestHelpers:
    def test_uid_keys_distinct(self):
        keys = uid_keys_random(50, 0)
        assert len(set(keys.tolist())) == 50

    def test_uid_keys_deterministic(self):
        assert (uid_keys_random(10, 1) == uid_keys_random(10, 1)).all()

    def test_min_placement(self):
        keys = uid_keys_with_min_at(20, 7, 0)
        assert keys.argmin() == 7
        assert len(set(keys.tolist())) == 20


class TestRegistry:
    def test_all_experiments_registered(self):
        expected = {"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "A1", "A2", "A3", "A4", "A5", "R1", "R2", "R3", "S1", "T1", "T2", "T3"}
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    def test_every_experiment_has_claim_and_profiles(self):
        for exp in EXPERIMENTS.values():
            assert exp.claim
            assert isinstance(exp.quick, dict) or exp.quick == {}
            assert isinstance(exp.standard, dict) or exp.standard == {}


class TestE1Full:
    def test_lemma_v1_holds_everywhere(self):
        table = run_experiment("E1", "quick")
        assert all(table.column("gamma >= alpha/4"))

    def test_gamma_never_exceeds_alpha(self):
        table = run_experiment("E1", "quick")
        for alpha, gamma in zip(table.column("alpha"), table.column("gamma")):
            assert gamma <= alpha + 1e-12


class TestE2Full:
    def test_theorem_v2_bound_met(self):
        table = run_experiment("E2", "quick", m=32, d=4, trials=8)
        assert all(table.column("measured >= predicted"))

    @staticmethod
    def _fractions_by_workload(table):
        per_workload: dict[str, list[float]] = {}
        for row in table.rows:
            _r, workload, _f, _pred, mean_f, _q10, _ok = row
            per_workload.setdefault(workload, []).append(mean_f)
        return per_workload

    def test_more_stable_rounds_more_informed(self):
        table = run_experiment("E2", "quick", m=32, d=8, trials=8)
        for fracs in self._fractions_by_workload(table).values():
            assert fracs == sorted(fracs)

    def test_staircase_is_strictly_harder(self):
        table = run_experiment("E2", "quick", m=32, d=8, trials=8)
        per_workload = self._fractions_by_workload(table)
        for reg, stair in zip(per_workload["regular"], per_workload["staircase"]):
            assert stair < reg


class TestTinySmoke:
    """Every remaining experiment runs end-to-end at a tiny size."""

    @pytest.mark.parametrize(
        "exp_id,overrides",
        [
            ("E3", dict(leaf_counts=(3, 5), trials=3, max_rounds=100_000)),
            ("E4", dict(star_sizes=(3, 4), trials=3, max_rounds=200_000)),
            ("E5", dict(leaf_counts=(3, 5), trials=3, max_rounds=100_000)),
            ("E6", dict(n=16, degree=4, taus=(1, math.inf), trials=3)),
            ("E7", dict(leaves=6, taus=(1, math.inf), trials=3)),
            ("E8", dict(n=8, degree=3, trials=2)),
            ("E9", dict(component_n=6, degree=3, trials=2)),
            ("E10", dict(leaf_counts=(3, 5), trials=3)),
            ("E11", dict(sizes=(8, 12), trials=2)),
            ("E12", dict(leaf_counts=(4, 6), trials=2)),
            ("E13", dict(n=12, degree=3, taus=(1,), trials=2, max_phases=20)),
            ("E14", dict(sizes=(16, 32), degree=4, trials=3)),
            ("E15", dict(n=16, degree=4, trials=2)),
            ("E16", dict(sizes=(6, 10), degree=3, trials=2)),
            ("E17", dict(n=12, degree=3, trials=2)),
            ("E18", dict(n=12, degree=3, taus=(1,), trials=2)),
            ("E19", dict(n=12, degree=3, trials=2, max_phases=15)),
            ("A1", dict(n=12, degree=3, multipliers=(1, 2), trials=2)),
            ("A2", dict(n=12, degree=3, betas=(1.0,), trials=2)),
            ("A3", dict(leaves=4, regular_n=10, degree=3, trials=2)),
            ("A4", dict(n=12, degree=3, deltas=(1, 2), trials=2)),
            ("A5", dict(n=12, degree=3, deltas=(1, 2), trials=2)),
            ("R1", dict(leaves=4, drop_ps=(0.0, 0.4), trials=2)),
            ("R2", dict(n=12, degree=3, fractions=(0.5, 1.0), trials=2)),
            ("R3", dict(n=12, degree=3, crash_fracs=(0.0, 0.25), trials=2)),
            ("S1", dict(sizes=(64, 128), degree=4, trials=2, chunk_nodes=48)),
        ],
    )
    def test_runs_and_returns_table(self, exp_id, overrides):
        table = run_experiment(exp_id, "quick", **overrides)
        assert isinstance(table, Table)
        assert table.rows
        assert exp_id in table.title
        rendered = table.render()
        assert table.columns[0] in rendered


# Every experiment with an ``engine=`` switch, at tiny kwargs.
_TIER_CASES = {
    "E3": dict(leaf_counts=(3, 5), trials=3, max_rounds=100_000),
    "E4": dict(star_sizes=(3, 4), trials=3, max_rounds=200_000),
    "E5": dict(leaf_counts=(3, 5), trials=3, max_rounds=100_000),
    "E6": dict(n=16, degree=4, taus=(1, math.inf), trials=3),
    "E7": dict(leaves=6, taus=(1, math.inf), trials=3),
    "E11": dict(sizes=(8, 12), trials=2),
    "E12": dict(leaf_counts=(4, 6), trials=2),
    "A1": dict(n=12, degree=3, multipliers=(1, 2), trials=2),
    "R1": dict(leaves=4, drop_ps=(0.0, 0.4), trials=2),
    "R2": dict(n=12, degree=3, fractions=(0.5, 1.0), trials=2),
    "R3": dict(n=12, degree=3, crash_fracs=(0.0, 0.25), trials=2),
}

# sha256 of each rendered table on each tier, pinned from the earlier
# form with one hand-written builder per tier.  The one-builder cells
# must reproduce both columns byte for byte: same trial seeds, ID tags,
# relabel streams and fault streams on either tier.
_TIER_DIGESTS = {
    ("E3", "single"):
        "ed3eb9600964c7adc82028ee07b6b33871fc8428c2a952fd798bffd4e89eac56",
    ("E3", "batched"):
        "d370021b156e7050fda23f616419729b729c6889e4479862d4dc845c6711a9b4",
    ("E4", "single"):
        "b139595fdadf96a226d8503d2c34967cc876e96fb8d2b41fc53b42c7bb881f33",
    ("E4", "batched"):
        "4d1c73ec70ba34f9365496b225c22e318427134855956d06c3802f1400d7797a",
    ("E5", "single"):
        "5ee80d3af419ffee1cd2a7ff7e2ec96be4035ee34a8069cc881c073432319d32",
    ("E5", "batched"):
        "5c7c89dc7135dc1cbb45e4bc80e73da0a65d39733199d1417d8e1ae5272e1b45",
    ("E6", "single"):
        "11976dc115f9518e365f45271d0bdfe11e628736a2d66a1b9709f5084160d99d",
    ("E6", "batched"):
        "11976dc115f9518e365f45271d0bdfe11e628736a2d66a1b9709f5084160d99d",
    ("E7", "single"):
        "64ca8bcca510d37b8efbb3aa652a90acdf1387043c921b10099794a9537f8f47",
    ("E7", "batched"):
        "0d4a28b29f0975c4393fc725a9912037d9fb10576c6a71943882503e7d465056",
    ("E11", "single"):
        "0538c5e92f5f38780955c9433ddfff3c061ba1e5e6e3d4469a219f46155a5918",
    ("E11", "batched"):
        "e04980171962fec8f4262fae5d8b3fca6c379059395e5c6b02f55827998843c9",
    ("E12", "single"):
        "642318e25c171e012a29a0abd987a1ccacc827697135f6e0f5e19aab59d9287f",
    ("E12", "batched"):
        "f2d2eeaebc86af0178e55d0c65e45a569ce0fc59fa61c19a4dd797a774c2edd9",
    ("A1", "single"):
        "d5c28adabb71c14efb0f257287832ecdd7d6abd7b53b65b261f6f843385e6b40",
    ("A1", "batched"):
        "d5c28adabb71c14efb0f257287832ecdd7d6abd7b53b65b261f6f843385e6b40",
    ("R1", "single"):
        "614001476374330b4176e9c2703ff6bf48696098d5a90c59a3c8b39c8db66612",
    ("R1", "batched"):
        "6b9bfc754be3ba021bc4bf38d6bf1e6a340c17d756a6e64b78227342ad58024e",
    ("R2", "single"):
        "bb4e06662f8bfccbd8c348236bc2c94ab591065454eca8f1f0c8f9412d24b8a8",
    ("R2", "batched"):
        "e36408967989dfacdb6a93e5bfc4916536163aade82f3e13419a36206fb7cf1e",
    ("R3", "single"):
        "20a4d5ff3ef1786510b1fbdf26a8ed5ba9279294363c5e0067f77a2398cfd5a1",
    ("R3", "batched"):
        "4f54941869d968f265435b7a0219bf227462aab2b36269f58e3ff0b7f45c3ce4",
}


class TestEngineTierDigestPins:
    @pytest.mark.parametrize("exp_id,engine", sorted(_TIER_DIGESTS))
    def test_rendered_table_is_pinned(self, exp_id, engine):
        table = run_experiment(exp_id, "quick", engine=engine, **_TIER_CASES[exp_id])
        digest = hashlib.sha256(table.render().encode()).hexdigest()
        assert digest == _TIER_DIGESTS[exp_id, engine]

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine must be"):
            run_experiment("E4", "quick", engine="gpu", **_TIER_CASES["E4"])


# Quick cells left to CI's diff of the whole archive, with their seconds
# in a serial quick campaign on a 2-vCPU Xeon: every other quick cell took
# at most 0.5 s and is compared with its archive section below.
_ARCHIVE_SLOW_CELLS = {
    "E6": 2.8, "E7": 1.9, "E12": 0.6, "E16": 1.1, "E17": 1.8, "S1": 2.7,
}


def _archive(profile: str) -> str:
    return (_REPO / f"{profile}_results.txt").read_text()


class TestQuickArchive:
    """``quick_results.txt`` is the one record of the quick tables: a
    change to any table shows as a failed comparison here (cheap cells)
    or in CI's ``diff`` of a fresh ``run-all --output`` (all cells)."""

    @pytest.fixture(scope="class")
    def sections(self) -> dict[str, str]:
        return read_campaign_text(_archive("quick"))

    @pytest.mark.parametrize(
        "exp_id", [e for e in registry_order() if e not in _ARCHIVE_SLOW_CELLS]
    )
    def test_quick_table_matches_archive(self, exp_id, sections):
        assert run_experiment(exp_id, "quick").render() == sections[exp_id]

    @pytest.mark.parametrize("profile", ["quick", "standard"])
    def test_archive_has_one_section_per_cell(self, profile):
        headers = re.findall(r"^### (\S+) — (.*)  \[(\w+)\]$", _archive(profile), re.M)
        assert headers == [
            (exp_id, EXPERIMENTS[exp_id].claim, profile) for exp_id in registry_order()
        ]


class TestOneReplica:
    """``build([ts])`` topologies become what a single engine runs."""

    def test_per_replica_list_unwraps(self):
        dg = PeriodicRelabelDynamicGraph(families.ring(8), 2, seed=3)
        assert _one_replica([dg]) is dg
        with pytest.raises(ValueError):
            _one_replica([dg, dg])

    def test_packing_adversary_keeps_base_tau_and_order(self):
        batched = BatchedPackingAdversary(families.double_star(4), tau=3, replicas=1)
        single = _one_replica(batched)
        assert isinstance(single, PackingAdversary)
        assert single.tau == 3
        assert single.graph_at(1) is batched.base
        np.testing.assert_array_equal(single.packing_order, batched.packing_order)

    def test_shared_graph_passes_through(self):
        dg = StaticDynamicGraph(families.ring(8))
        assert _one_replica(dg) is dg
