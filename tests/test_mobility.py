"""Tests for repro.graphs.mobility: unit-disk graphs and random waypoint."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.mobility import RandomWaypointDynamicGraph, unit_disk_graph
from repro.graphs.static import Graph
from repro.graphs.validation import check_connected, check_stability_contract


class TestUnitDiskGraph:
    def test_radius_controls_edges(self):
        pos = np.array([[0.0, 0.0], [0.1, 0.0], [0.9, 0.9]])
        g = unit_disk_graph(pos, radius=0.2, repair=False)
        assert g.has_edge(0, 1) and not g.has_edge(0, 2)

    def test_large_radius_clique(self):
        pos = np.random.default_rng(0).random((6, 2))
        g = unit_disk_graph(pos, radius=2.0)
        assert g.num_edges == 15

    def test_repair_connects(self):
        pos = np.array([[0.0, 0.0], [0.05, 0.0], [1.0, 1.0], [0.95, 1.0]])
        raw = unit_disk_graph(pos, radius=0.2, repair=False)
        assert not raw.is_connected()
        repaired = unit_disk_graph(pos, radius=0.2, repair=True)
        assert repaired.is_connected()

    def test_repair_adds_shortest_bridge(self):
        pos = np.array([[0.0, 0.0], [0.4, 0.0], [1.0, 0.0]])
        g = unit_disk_graph(pos, radius=0.1, repair=True)
        # Bridges should be 0-1 and 1-2 (shorter than 0-2).
        assert g.has_edge(0, 1) and g.has_edge(1, 2)
        assert not g.has_edge(0, 2)


def greedy_repair(positions, radius):
    """The repair by definition: while disconnected, add the globally
    shortest pair between two components (first in pair order on ties)."""
    pos = np.asarray(positions, dtype=np.float64)
    n = pos.shape[0]
    d2 = np.sum((pos[:, None, :] - pos[None, :, :]) ** 2, axis=-1)
    iu, ju = np.triu_indices(n, k=1)
    mask = d2[iu, ju] <= radius * radius
    edges = list(zip(iu[mask].tolist(), ju[mask].tolist()))
    g = Graph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    while True:
        comps = g.connected_components()
        if len(comps) == 1:
            return g
        comp_id = np.empty(n, dtype=np.int64)
        for ci, verts in enumerate(comps):
            comp_id[verts] = ci
        cand = np.flatnonzero(comp_id[iu] != comp_id[ju])
        best = cand[np.argmin(d2[iu[cand], ju[cand]])]
        edges.append((int(iu[best]), int(ju[best])))
        g = Graph(n, np.asarray(edges, dtype=np.int64))


def clustered_points(seed, clusters, n=24):
    """``n`` points in ``clusters`` tight groups far apart: at radius 0.05
    each group is one unit-disk component."""
    rng = np.random.default_rng(seed)
    corners = np.array(
        [[0.15, 0.15], [0.85, 0.15], [0.15, 0.85], [0.85, 0.85], [0.5, 0.5]]
    )
    centers = corners[:clusters] + (rng.random((clusters, 2)) - 0.5) * 0.1
    owner = np.arange(n) % clusters
    return centers[owner] + (rng.random((n, 2)) - 0.5) * 0.02


class TestRepairOracle:
    @pytest.mark.parametrize("clusters", range(1, 6))
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_greedy_repair(self, clusters, seed):
        pos = clustered_points(seed, clusters)
        raw = unit_disk_graph(pos, radius=0.05, repair=False)
        assert len(raw.connected_components()) == clusters
        got = unit_disk_graph(pos, radius=0.05)
        assert got == greedy_repair(pos, 0.05)
        assert got.is_connected()
        assert got.num_edges - raw.num_edges == clusters - 1

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_greedy_repair_with_tied_lengths(self, seed):
        """Grid points: many pairs share a length, so the tie-break decides."""
        rng = np.random.default_rng(seed)
        pos = np.round(rng.random((20, 2)) * 5) / 5
        pos = np.unique(pos, axis=0)
        assert unit_disk_graph(pos, radius=0.1) == greedy_repair(pos, 0.1)

    def test_waypoint_epochs_match_greedy_repair(self):
        dg = RandomWaypointDynamicGraph(24, tau=1, seed=11)
        for e in range(12):
            pos, _ = dg._state(e)
            assert unit_disk_graph(pos, 0.3) == greedy_repair(pos, 0.3)


class TestGroupWaypoint:
    def test_connected_and_stable(self):
        from repro.graphs.mobility import GroupWaypointDynamicGraph

        dg = GroupWaypointDynamicGraph(16, tau=3, groups=3, seed=1)
        check_connected(dg, 24)
        check_stability_contract(dg, 24)

    def test_deterministic(self):
        from repro.graphs.mobility import GroupWaypointDynamicGraph

        mk = lambda: GroupWaypointDynamicGraph(12, tau=2, groups=2, seed=4)
        a, b = mk(), mk()
        for r in (1, 3, 7):
            assert a.graph_at(r) == b.graph_at(r)

    def test_clusters_are_dense(self):
        from repro.graphs.mobility import GroupWaypointDynamicGraph

        dg = GroupWaypointDynamicGraph(
            18, tau=1, groups=3, radius=0.25, spread=0.05, seed=2
        )
        g = dg.graph_at(1)
        groups = dg._member_group
        # Within-cluster pairs connect much more often than cross-cluster.
        same = diff = same_hits = diff_hits = 0
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if groups[u] == groups[v]:
                    same += 1
                    same_hits += g.has_edge(u, v)
                else:
                    diff += 1
                    diff_hits += g.has_edge(u, v)
        assert same_hits / max(same, 1) > diff_hits / max(diff, 1)

    def test_validation(self):
        from repro.graphs.mobility import GroupWaypointDynamicGraph

        with pytest.raises(ValueError):
            GroupWaypointDynamicGraph(10, tau=1, groups=0)
        with pytest.raises(ValueError):
            GroupWaypointDynamicGraph(10, tau=1, groups=11)
        with pytest.raises(ValueError):
            GroupWaypointDynamicGraph(10, tau=0)

    def test_leader_election_over_group_mobility(self):
        from repro.algorithms import AsyncBitConvergenceBatched, BitConvergenceConfig
        from repro.core import VectorizedEngine
        from repro.graphs.mobility import GroupWaypointDynamicGraph
        from repro.harness.experiments import uid_keys_random

        n = 16
        dg = GroupWaypointDynamicGraph(n, tau=4, groups=2, seed=3)
        cfg = BitConvergenceConfig(n_upper=n, delta_bound=n - 1, beta=1.0)
        keys = uid_keys_random(n, 5)
        algo = AsyncBitConvergenceBatched(keys, cfg, tag_seed=6, unique_tags=True)
        eng = VectorizedEngine(dg, algo, seed=7)
        assert eng.run(500_000).stabilized


class TestRandomWaypoint:
    def test_all_epochs_connected(self):
        dg = RandomWaypointDynamicGraph(12, tau=3, radius=0.3, speed=0.1, seed=1)
        check_connected(dg, 30)

    def test_honours_stability_contract(self):
        dg = RandomWaypointDynamicGraph(8, tau=4, radius=0.4, speed=0.2, seed=2)
        check_stability_contract(dg, 24)

    def test_deterministic(self):
        mk = lambda: RandomWaypointDynamicGraph(10, tau=2, radius=0.35, speed=0.1, seed=5)
        a, b = mk(), mk()
        for r in (1, 4, 9):
            assert a.graph_at(r) == b.graph_at(r)

    def test_out_of_order_access(self):
        dg = RandomWaypointDynamicGraph(10, tau=2, radius=0.35, speed=0.1, seed=5)
        g9 = dg.graph_at(9)
        g1 = dg.graph_at(1)
        assert dg.graph_at(9) == g9 and dg.graph_at(1) == g1

    def test_topology_eventually_changes(self):
        dg = RandomWaypointDynamicGraph(10, tau=1, radius=0.3, speed=0.2, seed=3)
        assert any(dg.graph_at(r) != dg.graph_at(1) for r in range(2, 20))

    def test_zero_speed_static(self):
        dg = RandomWaypointDynamicGraph(8, tau=1, radius=0.4, speed=0.0, seed=4)
        assert all(dg.graph_at(r) == dg.graph_at(1) for r in range(2, 6))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RandomWaypointDynamicGraph(1, tau=1)
        with pytest.raises(ValueError):
            RandomWaypointDynamicGraph(5, tau=0)
        with pytest.raises(ValueError):
            RandomWaypointDynamicGraph(5, tau=1, radius=-1.0)
