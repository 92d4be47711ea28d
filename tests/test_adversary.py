"""Tests for the adaptive adversary (repro.graphs.adversary)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.push_pull import PushPullBatched, make_push_pull_nodes
from repro.core.engine import ReferenceEngine
from repro.core.monitor import rumor_complete
from repro.core.payload import UIDSpace
from repro.core.vectorized import VectorizedEngine
from repro.graphs import families
from repro.graphs.adversary import PackingAdversary, packing_order_for
from repro.graphs.dynamic import StaticDynamicGraph


class TestPackingOrder:
    def test_is_permutation(self):
        for g in (families.double_star(4), families.line_of_stars(3, 3)):
            order = packing_order_for(g)
            assert sorted(order.tolist()) == list(range(g.n))

    def test_double_star_prefixes_have_unit_cut_matching(self):
        from repro.analysis.matching import cut_matching_size

        g = families.double_star(6)
        order = packing_order_for(g)
        for size in range(1, g.n):
            assert cut_matching_size(g, order[:size].tolist()) <= 2

    def test_leaves_before_hubs(self):
        g = families.double_star(5)
        order = packing_order_for(g)
        # The first entries are degree-1 leaves of the same star.
        assert all(g.degree(int(v)) == 1 for v in order[:4])

    def test_line_of_stars_prefixes_small_cut_matching(self):
        from repro.analysis.matching import cut_matching_size

        g = families.line_of_stars(4, 4)
        order = packing_order_for(g)
        for size in range(1, g.n):
            assert cut_matching_size(g, order[:size].tolist()) <= 3


class TestPackingAdversary:
    def test_preserves_alpha_delta(self):
        base = families.double_star(5)
        adv = PackingAdversary(base, tau=1)
        rng = np.random.default_rng(0)
        for r in range(1, 10):
            adv.observe(r, rng.random(base.n) < 0.5)
            g = adv.graph_at(r)
            assert sorted(g.degrees.tolist()) == sorted(base.degrees.tolist())
            assert g.num_edges == base.num_edges
            assert g.is_connected()

    def test_informed_nodes_packed_behind_small_cut(self):
        from repro.analysis.matching import cut_matching_size

        base = families.double_star(8)
        adv = PackingAdversary(base, tau=1)
        mask = np.zeros(base.n, dtype=bool)
        mask[[3, 7, 11]] = True  # arbitrary informed nodes
        adv.observe(1, mask)
        g = adv.graph_at(1)
        informed = np.flatnonzero(mask).tolist()
        assert cut_matching_size(g, informed) == 1

    def test_respects_tau(self):
        base = families.double_star(4)
        adv = PackingAdversary(base, tau=3)
        masks = [np.random.default_rng(s).random(base.n) < 0.5 for s in range(9)]
        graphs = []
        for r in range(1, 10):
            adv.observe(r, masks[r - 1])
            graphs.append(adv.graph_at(r))
        # Stable within each epoch of 3 rounds.
        assert graphs[0] == graphs[1] == graphs[2]
        assert graphs[3] == graphs[4] == graphs[5]

    def test_forward_only(self):
        base = families.double_star(4)
        adv = PackingAdversary(base, tau=1)
        adv.observe(3, None)
        with pytest.raises(ValueError):
            adv.observe(3, None)
        with pytest.raises(ValueError):
            adv.observe(2, None)

    def test_none_observation_keeps_graph(self):
        base = families.double_star(4)
        adv = PackingAdversary(base, tau=1)
        adv.observe(1, None)
        g1 = adv.graph_at(1)
        adv.observe(2, None)
        assert adv.graph_at(2) == g1

    def test_bad_observation_shape(self):
        adv = PackingAdversary(families.double_star(4), tau=1)
        with pytest.raises(ValueError):
            adv.observe(1, np.zeros(3, dtype=bool))

    def test_bad_packing_order(self):
        with pytest.raises(ValueError):
            PackingAdversary(
                families.double_star(4), packing_order=np.zeros(10, dtype=np.int64)
            )


class TestAdversaryEndToEnd:
    def test_rumor_still_completes_vectorized(self):
        base = families.double_star(8)
        adv = PackingAdversary(base, tau=1)
        eng = VectorizedEngine(adv, PushPullBatched(np.array([2])), seed=0)
        res = eng.run(500_000)
        assert res.stabilized

    def test_rumor_still_completes_reference(self):
        base = families.double_star(4)
        us = UIDSpace(base.n, seed=0)
        nodes = make_push_pull_nodes(us, sources={2})
        adv = PackingAdversary(base, tau=1)
        eng = ReferenceEngine(adv, nodes, seed=1)
        res = eng.run(200_000, rumor_complete)
        assert res.stabilized

    def test_adaptive_slower_than_static(self):
        base = families.double_star(16)
        adaptive = np.median(
            [
                VectorizedEngine(
                    PackingAdversary(base, tau=1),
                    PushPullBatched(np.array([2])),
                    seed=t,
                ).run(10**6).rounds
                for t in range(5)
            ]
        )
        from repro.graphs.dynamic import PeriodicRelabelDynamicGraph

        oblivious = np.median(
            [
                VectorizedEngine(
                    PeriodicRelabelDynamicGraph(base, 1, seed=t),
                    PushPullBatched(np.array([2])),
                    seed=t,
                ).run(10**6).rounds
                for t in range(5)
            ]
        )
        assert adaptive > oblivious
