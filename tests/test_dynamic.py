"""Tests for repro.graphs.dynamic: epoch arithmetic and churn generators."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.graphs import families
from repro.graphs.dynamic import (
    PeriodicRelabelDynamicGraph,
    ResampleDynamicGraph,
    ScheduleDynamicGraph,
    StaticDynamicGraph,
    epoch_of_round,
    first_round_of_epoch,
)
from repro.graphs.validation import check_stability_contract


class TestEpochArithmetic:
    def test_tau_one_every_round_new_epoch(self):
        assert [epoch_of_round(r, 1) for r in (1, 2, 3)] == [0, 1, 2]

    def test_tau_three(self):
        assert [epoch_of_round(r, 3) for r in range(1, 8)] == [0, 0, 0, 1, 1, 1, 2]

    def test_infinite_tau_single_epoch(self):
        assert epoch_of_round(10**9, math.inf) == 0

    def test_rejects_round_zero(self):
        with pytest.raises(ValueError):
            epoch_of_round(0, 2)

    def test_first_round_inverse(self):
        for tau in (1, 2, 5):
            for e in range(4):
                r = first_round_of_epoch(e, tau)
                assert epoch_of_round(r, tau) == e
                if r > 1:
                    assert epoch_of_round(r - 1, tau) == e - 1


class TestStaticDynamicGraph:
    def test_same_graph_every_round(self):
        g = families.ring(6)
        dg = StaticDynamicGraph(g)
        assert dg.graph_at(1) is dg.graph_at(500)
        assert math.isinf(dg.tau)
        assert dg.max_degree(100) == 2

    def test_rejects_disconnected(self):
        from repro.graphs.static import Graph

        with pytest.raises(ValueError):
            StaticDynamicGraph(Graph(4, [(0, 1), (2, 3)]))

    def test_rejects_round_zero(self):
        dg = StaticDynamicGraph(families.ring(4))
        with pytest.raises(ValueError):
            dg.graph_at(0)


class TestScheduleDynamicGraph:
    def test_epoch_progression(self):
        g1, g2 = families.ring(6), families.path(6)
        dg = ScheduleDynamicGraph([g1, g2], tau=3)
        assert dg.graph_at(1) == g1 and dg.graph_at(3) == g1
        assert dg.graph_at(4) == g2 and dg.graph_at(100) == g2

    def test_cycle(self):
        g1, g2 = families.ring(6), families.path(6)
        dg = ScheduleDynamicGraph([g1, g2], tau=2, cycle=True)
        assert dg.graph_at(5) == g1 and dg.graph_at(7) == g2

    def test_rejects_mismatched_vertex_sets(self):
        with pytest.raises(ValueError):
            ScheduleDynamicGraph([families.ring(6), families.ring(7)], tau=1)

    def test_rejects_disconnected_member(self):
        from repro.graphs.static import Graph

        with pytest.raises(ValueError):
            ScheduleDynamicGraph([Graph(4, [(0, 1), (2, 3)])], tau=1)

    def test_honours_stability_contract(self):
        gs = [families.ring(6), families.path(6), families.star(6)]
        dg = ScheduleDynamicGraph(gs, tau=4)
        check_stability_contract(dg, 20)


class TestPeriodicRelabel:
    def test_preserves_alpha_and_delta(self):
        base = families.double_star(4)
        dg = PeriodicRelabelDynamicGraph(base, tau=1, seed=0)
        for r in (1, 2, 7):
            g = dg.graph_at(r)
            assert sorted(g.degrees.tolist()) == sorted(base.degrees.tolist())
            assert g.num_edges == base.num_edges

    def test_deterministic_per_round(self):
        base = families.ring(8)
        dg = PeriodicRelabelDynamicGraph(base, tau=2, seed=5)
        assert dg.graph_at(3) == dg.graph_at(3)
        assert dg.graph_at(3) == dg.graph_at(4)  # same epoch

    def test_changes_between_epochs(self):
        base = families.double_star(6)
        dg = PeriodicRelabelDynamicGraph(base, tau=2, seed=5)
        # Overwhelmingly likely that at least one of the next epochs differs.
        assert any(dg.graph_at(1 + 2 * e) != dg.graph_at(1) for e in range(1, 6))

    def test_honours_stability_contract(self):
        base = families.double_star(3)
        for tau in (1, 2, 5):
            dg = PeriodicRelabelDynamicGraph(base, tau=tau, seed=1)
            check_stability_contract(dg, 25)

    def test_out_of_order_access_consistent(self):
        base = families.ring(8)
        dg = PeriodicRelabelDynamicGraph(base, tau=1, seed=7)
        late = dg.graph_at(50)
        early = dg.graph_at(2)
        assert dg.graph_at(50) == late and dg.graph_at(2) == early

    def test_same_seed_same_sequence(self):
        base = families.ring(8)
        a = PeriodicRelabelDynamicGraph(base, tau=1, seed=9)
        b = PeriodicRelabelDynamicGraph(base, tau=1, seed=9)
        for r in (1, 2, 3, 10):
            assert a.graph_at(r) == b.graph_at(r)

    def test_relabel_dynamic_graph_plain_pickle_regenerates(self):
        base = families.random_regular(64, 4, seed=2)
        dyn = PeriodicRelabelDynamicGraph(base, tau=2, seed=7)
        p9 = dyn.permutation_at(9).copy()
        out = pickle.loads(pickle.dumps(dyn))
        assert out._perm_blocks == {}  # dropped; deterministic regeneration
        assert np.array_equal(out.permutation_at(9), p9)


class TestResample:
    def test_vertex_count_fixed(self):
        dg = ResampleDynamicGraph(
            lambda s: families.random_regular(12, 3, seed=s), tau=2, seed=0
        )
        assert dg.n == 12
        for r in (1, 3, 9):
            assert dg.graph_at(r).n == 12

    def test_changes_between_epochs(self):
        dg = ResampleDynamicGraph(
            lambda s: families.random_regular(16, 3, seed=s), tau=1, seed=0
        )
        assert any(dg.graph_at(1 + e) != dg.graph_at(1) for e in range(1, 5))

    def test_rejects_disconnected_sampler(self):
        from repro.graphs.static import Graph

        with pytest.raises(ValueError):
            ResampleDynamicGraph(lambda s: Graph(4, [(0, 1), (2, 3)]), tau=1)

    def test_deterministic(self):
        mk = lambda: ResampleDynamicGraph(
            lambda s: families.random_regular(12, 3, seed=s), tau=1, seed=3
        )
        a, b = mk(), mk()
        for r in (1, 2, 5):
            assert a.graph_at(r) == b.graph_at(r)
