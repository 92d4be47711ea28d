"""Tests for repro.analysis.expansion."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.expansion import (
    alpha_of_set,
    boundary,
    dynamic_vertex_expansion,
    vertex_expansion,
    vertex_expansion_exact,
    vertex_expansion_spectral_lower,
    vertex_expansion_upper,
)
from repro.graphs import families
from repro.graphs.dynamic import ScheduleDynamicGraph, StaticDynamicGraph
from repro.graphs.static import Graph


@st.composite
def small_graphs_any(draw):
    """Graphs with 2 ≤ n ≤ 11, odd or even, connected or not."""
    n = draw(st.integers(2, 11))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


def _alpha_by_enumeration(g):
    return min(
        alpha_of_set(g, s)
        for size in range(1, g.n // 2 + 1)
        for s in combinations(range(g.n), size)
    )


class TestBoundary:
    def test_path_prefix(self):
        g = families.path(6)
        assert boundary(g, [0, 1, 2]).tolist() == [3]

    def test_star_leaves(self):
        g = families.star(6)
        assert boundary(g, [1, 2]).tolist() == [0]

    def test_full_set_empty_boundary(self):
        g = families.ring(5)
        assert boundary(g, range(5)).size == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            boundary(families.ring(5), [9])


class TestAlphaOfSet:
    def test_single_vertex_in_clique(self):
        g = families.clique(6)
        assert alpha_of_set(g, [0]) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            alpha_of_set(families.ring(5), [])


class TestExact:
    def test_known_families(self):
        assert vertex_expansion_exact(families.clique(8)) == pytest.approx(1.0)
        assert vertex_expansion_exact(families.path(8)) == pytest.approx(1 / 4)
        assert vertex_expansion_exact(families.star(9)) == pytest.approx(1 / 4)
        assert vertex_expansion_exact(families.ring(8)) == pytest.approx(2 / 4)

    def test_alpha_at_most_one_definitionally_reachable(self):
        # alpha <= 1 always (the paper notes this despite alpha(S) > 1
        # being possible for some S).
        for g in (families.clique(6), families.hypercube(3), families.ring(6)):
            assert vertex_expansion_exact(g) <= 1.0 + 1e-12

    def test_size_guard(self):
        with pytest.raises(ValueError):
            vertex_expansion_exact(families.clique(30))
        with pytest.raises(ValueError, match="n <= 18"):
            vertex_expansion_exact(families.ring(19))

    @given(small_graphs_any())
    @settings(max_examples=60, deadline=None)
    def test_equals_subset_enumeration_exactly(self, g):
        assert vertex_expansion_exact(g) == _alpha_by_enumeration(g)

    def test_disconnected_is_zero(self):
        g = Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)])
        assert vertex_expansion_exact(g) == 0.0 == _alpha_by_enumeration(g)

    def test_known_families_at_the_limit(self):
        assert vertex_expansion_exact(families.ring(18)) == 2 / 9
        assert vertex_expansion_exact(families.path(18)) == 1 / 9
        assert vertex_expansion_exact(families.clique(18)) == 1.0


class TestUpperBound:
    def test_never_below_exact(self, small_graphs):
        for name, g in small_graphs:
            if g.n > 16:
                continue
            exact = vertex_expansion_exact(g)
            upper = vertex_expansion_upper(g, seed=0)
            assert upper >= exact - 1e-12, name

    def test_exact_on_structured_families(self):
        # Prefix cuts are the true minimizers here; the sweep finds them.
        for g, expected in [
            (families.path(40), 1 / 20),
            (families.star(41), 1 / 20),
            (families.ring(30), 2 / 15),
        ]:
            assert vertex_expansion_upper(g, seed=0) == pytest.approx(expected)

    def test_line_of_stars_matches_formula(self):
        s, p = 5, 5
        g = families.line_of_stars(s, p)
        assert vertex_expansion_upper(g, seed=0) == pytest.approx(
            families.line_of_stars_expansion(s, p)
        )


class TestSpectralLower:
    def test_below_exact(self, small_graphs):
        for name, g in small_graphs:
            if g.n > 16:
                continue
            lower = vertex_expansion_spectral_lower(g)
            exact = vertex_expansion_exact(g)
            assert lower <= exact + 1e-9, name

    def test_positive_on_connected(self):
        assert vertex_expansion_spectral_lower(families.clique(8)) > 0

    def test_ordering_chain(self):
        for seed in range(5):
            g = families.connected_erdos_renyi(12, 0.4, seed=seed)
            lo = vertex_expansion_spectral_lower(g)
            exact = vertex_expansion_exact(g)
            hi = vertex_expansion_upper(g, seed=0)
            assert lo <= exact + 1e-9 <= hi + 2e-9


class TestSpectralGap:
    def test_known_values(self):
        from repro.analysis.expansion import spectral_gap

        # Complete graph K_n: normalized Laplacian eigenvalues are
        # 0 and n/(n-1) (multiplicity n-1).
        n = 8
        assert spectral_gap(families.clique(n)) == pytest.approx(n / (n - 1))

    def test_ring_gap_shrinks_with_n(self):
        from repro.analysis.expansion import spectral_gap

        assert spectral_gap(families.ring(32)) < spectral_gap(families.ring(8))

    def test_positive_iff_connected(self):
        from repro.analysis.expansion import spectral_gap
        from repro.graphs.static import Graph

        assert spectral_gap(families.path(6)) > 1e-9
        disconnected = Graph(4, [(0, 1), (2, 3)])
        assert spectral_gap(disconnected) == pytest.approx(0.0, abs=1e-9)

    def test_predicts_averaging_speed(self):
        """Larger spectral gap → faster averaging gossip (E17's mechanism)."""
        from repro.algorithms.averaging import AveragingBatched
        from repro.analysis.expansion import spectral_gap
        from repro.core.vectorized import VectorizedEngine
        from repro.graphs.dynamic import StaticDynamicGraph

        n = 16
        values = np.random.default_rng(0).random(n)
        results = []
        for g in (families.clique(n), families.ring(n)):
            rounds = []
            for t in range(5):
                algo = AveragingBatched(values, eps=1e-3)
                eng = VectorizedEngine(StaticDynamicGraph(g), algo, seed=t)
                res = eng.run(500_000)
                assert res.stabilized
                rounds.append(res.rounds)
            results.append((spectral_gap(g), float(np.median(rounds))))
        (gap_hi, rounds_hi), (gap_lo, rounds_lo) = results
        assert gap_hi > gap_lo
        assert rounds_hi < rounds_lo


class TestDispatcher:
    def test_small_uses_exact(self):
        g = families.path(10)
        assert vertex_expansion(g) == vertex_expansion_exact(g)

    def test_large_uses_upper(self):
        g = families.path(50)
        assert vertex_expansion(g) == pytest.approx(1 / 25)


class TestDynamicExpansion:
    def test_min_over_epochs(self):
        ring, star = families.ring(10), families.star(10)
        dg = ScheduleDynamicGraph([ring, star], tau=2)
        a = dynamic_vertex_expansion(dg, horizon=4)
        assert a == pytest.approx(
            min(vertex_expansion_exact(ring), vertex_expansion_exact(star))
        )

    def test_static(self):
        dg = StaticDynamicGraph(families.clique(8))
        assert dynamic_vertex_expansion(dg, horizon=100) == pytest.approx(1.0)
