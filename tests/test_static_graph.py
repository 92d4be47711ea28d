"""Tests for repro.graphs.static.Graph."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.static import Graph


@st.composite
def random_graphs(draw, max_n=10):
    n = draw(st.integers(2, max_n))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    return Graph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


class TestConstruction:
    def test_basic_properties(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.n == 4
        assert g.num_edges == 3
        assert g.max_degree == 2
        assert g.degree(0) == 1 and g.degree(1) == 2

    def test_edge_orientation_canonical(self):
        assert Graph(3, [(1, 0)]) == Graph(3, [(0, 1)])

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(ValueError):
            Graph(0, [])

    def test_single_vertex(self):
        g = Graph(1, [])
        assert g.n == 1 and g.is_connected()

    def test_neighbors_sorted(self):
        g = Graph(4, [(2, 0), (2, 3), (2, 1)])
        assert g.neighbors(2).tolist() == [0, 1, 3]

    def test_has_edge(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    def test_arrays_read_only(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.indices[0] = 2
        with pytest.raises(ValueError):
            g.edges[0, 0] = 2


class TestConnectivity:
    def test_connected_path(self):
        assert Graph(4, [(0, 1), (1, 2), (2, 3)]).is_connected()

    def test_disconnected(self):
        assert not Graph(4, [(0, 1), (2, 3)]).is_connected()

    def test_isolated_vertex(self):
        assert not Graph(3, [(0, 1)]).is_connected()

    def test_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        comps = sorted(g.connected_components(), key=lambda c: c[0])
        assert [c.tolist() for c in comps] == [[0, 1], [2, 3], [4]]

    @given(random_graphs())
    @settings(max_examples=50)
    def test_connectivity_matches_networkx(self, g):
        import networkx as nx

        assert g.is_connected() == nx.is_connected(g.to_networkx())

    @given(random_graphs())
    @settings(max_examples=50)
    def test_component_count_matches_networkx(self, g):
        import networkx as nx

        assert len(g.connected_components()) == nx.number_connected_components(
            g.to_networkx()
        )


#: ``(build, connected)``: a fresh graph per call, so no test sees
#: another's cached answer.
CONNECTIVITY_CASES = {
    "path": (lambda: Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), True),
    "two-components": (lambda: Graph(4, [(0, 1), (2, 3)]), False),
    "isolated-vertex": (lambda: Graph(3, [(0, 1)]), False),
    "single-vertex": (lambda: Graph(1, []), True),
}


class TestConnectivityCache:
    """``is_connected`` is computed once per graph; the cached answer must
    equal a fresh BFS wherever the graph came from."""

    @pytest.mark.parametrize("name", sorted(CONNECTIVITY_CASES))
    def test_cached_equals_fresh_bfs(self, name):
        build, connected = CONNECTIVITY_CASES[name]
        g = build()
        assert g._connected is None
        assert g.is_connected() == connected == Graph(g.n, g.edges).is_connected()
        assert g._connected == connected
        assert g.is_connected() == connected

    @pytest.mark.parametrize("name", sorted(CONNECTIVITY_CASES))
    def test_pickle_round_trip_recomputes(self, name):
        import pickle

        build, connected = CONNECTIVITY_CASES[name]
        g = build()
        g.is_connected()
        h = pickle.loads(pickle.dumps(g))
        assert h._connected is None
        assert h.is_connected() == connected

    @pytest.mark.parametrize("name", sorted(CONNECTIVITY_CASES))
    def test_relabel_carries_the_answer(self, name):
        build, connected = CONNECTIVITY_CASES[name]
        g = build()
        perm = np.random.default_rng(3).permutation(g.n)
        assert g.relabel(perm)._connected is None
        g.is_connected()
        h = g.relabel(perm)
        assert h._connected == connected == Graph(h.n, h.edges).is_connected()

    @given(random_graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=30)
    def test_relabeled_answer_matches_networkx(self, g, rnd):
        import networkx as nx

        g.is_connected()
        perm = list(range(g.n))
        rnd.shuffle(perm)
        h = g.relabel(np.asarray(perm))
        assert h.is_connected() == nx.is_connected(h.to_networkx())


class TestRelabel:
    def test_identity(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert g.relabel(np.arange(4)) == g

    def test_swap(self):
        g = Graph(3, [(0, 1)])
        h = g.relabel(np.array([2, 1, 0]))
        assert h.has_edge(2, 1)
        assert not h.has_edge(0, 1)

    def test_rejects_non_permutation(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.relabel(np.array([0, 0, 1]))

    @pytest.mark.parametrize(
        "perm", [[0, 0, 1], [0, 1], [0, 1, 2, 3], [0, 1, 3], [-1, 0, 1], [[0, 1, 2]]]
    )
    def test_rejection_message_for_every_malformed_perm(self, perm):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError, match="perm must be a permutation of 0..n-1"):
            g.relabel(np.array(perm))

    @given(
        st.one_of(
            random_graphs(),
            st.just(Graph(2, [(0, 1)])),
            st.integers(2, 9).map(
                lambda n: Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
            ),
        ),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=120)
    def test_equals_graph_built_from_relabeled_edges(self, g, seed):
        """The permuted CSR is the CSR a rebuild from ``perm[edges]`` makes:
        same arrays, dtypes and shapes, all read-only."""
        perm = np.random.default_rng(seed).permutation(g.n)
        h = g.relabel(perm)
        want = Graph(g.n, perm[g.edges])
        assert h == want
        for got, ref in (
            (h.indptr, want.indptr),
            (h.indices, want.indices),
            (h.edges, want.edges),
        ):
            np.testing.assert_array_equal(got, ref)
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert not got.flags.writeable
        assert h.indptr.dtype == np.int64 and h.indices.dtype == np.int32
        assert h.edges.dtype == np.int64

    @given(random_graphs(), st.integers(0, 2**31 - 1))
    @settings(max_examples=50)
    def test_preserves_degree_multiset(self, g, seed):
        perm = np.random.default_rng(seed).permutation(g.n)
        h = g.relabel(perm)
        assert sorted(h.degrees.tolist()) == sorted(g.degrees.tolist())
        assert h.num_edges == g.num_edges


class TestUnion:
    def test_disjoint_plus_bridge(self):
        a = Graph(2, [(0, 1)])
        b = Graph(2, [(0, 1)])
        u = a.union(b, [(1, 0)])
        assert u.n == 4
        assert u.has_edge(0, 1) and u.has_edge(2, 3) and u.has_edge(1, 2)
        assert u.is_connected()

    def test_no_bridges_keeps_components(self):
        a = Graph(2, [(0, 1)])
        b = Graph(2, [(0, 1)])
        u = a.union(b, [])
        assert not u.is_connected()
        assert len(u.connected_components()) == 2


class TestInterop:
    def test_networkx_roundtrip(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        assert Graph.from_networkx(g.to_networkx()) == g

    def test_from_networkx_requires_contiguous_labels(self):
        import networkx as nx

        h = nx.Graph()
        h.add_edge("a", "b")
        with pytest.raises(ValueError):
            Graph.from_networkx(h)


class TestEquality:
    def test_eq_and_hash(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (0, 1)])
        assert a == b and hash(a) == hash(b)

    def test_neq_different_edges(self):
        assert Graph(3, [(0, 1)]) != Graph(3, [(0, 2)])

    def test_neq_different_n(self):
        assert Graph(3, [(0, 1)]) != Graph(4, [(0, 1)])
