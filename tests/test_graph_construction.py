"""Graph construction: int64 edge keys against the lexsort formulation.

``Graph`` and ``build_csr`` canonicalize an edge list by sorting one
int64 key per edge (``min·n + max``) and build the CSR from one sort of
the ``2m`` arc keys (``src·n + dst``).  They replaced a lexsort over the
canonical edges plus a second lexsort over the arcs; that formulation is
kept below as a test-only reference, and the key path must reproduce its
arrays byte for byte.  The pinned ``random_regular`` digests were taken
with the lexsort formulation, so both repair paths keep generating the
same graphs.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import families
from repro.graphs.families import _LARGE_REPAIR_EDGES, _repeat_followers
from repro.graphs.static import Graph
from repro.util.csrops import MAX_KEY_N, build_csr


def lexsort_reference(n, edges):
    """Canonical edges and CSR by the lexsort formulation.

    Orient each edge ``(min, max)`` and lexsort the edges; then
    symmetrize into arcs, lexsort the arcs by ``(src, dst)`` and count
    row lengths with ``np.add.at``.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size:
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        edges = np.stack([lo, hi], axis=1)
        edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return edges, indptr, dst


@st.composite
def shuffled_edge_lists(draw, max_n=14):
    """A simple graph's edges in random order and random orientation.

    Covers ``n = 1``, ``m = 0`` and isolated vertices.
    """
    n = draw(st.integers(1, max_n))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))) if pool else []
    edges = draw(st.permutations(edges))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [(v, u) if f else (u, v) for (u, v), f in zip(edges, flips)]
    return n, np.asarray(edges, dtype=np.int64).reshape(-1, 2)


def _assert_identical(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestKeySortMatchesLexsort:
    @given(shuffled_edge_lists())
    @settings(max_examples=200)
    def test_graph_arrays(self, case):
        n, edges = case
        g = Graph(n, edges)
        want_edges, want_indptr, want_indices = lexsort_reference(n, edges)
        _assert_identical(g.edges, want_edges)
        _assert_identical(g.indptr, want_indptr)
        _assert_identical(g.indices, want_indices)

    @given(shuffled_edge_lists())
    @settings(max_examples=100)
    def test_build_csr(self, case):
        n, edges = case
        indptr, indices = build_csr(n, edges)
        _, want_indptr, want_indices = lexsort_reference(n, edges)
        _assert_identical(indptr, want_indptr)
        _assert_identical(indices, want_indices)

    def test_list_input_matches_array_input(self):
        edges = [(3, 1), (0, 2), (2, 1)]
        assert Graph(4, edges) == Graph(4, np.array(edges))

    def test_no_edges(self):
        g = Graph(5, [])
        assert g.edges.shape == (0, 2) and g.edges.dtype == np.int64
        assert g.indptr.tolist() == [0] * 6 and g.indices.size == 0


class TestGraphRejects:
    def test_reversed_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(0, 1), (2, 2)])

    def test_negative_endpoint(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 1), (-1, 2)])

    def test_endpoint_equal_to_n(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 3)])


class TestKeyRange:
    def test_bound_is_the_largest_n_whose_keys_fit(self):
        top = 2**63 - 1
        assert MAX_KEY_N * MAX_KEY_N - 1 <= top
        assert (MAX_KEY_N + 1) * (MAX_KEY_N + 1) - 1 > top

    def test_build_csr_rejects_huge_n(self):
        # Raised before indptr (n + 1 int64 words, ~24 GB here) exists.
        with pytest.raises(ValueError, match="overflow"):
            build_csr(MAX_KEY_N + 1, np.array([[0, 1]]))

    def test_graph_rejects_huge_n(self):
        with pytest.raises(ValueError, match="overflow"):
            Graph(MAX_KEY_N + 1, [(0, 1)])


def _repeat_followers_reference(key):
    """Every repeated key's later occurrences, via one stable argsort."""
    order = np.argsort(key, kind="stable")
    sorted_keys = key[order]
    follow = np.zeros(key.size, dtype=bool)
    follow[order[1:]] = sorted_keys[1:] == sorted_keys[:-1]
    return follow


class TestRandomRegularPinned:
    """``sha256(random_regular(n, 8, seed=0).edges)`` from the lexsort
    formulation: the small dict-repair path and the vectorized repair at
    its edge-count threshold."""

    PINNED = {
        1024: "7e656e4d72783a329a27c3ec8a562120b1ca2e30a351d8fd87396e14940136cf",
        65536: "278934bea1269391ca12d6b2f73708a4092f8cd78cfd6ca0d513a6871fe1e749",
    }

    @pytest.mark.parametrize("n", sorted(PINNED))
    def test_edges_digest(self, n):
        g = families.random_regular(n, 8, seed=0)
        assert hashlib.sha256(g.edges.tobytes()).hexdigest() == self.PINNED[n]

    def test_threshold_case_takes_vectorized_repair(self):
        assert 65536 * 8 // 2 == _LARGE_REPAIR_EDGES

    @given(st.lists(st.integers(0, 12), max_size=60))
    def test_repeat_followers_match_stable_argsort(self, values):
        key = np.asarray(values, dtype=np.int64)
        got = _repeat_followers(key, np.sort(key))
        assert np.array_equal(got, _repeat_followers_reference(key))
