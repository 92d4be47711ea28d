"""Graph construction: int64 arc keys against the lexsort formulation.

``Graph`` and ``build_csr`` build the CSR by sorting the ``2m`` arc keys
(``src·n + dst``), in bands of whole rows once the CSR is large, and
``Graph.edges`` derives the canonical edges from that CSR.  They
replaced a lexsort over the canonical edges plus a second lexsort over
the arcs; that formulation is kept below as a test-only reference, and
the key path must reproduce its arrays byte for byte, with the CSR's
int32 ``indices``.  The pinned ``random_regular`` digests were taken
with the lexsort formulation, so both repair paths keep generating the
same graphs.
"""

from __future__ import annotations

import hashlib
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.graphs import families
from repro.graphs.families import _LARGE_REPAIR_EDGES, _edge_keys, _repeat_followers
from repro.graphs.static import Graph
from repro.harness.experiments import uid_keys_random
from repro.util import csrops
from repro.util.csrops import MAX_CSR_N, MAX_KEY_N, build_csr, stack_csr
from repro.util.rng import make_rng


def lexsort_reference(n, edges):
    """Canonical edges and CSR by the lexsort formulation.

    Orient each edge ``(min, max)`` and lexsort the edges; then
    symmetrize into arcs, lexsort the arcs by ``(src, dst)`` and count
    row lengths with ``np.add.at``.  The neighbor lists come back in
    the CSR's int32.
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
    return edges, indptr, dst.astype(np.int32)


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

    def test_build_csr_rejects_n_past_int32(self):
        build_csr(2, np.array([[0, 1]]))
        with pytest.raises(ValueError, match="overflow int32 indices"):
            build_csr(MAX_CSR_N + 1, np.array([[0, 1]]))

    def test_build_csr_rejects_edge_count_past_int32(self):
        # A broadcast view: 2**31 edges in no memory, refused unread.
        edges = np.broadcast_to(np.array([[0, 1]], dtype=np.int32), (MAX_CSR_N + 1, 2))
        with pytest.raises(ValueError, match="edge ids would overflow int32"):
            build_csr(2, edges)

    def test_stack_csr_rejects_ids_past_int32(self):
        with pytest.raises(ValueError, match="overflow int32 indices"):
            stack_csr([(None, None)] * 2, 2**30)


class TestPickling:
    def test_graph_pickles_plainly_without_store(self):
        g = families.random_regular(128, 4, seed=9)
        out = pickle.loads(pickle.dumps(g))
        assert out == g
        assert np.array_equal(out.indptr, g.indptr)
        assert not out.indptr.flags.writeable
        assert not out.edges.flags.writeable

    def test_from_csr_trusts_arrays(self):
        g = families.ring(16)
        h = Graph._from_csr(g.n, g.indptr, g.indices)
        assert h == g and h.neighbors(0).tolist() == g.neighbors(0).tolist()


class TestLazyEdges:
    """A ``Graph`` holds only its CSR; ``edges`` is derived on demand."""

    @given(shuffled_edge_lists(), st.integers(0, 2**31 - 1))
    @settings(max_examples=100)
    def test_edges_after_relabel_union_and_pickle(self, case, seed):
        n, edges = case
        g = Graph(n, edges)
        perm = np.random.default_rng(seed).permutation(n)
        h = g.relabel(perm)
        _assert_identical(h.edges, lexsort_reference(n, perm[edges])[0])
        joined = g.union(h, [(0, 0)])
        want = np.concatenate([edges, perm[edges] + n, [[0, n]]])
        _assert_identical(joined.edges, lexsort_reference(2 * n, want)[0])
        back = pickle.loads(pickle.dumps(g))
        _assert_identical(back.edges, lexsort_reference(n, edges)[0])

    def test_rehydration_equals_and_hashes_without_edges(self):
        g = families.random_regular(256, 4, seed=3)
        h = Graph._from_csr(g.n, g.indptr.copy(), g.indices.copy())
        assert h == g and hash(h) == hash(g)
        assert g._edges is None and h._edges is None

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Graph(4, [(0, 1), (2, 3)]),
            lambda: families.ring(16),
            lambda: families.random_regular(1024, 8, seed=0),
            lambda: families.ring(16).relabel(np.arange(16)[::-1]),
            lambda: families.ring(4).union(families.ring(4), [(0, 0)]),
            lambda: pickle.loads(pickle.dumps(families.ring(16))),
        ],
        ids=["edge-list", "family", "random-regular", "relabel", "union", "unpickled"],
    )
    def test_construction_leaves_edges_unset(self, build):
        g = build()
        assert g._edges is None
        assert g.edges.shape == (g.num_edges, 2)
        assert g._edges is not None


def _banded_build_csr(n, edges):
    """``build_csr`` sorting in the most bands, each in the most steps,
    even for a handful of arcs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csrops, "_BAND_MIN_ARCS", 1)
        mp.setattr(csrops, "_MIN_STEP", 1)
        return build_csr(n, edges)


class TestBandedBuild:
    """The banded sort: bands of whole rows, each sorted on its own."""

    @given(shuffled_edge_lists(), st.sampled_from([np.int32, np.int64]))
    @settings(max_examples=150)
    def test_matches_lexsort(self, case, dtype):
        n, edges = case
        indptr, indices = _banded_build_csr(n, edges.astype(dtype))
        _, want_indptr, want_indices = lexsort_reference(n, edges)
        _assert_identical(indptr, want_indptr)
        _assert_identical(indices, want_indices)

    @pytest.mark.parametrize("hub", [0, 6, 12])
    def test_hub_row_spans_band_bounds(self, hub):
        """A hub row holding half the arcs covers several band splits; it
        stays whole in one band and the bands it covers stay empty."""
        n = 13
        leaves = [v for v in range(n) if v != hub]
        edges = np.array([(hub, v) for v in leaves] + [(leaves[i], leaves[i + 1]) for i in range(3)])
        indptr, indices = _banded_build_csr(n, edges)
        _, want_indptr, want_indices = lexsort_reference(n, edges)
        _assert_identical(indptr, want_indptr)
        _assert_identical(indices, want_indices)
        bounds = csrops._row_bands(edges[:, 0], edges[:, 1], n, csrops._BANDS)
        assert bounds[0] == 0 and bounds[-1] == n and np.all(np.diff(bounds) >= 0)
        assert np.any(np.diff(bounds) == 0)

    @given(shuffled_edge_lists(max_n=24))
    @settings(max_examples=100)
    def test_partition_fills_each_band_with_its_rows(self, case):
        """Band ``k`` holds exactly the arcs of rows ``bounds[k]:bounds[k+1]``:
        its ``u``-side edge ids, ascending, then its ``v``-side ones."""
        n, edges = case
        assume(edges.size)  # build_csr bands only a CSR with arcs
        u, v = edges[:, 0], edges[:, 1]
        bounds = csrops._row_bands(u, v, n, csrops._BANDS)
        out = np.empty(2 * edges.shape[0], dtype=np.int32)
        starts, mid = csrops._partition_edges(u, v, bounds, out)
        _, want_indptr, _ = lexsort_reference(n, edges)
        _assert_identical(starts, want_indptr[bounds])
        for k in range(csrops._BANDS):
            lo, hi = bounds[k], bounds[k + 1]
            want_u = np.flatnonzero((u >= lo) & (u < hi))
            want_v = np.flatnonzero((v >= lo) & (v < hi))
            assert out[starts[k] : mid[k]].tolist() == want_u.tolist()
            assert out[mid[k] : starts[k + 1]].tolist() == want_v.tolist()

    def test_duplicate_at_every_row_raises(self):
        """A duplicate edge at any row, band bounds included, is caught."""
        n = 16
        edges = [(i, i + 1) for i in range(n - 1)]
        at_bound = 0
        for r in range(1, n):
            for dup in ((r, r - 1), (r - 1, r)):
                with_dup = np.array(edges + [dup])
                bounds = csrops._row_bands(with_dup[:, 0], with_dup[:, 1], n, csrops._BANDS)
                at_bound += r in bounds[1:-1] or r - 1 in bounds[1:-1]
                with pytest.raises(ValueError, match="duplicate"):
                    _banded_build_csr(n, with_dup)
        assert at_bound

    def test_duplicate_in_hub_row_raises(self):
        edges = [(0, v) for v in range(1, 13)] + [(7, 0)]
        with pytest.raises(ValueError, match="duplicate"):
            _banded_build_csr(13, np.array(edges, dtype=np.int32))

    def test_self_loop_at_band_bound_raises(self):
        edges = [(i, i + 1) for i in range(15)] + [(8, 8)]
        with pytest.raises(ValueError, match="self-loop"):
            _banded_build_csr(16, np.array(edges, dtype=np.int32))

    def test_large_build_is_banded(self):
        """Past twice ``_BAND_MIN_ARCS`` arcs the default build bands."""
        g = families.random_regular(2**15, 8, seed=4)
        assert 2 * g.num_edges // csrops._BAND_MIN_ARCS >= 2
        _, want_indptr, want_indices = lexsort_reference(g.n, g.edges)
        _assert_identical(g.indptr, want_indptr)
        _assert_identical(g.indices, want_indices)


class TestDtypeContract:
    """Every way of making a CSR leaves int64 ``indptr`` and int32
    ``indices``; ``edges`` stays int64, and equal graphs made different
    ways compare and hash equal."""

    PATH_EDGES = [(i, i + 1) for i in range(11)]

    @staticmethod
    def _relabel_round_trip():
        perm = np.random.default_rng(5).permutation(12)
        inv = np.argsort(perm)
        return families.path(12).relabel(perm).relabel(inv)

    BUILDS = {
        "edge-list": lambda: Graph(12, TestDtypeContract.PATH_EDGES),
        "int64-array": lambda: Graph(12, np.array(TestDtypeContract.PATH_EDGES, dtype=np.int64)),
        "int32-array": lambda: Graph(12, np.array(TestDtypeContract.PATH_EDGES, dtype=np.int32)),
        "uint16-array": lambda: Graph(12, np.array(TestDtypeContract.PATH_EDGES, dtype=np.uint16)),
        "banded": lambda: Graph._from_csr(
            12, *_banded_build_csr(12, np.array(TestDtypeContract.PATH_EDGES))
        ),
        "family": lambda: families.path(12),
        "relabel": lambda: TestDtypeContract._relabel_round_trip(),
        "union": lambda: families.path(6).union(families.path(6), [(5, 0)]),
        "from-int64-csr": lambda: Graph._from_csr(
            12, families.path(12).indptr.astype(np.int32), families.path(12).indices.astype(np.int64)
        ),
        "unpickled": lambda: pickle.loads(pickle.dumps(families.path(12))),
    }

    @pytest.mark.parametrize("path", sorted(BUILDS))
    def test_path_dtypes_and_equality(self, path):
        g = self.BUILDS[path]()
        want = families.path(12)
        self._assert_contract(g)
        assert g == want and hash(g) == hash(want)
        _assert_identical(g.edges, want.edges)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: families.random_regular(1024, 8, seed=0),
            lambda: families.random_regular(2**17, 4, seed=0),
            lambda: families.line_of_stars(3, 4),
            lambda: families.erdos_renyi(30, 0.2, seed=1),
            lambda: Graph(3, []),
        ],
        ids=["dict-repair", "vectorized-repair", "line-of-stars", "erdos-renyi", "edgeless"],
    )
    def test_families(self, build):
        self._assert_contract(build())

    def test_stack_csr(self):
        g, h = families.path(12), families.ring(12)
        indptr, indices = stack_csr([(g.indptr, g.indices), (h.indptr, h.indices)], 12)
        assert indptr.dtype == np.int64 and indices.dtype == np.int32
        joined = g.union(h, [])
        _assert_identical(indptr, joined.indptr)
        _assert_identical(indices, joined.indices)

    def test_indices_intp_is_a_cached_read_only_copy(self):
        g = families.ring(12)
        ids = g.indices_intp
        assert ids.dtype == np.intp and not ids.flags.writeable
        assert ids is g.indices_intp
        np.testing.assert_array_equal(ids, g.indices)
        assert pickle.loads(pickle.dumps(g))._indices_intp is None

    @staticmethod
    def _assert_contract(g):
        assert g.indptr.dtype == np.int64
        assert g.indices.dtype == np.int32
        assert g.edges.dtype == np.int64
        assert not g.indptr.flags.writeable and not g.indices.flags.writeable


class TestUidKeys:
    """``uid_keys_random`` draws ``choice(10 * n)`` instead of choosing from
    ``np.arange(10 * n)``: the same keys, byte for byte.  NumPy draws by
    Floyd's algorithm up to a population of 10,000 and by a tail shuffle
    above it, so n = 1000 and 1001 sit on either side."""

    @pytest.mark.parametrize("n", [1, 10, 999, 1000, 1001, 4096])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_arange_form(self, n, seed):
        want = make_rng(seed, "uid-keys").choice(
            np.arange(10 * n, dtype=np.int64), size=n, replace=False
        )
        _assert_identical(uid_keys_random(n, seed), want)


class TestBuildMemory:
    #: Allowed tracemalloc peak of ``random_regular(2**16, 8)`` over the
    #: bytes of the CSR it returns: measured 2.2 (7.8 when the build kept
    #: a second copy of every edge), plus 0.3 of margin.
    PEAK_OVER_CSR = 2.5

    def test_random_regular_peak(self):
        tracemalloc.start()
        try:
            g = families.random_regular(2**16, 8, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAK_OVER_CSR * (g.indptr.nbytes + g.indices.nbytes)


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

    #: ``sha256`` of ``indptr`` and of ``indices`` as int64 for
    #: ``random_regular(n, 4, seed=0)`` with ``n > 46,341``, where an int32
    #: ``u·n`` would overflow, taken when ``indices`` were int64: the dict
    #: repair (m = 100,000) and the vectorized repair (m = 262,144).
    PINNED_CSR = {
        50_000: (
            "0594de4a61daf92e19d1a423f45c895b1c5ff061948f16fb04020414da609ae8",
            "4c66ded0752cf3b3863fdde3ea28ad845251c5a6fc0b4b3f406ab1de4da71f58",
        ),
        2**17: (
            "db8b0438091a20d99f81802900becdedaafff83062b22b94978c9f8083c470bd",
            "ca7e55da6e885317d0fe2eeff2dda926dd5344c4b3654515fe5a0bc6b58a0d40",
        ),
    }

    @pytest.mark.parametrize("n", sorted(PINNED))
    def test_edges_digest(self, n):
        g = families.random_regular(n, 8, seed=0)
        assert hashlib.sha256(g.edges.tobytes()).hexdigest() == self.PINNED[n]

    @pytest.mark.parametrize("n", sorted(PINNED_CSR))
    def test_csr_digest_past_int32_products(self, n):
        g = families.random_regular(n, 4, seed=0)
        got = (
            hashlib.sha256(g.indptr.tobytes()).hexdigest(),
            hashlib.sha256(g.indices.astype(np.int64).tobytes()).hexdigest(),
        )
        assert got == self.PINNED_CSR[n]

    def test_edge_keys_past_int32_products(self):
        n = 100_000
        u = np.array([n - 1, 3, 46_342], dtype=np.int32)
        v = np.array([n - 2, n - 1, 99_000], dtype=np.int32)
        want = np.minimum(u, v).astype(np.int64) * n + np.maximum(u, v)
        _assert_identical(_edge_keys(u, v, n), want)

    def test_threshold_case_takes_vectorized_repair(self):
        assert 65536 * 8 // 2 == _LARGE_REPAIR_EDGES

    @given(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=60),
        st.sampled_from([7, 1 << 16]),
    )
    def test_repeat_followers_match_stable_argsort(self, pairs, block):
        edges = np.asarray(pairs, dtype=np.int32).reshape(-1, 2)
        u, v = edges[:, 0], edges[:, 1]
        key = _edge_keys(u, v, 6)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(families, "_KEY_BLOCK", block)
            got = _repeat_followers(u, v, 6, np.sort(key))
        assert np.array_equal(got, _repeat_followers_reference(key))
