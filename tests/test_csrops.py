"""Tests for repro.util.csrops: CSR construction and segmented choices."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.graphs import families
from repro.graphs.dynamic import PeriodicRelabelDynamicGraph, epoch_of_round
from repro.graphs.static import Graph
from repro.util.csrops import (
    PickMemo,
    batched_permuted_pick,
    batched_random_pick,
    build_csr,
    csr_degrees,
    distinct_ids,
    gather_rows,
    segmented_random_pick,
    segmented_uniform_accept_pairs,
    unique_nodes,
)
from tests.csrops_loop_reference import pick_grid


def triangle_csr():
    return build_csr(3, np.array([[0, 1], [1, 2], [0, 2]]))


@st.composite
def edge_lists(draw, max_n=12):
    n = draw(st.integers(2, max_n))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    return n, np.asarray(edges, dtype=np.int64).reshape(-1, 2)


class TestBuildCsr:
    def test_triangle(self):
        indptr, indices = triangle_csr()
        assert indptr.tolist() == [0, 2, 4, 6]
        assert indices[indptr[0] : indptr[1]].tolist() == [1, 2]
        assert indices[indptr[1] : indptr[2]].tolist() == [0, 2]

    def test_empty(self):
        indptr, indices = build_csr(3, np.empty((0, 2), dtype=np.int64))
        assert indptr.tolist() == [0, 0, 0, 0]
        assert indices.size == 0

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            build_csr(3, np.array([[1, 1]]))

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError):
            build_csr(3, np.array([[0, 1], [1, 0]]))

    def test_rejects_same_orientation_duplicate(self):
        with pytest.raises(ValueError):
            build_csr(4, np.array([[0, 1], [2, 3], [0, 1]]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            build_csr(3, np.array([[0, 3]]))

    @given(edge_lists())
    def test_degrees_match_edge_list(self, case):
        n, edges = case
        indptr, indices = build_csr(n, edges)
        deg = np.zeros(n, dtype=int)
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        assert csr_degrees(indptr).tolist() == deg.tolist()

    @given(edge_lists())
    def test_rows_sorted_and_symmetric(self, case):
        n, edges = case
        indptr, indices = build_csr(n, edges)
        edge_set = {(min(u, v), max(u, v)) for u, v in edges}
        for u in range(n):
            row = indices[indptr[u] : indptr[u + 1]]
            assert np.array_equal(row, np.sort(row))
            for v in row:
                assert (min(u, int(v)), max(u, int(v))) in edge_set
        total = sum(indptr[u + 1] - indptr[u] for u in range(n))
        assert total == 2 * len(edge_set)


class TestGatherRows:
    def test_matches_per_row_slices(self):
        indptr, indices = build_csr(
            5, np.array([[0, 1], [0, 2], [1, 2], [3, 4]])
        )
        rows = np.array([2, 0, 2, 4], dtype=np.int64)
        expected = np.concatenate(
            [indices[indptr[u] : indptr[u + 1]] for u in rows]
        )
        assert np.array_equal(gather_rows(indptr, indices, rows), expected)

    def test_empty_rows_and_empty_subset(self):
        indptr, indices = build_csr(4, np.array([[0, 1]]))
        assert gather_rows(indptr, indices, np.array([2, 3])).size == 0
        assert gather_rows(
            indptr, indices, np.empty(0, dtype=np.int64)
        ).size == 0

    @given(edge_lists(), st.integers(0, 2**31 - 1))
    @settings(max_examples=50)
    def test_random_subsets_match_loop(self, case, seed):
        n, edges = case
        indptr, indices = build_csr(n, edges)
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, n, size=rng.integers(0, 2 * n))
        expected = (
            np.concatenate([indices[indptr[u] : indptr[u + 1]] for u in rows])
            if rows.size
            else np.empty(0, dtype=np.int64)
        )
        assert np.array_equal(gather_rows(indptr, indices, rows), expected)


class TestUniqueNodes:
    def test_matches_numpy_unique(self):
        ids = np.array([7, 3, 3, 0, 7, 12, 0])
        assert np.array_equal(unique_nodes(ids), np.unique(ids))

    def test_empty_and_singleton(self):
        assert unique_nodes(np.empty(0, dtype=np.int64)).size == 0
        assert unique_nodes(np.array([4])).tolist() == [4]

    def test_result_is_new_array(self):
        ids = np.array([5])
        out = unique_nodes(ids)
        out[0] = 9
        assert ids[0] == 5

    @given(
        st.lists(st.integers(0, 40), max_size=200),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=80)
    def test_random_arrays_match_numpy_unique(self, values, seed):
        ids = np.asarray(values, dtype=np.int64)
        np.random.default_rng(seed).shuffle(ids)
        assert np.array_equal(unique_nodes(ids), np.unique(ids))


class TestDistinctIds:
    @given(st.lists(st.integers(0, 40), max_size=200), st.integers(0, 60))
    @example(values=[3, 1, 3], limit=60)
    @example(values=list(range(40)) * 3, limit=60)
    @example(values=list(range(40)) * 3, limit=10)
    @settings(max_examples=120)
    def test_matches_numpy_unique_or_rejects(self, values, limit):
        """Both paths, sort (up to 10 ids here) and mark (11 or more): the
        sorted distinct ids, or None past the limit, and the mark left
        all-False."""
        ids = np.asarray(values, dtype=np.int64)
        mark = np.zeros(41, dtype=bool)
        out = distinct_ids(ids, mark, limit)
        want = np.unique(ids)
        if want.size <= limit:
            assert out is not None and out.tolist() == want.tolist()
        else:
            assert out is None
        assert not mark.any()


def one_grid(indptr, pairs):
    """A one-replica pick's pairs as an ``(n,)`` grid, ``-1`` where a row
    did not pick."""
    return pick_grid(pairs, 1, indptr.size - 1)[0]


class TestSegmentedRandomPick:
    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_pairs_are_compact_and_ascending(self, masked):
        # Vertex 5 is isolated and vertex 2 inactive: neither appears.
        indptr, indices = build_csr(6, np.array([[0, 1], [1, 2], [2, 3], [3, 4]]))
        active = np.array([True, True, False, True, True, True])
        mask = np.ones(6, dtype=bool) if masked else None
        senders, targets = segmented_random_pick(
            indptr, indices, np.random.default_rng(0), active=active, neighbor_mask=mask
        )
        assert senders.tolist() == [0, 1, 3, 4]
        assert targets.shape == senders.shape
        for u, v in zip(senders.tolist(), targets.tolist()):
            assert v in indices[indptr[u] : indptr[u + 1]]

    def test_unmasked_picks_are_neighbors(self):
        indptr, indices = triangle_csr()
        rng = np.random.default_rng(0)
        for _ in range(20):
            pick = one_grid(indptr, segmented_random_pick(indptr, indices, rng))
            for u in range(3):
                assert pick[u] in indices[indptr[u] : indptr[u + 1]]

    def test_inactive_rows_get_minus_one(self):
        indptr, indices = triangle_csr()
        rng = np.random.default_rng(0)
        active = np.array([True, False, True])
        pick = one_grid(
            indptr, segmented_random_pick(indptr, indices, rng, active=active)
        )
        assert pick[1] == -1
        assert pick[0] != -1 and pick[2] != -1

    def test_isolated_row_gets_minus_one(self):
        indptr, indices = build_csr(3, np.array([[0, 1]]))
        rng = np.random.default_rng(0)
        pick = one_grid(indptr, segmented_random_pick(indptr, indices, rng))
        assert pick[2] == -1

    def test_neighbor_mask_respected(self):
        indptr, indices = triangle_csr()
        rng = np.random.default_rng(0)
        mask = np.array([False, True, False])  # only vertex 1 eligible
        for _ in range(10):
            pick = one_grid(
                indptr, segmented_random_pick(indptr, indices, rng, neighbor_mask=mask)
            )
            assert pick[0] == 1
            assert pick[2] == 1
            assert pick[1] == -1  # vertex 1 has no eligible neighbor

    def test_flat_mask_respected(self):
        indptr, indices = triangle_csr()
        rng = np.random.default_rng(0)
        # Allow only the entry 0->2 (row 0 = [1, 2]).
        flat = np.zeros(indices.size, dtype=bool)
        flat[1] = True
        pick = one_grid(
            indptr, segmented_random_pick(indptr, indices, rng, flat_mask=flat)
        )
        assert pick[0] == 2
        assert pick[1] == -1 and pick[2] == -1

    def test_flat_mask_shape_checked(self):
        indptr, indices = triangle_csr()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            segmented_random_pick(
                indptr, indices, rng, flat_mask=np.ones(2, dtype=bool)
            )

    def test_flat_mask_shape_checked_with_neighbor_mask(self):
        # A one-element flat mask used to broadcast silently over indices.
        indptr, indices = triangle_csr()
        with pytest.raises(ValueError, match="flat_mask"):
            segmented_random_pick(
                indptr, indices, np.random.default_rng(0),
                neighbor_mask=np.ones(3, dtype=bool),
                flat_mask=np.array([True]),
            )

    def test_neighbor_mask_shape_checked(self):
        indptr, indices = triangle_csr()
        with pytest.raises(ValueError, match="neighbor_mask"):
            segmented_random_pick(
                indptr, indices, np.random.default_rng(0),
                neighbor_mask=np.ones(4, dtype=bool),
            )

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_active_shape_checked(self, masked):
        # Vertex 4 is isolated; a 9-row sender mask once passed the masked
        # branch silently and broke the unmasked one on a broadcast.
        indptr, indices = build_csr(5, np.array([[0, 1], [1, 2], [2, 3]]))
        with pytest.raises(ValueError, match="active must have shape"):
            segmented_random_pick(
                indptr, indices, np.random.default_rng(0),
                active=np.ones(9, dtype=bool),
                neighbor_mask=np.ones(5, dtype=bool) if masked else None,
            )

    def test_masked_pick_roughly_uniform(self):
        # Star center 0 with leaves 1..4, only 1..3 eligible.
        indptr, indices = build_csr(5, np.array([[0, i] for i in range(1, 5)]))
        rng = np.random.default_rng(1)
        mask = np.array([False, True, True, True, False])
        counts = np.zeros(5, dtype=int)
        trials = 3000
        for _ in range(trials):
            pick = one_grid(
                indptr, segmented_random_pick(indptr, indices, rng, neighbor_mask=mask)
            )
            counts[pick[0]] += 1
        assert counts[4] == 0 and counts[0] == 0
        for leaf in (1, 2, 3):
            assert abs(counts[leaf] / trials - 1 / 3) < 0.05

    @given(edge_lists(), st.integers(0, 2**31 - 1))
    @settings(max_examples=50)
    def test_mask_and_flat_agree(self, case, seed):
        """neighbor_mask and the equivalent flat_mask give identical support."""
        n, edges = case
        indptr, indices = build_csr(n, edges)
        rng1 = np.random.default_rng(seed)
        rng2 = np.random.default_rng(seed)
        mask = np.random.default_rng(seed + 1).random(n) < 0.5
        flat = mask[indices]
        a = segmented_random_pick(indptr, indices, rng1, neighbor_mask=mask)
        b = segmented_random_pick(indptr, indices, rng2, flat_mask=flat)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestSegmentedUniformAccept:
    def test_single_proposal_accepted(self):
        receivers, winners = segmented_uniform_accept_pairs(
            np.array([3]), np.array([1]), np.random.default_rng(0)
        )
        assert receivers.tolist() == [1]
        assert winners.tolist() == [3]

    def test_empty(self):
        receivers, winners = segmented_uniform_accept_pairs(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64),
            np.random.default_rng(0),
        )
        assert receivers.size == winners.size == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            segmented_uniform_accept_pairs(
                np.array([1]), np.array([1, 2]), np.random.default_rng(0)
            )

    def test_each_target_accepts_one_of_its_proposers(self):
        senders = np.array([0, 1, 2, 3, 4])
        targets = np.array([6, 5, 6, 5, 6])
        rng = np.random.default_rng(0)
        for _ in range(50):
            receivers, winners = segmented_uniform_accept_pairs(senders, targets, rng)
            assert receivers.tolist() == [5, 6]  # each target once, ascending
            assert winners[0] in (1, 3)
            assert winners[1] in (0, 2, 4)

    def test_acceptance_roughly_uniform(self):
        senders = np.array([0, 1, 2])
        targets = np.array([3, 3, 3])
        rng = np.random.default_rng(7)
        counts = np.zeros(3, dtype=int)
        trials = 3000
        for _ in range(trials):
            counts[segmented_uniform_accept_pairs(senders, targets, rng)[1][0]] += 1
        for s in range(3):
            assert abs(counts[s] / trials - 1 / 3) < 0.05


class TestMaskShapesChecked:
    """Every masked kernel rejects a mis-shaped flat_mask, whether or not
    neighbor_mask is also given."""

    @pytest.mark.parametrize("with_neighbor_mask", [False, True])
    def test_batched_pick_rejects_unbatched_flat_mask(self, with_neighbor_mask):
        indptr, indices = triangle_csr()
        active = np.ones((2, 3), dtype=bool)
        nmask = np.ones((2, 3), dtype=bool) if with_neighbor_mask else None
        with pytest.raises(ValueError, match="flat_mask"):
            batched_random_pick(
                indptr, indices, np.random.default_rng(0), active,
                neighbor_mask=nmask, flat_mask=np.ones(indices.size, dtype=bool),
            )

    def test_batched_pick_checks_flat_mask_of_dead_replicas(self):
        indptr, indices = triangle_csr()
        with pytest.raises(ValueError, match="flat_mask"):
            batched_random_pick(
                indptr, indices, np.random.default_rng(0),
                np.zeros((2, 3), dtype=bool),
                neighbor_mask=np.ones((2, 3), dtype=bool),
                flat_mask=np.ones((2, 1), dtype=bool),
            )


class TestPickMemo:
    """A reused masked build draws exactly as a fresh build does.

    Each case makes the same sequence of calls twice from equal Generator
    states, once through one :class:`PickMemo` and once building afresh
    every call, and compares the pairs and the Generator state after
    every call.  :meth:`replay` returns how many distinct builds the memo
    held, so each case also shows when it rebuilt.
    """

    T, n = 4, 48

    @staticmethod
    def graph(seed=0):
        return families.random_regular(48, 4, seed=seed)

    def masks(self, seed):
        """Random ``(T, n)`` sender and neighbour masks."""
        rng = np.random.default_rng(seed)
        return rng.random((2, self.T, self.n)) < 0.5

    @staticmethod
    def replay(calls, pick=batched_random_pick):
        """Run ``calls`` (argument tuples and keyword dicts, or callables
        returning them) with and without a memo; return the builds held."""
        memo = PickMemo()
        ra, rb = np.random.default_rng(3), np.random.default_rng(3)
        held = []
        for call in calls:
            args, kwargs = call() if callable(call) else call
            got = pick(*args[:2], ra, *args[2:], reuse=memo, **kwargs)
            want = pick(*args[:2], rb, *args[2:], **kwargs)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert ra.bit_generator.state == rb.bit_generator.state
            if not any(memo.index is h for h in held):
                held.append(memo.index)
        return len(held)

    def test_unchanged_masks_build_once(self):
        g = self.graph()
        _, nb = self.masks(1)
        calls = [
            ((g.indptr, g.indices, self.masks(10 + i)[0]), dict(neighbor_mask=nb.copy()))
            for i in range(5)
        ]
        assert self.replay(calls) == 1

    def test_mask_changed_in_place_rebuilds(self):
        g = self.graph()
        active, nb = self.masks(2)

        def flip(u):
            def call():
                nb[1, u] = not nb[1, u]
                return (g.indptr, g.indices, active), dict(neighbor_mask=nb)
            return call

        calls = [((g.indptr, g.indices, active), dict(neighbor_mask=nb))]
        calls += [flip(u) for u in (0, 7, 7)]
        assert self.replay(calls) == 4

    def test_replica_dropping_out_rebuilds(self):
        g = self.graph()
        active, nb = self.masks(3)
        quiet = active.copy()
        quiet[2] = False  # replica 2 has no sender: it leaves the build
        calls = [
            ((g.indptr, g.indices, active), dict(neighbor_mask=nb)),
            ((g.indptr, g.indices, quiet), dict(neighbor_mask=nb)),
            ((g.indptr, g.indices, quiet), dict(neighbor_mask=nb)),
        ]
        assert self.replay(calls) == 2

    def test_new_graph_of_the_same_shape_rebuilds(self):
        g = self.graph(0)
        other = Graph(g.n, self.graph(1).edges)
        assert other.indptr.shape == g.indptr.shape
        assert other.indices.shape == g.indices.shape
        active, nb = self.masks(4)
        calls = [
            ((g.indptr, g.indices, active), dict(neighbor_mask=nb)),
            ((other.indptr, other.indices, active), dict(neighbor_mask=nb)),
            ((other.indptr, other.indices, active), dict(neighbor_mask=nb)),
        ]
        assert self.replay(calls) == 2

    def test_flat_mask_runs(self):
        g = self.graph()
        rng = np.random.default_rng(5)
        entry = rng.random((self.T, g.indices.size)) < 0.4
        _, nb = self.masks(6)
        calls = [
            ((g.indptr, g.indices, self.masks(20 + i)[0]), dict(flat_mask=entry))
            for i in range(3)
        ]
        calls += [
            ((g.indptr, g.indices, self.masks(30 + i)[0]),
             dict(neighbor_mask=nb, flat_mask=entry))
            for i in range(3)
        ]
        moved = entry.copy()
        moved[1, :9] = ~moved[1, :9]
        calls += [
            ((g.indptr, g.indices, self.masks(40 + i)[0]),
             dict(neighbor_mask=nb, flat_mask=moved))
            for i in range(2)
        ]
        assert self.replay(calls) == 3

    def test_permuted_path_at_tau_4(self):
        g = self.graph()
        dgs = [PeriodicRelabelDynamicGraph(g, 4, seed=40 + t) for t in range(self.T)]
        _, nb = self.masks(7)
        calls = []
        for r in range(1, 13):
            e = epoch_of_round(r, 4)
            perm = np.stack([dg.permutations_from_epoch(e, 1)[0] for dg in dgs])
            calls.append(((g.indptr, g.indices, perm, self.masks(50 + r)[0]),
                          dict(neighbor_mask=nb)))
        # The base-coordinate masks move with each epoch's permutations.
        assert self.replay(calls, pick=batched_permuted_pick) == 3
