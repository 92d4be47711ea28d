"""Oracle tests: batched CSR kernels against the unbatched kernels.

The batched kernels must have, in every replica, exactly the semantics of
the corresponding unbatched kernel applied to that replica's slice.
Hypothesis drives both over random CSR structures with per-replica masks,
comparing supports exactly (which outcomes are possible per row per
replica); ``stack_csr`` is checked structurally against its definition.

The masked picks are also held to draw-for-draw identity with the
running-sum formulation they replaced (a ``(T, nnz)`` cumulative sum and
a binary search per pick), kept below as a test-only reference: equal
picks, and the Generator left in the same state.  The accept kernel is
held the same way to a grouping by a stable argsort of the raw targets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.util import csrops
from repro.util.csrops import build_csr, stack_csr
from tests.csrops_loop_reference import pick_grid, subset_grid

# The autouse fixture runs this suite on both kernel formulations too.
from tests.test_csrops_oracle import csrops_kernels, reference_pick_support  # noqa: F401


@st.composite
def batched_csr_cases(draw):
    n = draw(st.integers(2, 8))
    T = draw(st.integers(1, 4))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    indptr, indices = build_csr(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    rows = st.lists(st.booleans(), min_size=n, max_size=n)
    active = np.asarray(
        draw(st.lists(rows, min_size=T, max_size=T)), dtype=bool
    )
    nmask = draw(
        st.one_of(
            st.none(),
            st.lists(rows, min_size=T, max_size=T).map(
                lambda m: np.asarray(m, dtype=bool)
            ),
        )
    )
    use_flat = draw(st.booleans())
    fmask = None
    if use_flat and indices.size:
        ent = st.lists(
            st.booleans(), min_size=indices.size, max_size=indices.size
        )
        fmask = np.asarray(
            draw(st.lists(ent, min_size=T, max_size=T)), dtype=bool
        )
    return indptr, indices, active, nmask, fmask


class TestBatchedPickAgainstUnbatched:
    @given(batched_csr_cases(), st.integers(0, 2**31 - 1))
    @settings(max_examples=120, deadline=None)
    def test_per_replica_support_matches_unbatched(self, case, seed):
        indptr, indices, active, nmask, fmask = case
        rng = np.random.default_rng(seed)
        T = active.shape[0]
        supports = [
            reference_pick_support(
                indptr,
                indices,
                active[t],
                None if nmask is None else nmask[t],
                None if fmask is None else fmask[t],
            )
            for t in range(T)
        ]
        for _ in range(3):
            pick = pick_grid(
                csrops.batched_random_pick(
                    indptr, indices, rng, active, neighbor_mask=nmask, flat_mask=fmask
                ),
                *active.shape,
            )
            assert pick.shape == active.shape
            for t in range(T):
                for u, p in enumerate(pick[t]):
                    assert int(p) in supports[t][u], (t, u, int(p), supports[t][u])

    @given(batched_csr_cases(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_every_support_element_reachable(self, case, seed):
        indptr, indices, active, nmask, fmask = case
        rng = np.random.default_rng(seed)
        T, n = active.shape
        supports = [
            reference_pick_support(
                indptr,
                indices,
                active[t],
                None if nmask is None else nmask[t],
                None if fmask is None else fmask[t],
            )
            for t in range(T)
        ]
        seen = [[set() for _ in range(n)] for _ in range(T)]
        # Max degree 7; 200 draws make a missed option vanishingly unlikely.
        for _ in range(200):
            pick = pick_grid(
                csrops.batched_random_pick(
                    indptr, indices, rng, active, neighbor_mask=nmask, flat_mask=fmask
                ),
                T,
                n,
            )
            for t in range(T):
                for u, p in enumerate(pick[t]):
                    seen[t][u].add(int(p))
        for t in range(T):
            for u in range(n):
                assert seen[t][u] == supports[t][u]

    def test_rejects_non_boolean_masks(self):
        indptr, indices = build_csr(3, np.array([[0, 1], [1, 2]]))
        rng = np.random.default_rng(0)
        active = np.ones((2, 3), dtype=bool)
        with pytest.raises(TypeError):
            csrops.batched_random_pick(
                indptr, indices, rng, active.astype(np.int64)
            )
        with pytest.raises(TypeError):
            csrops.batched_random_pick(
                indptr,
                indices,
                rng,
                active,
                neighbor_mask=np.ones((2, 3), dtype=np.int64),
            )


def running_sum_pick(indptr, indices, rng, active, eligible):
    """Masked pick by the running-sum formulation.

    ``active`` is ``(T, n)``, ``eligible`` the ``(T, nnz)`` entry
    eligibility.  One cumulative sum over the row-major eligibility gives
    every row's count; the ``j``-th eligible entry of a row is found by
    binary search on that sum.
    """
    T, n = active.shape
    nnz = indices.size
    pick = np.full((T, n), -1, dtype=np.int64)
    if eligible.size == 0:
        return pick
    csum = np.cumsum(eligible.reshape(T * nnz), dtype=np.int64)
    rep_off = (np.arange(T, dtype=np.int64) * nnz)[:, None]
    starts = (indptr[:-1][None, :] + rep_off).reshape(T * n)
    ends = (indptr[1:][None, :] + rep_off).reshape(T * n)
    cnt_start = np.where(starts > 0, csum[starts - 1], 0)
    cnt_end = np.where(ends > 0, csum[ends - 1], 0)
    rows = np.flatnonzero(active.reshape(T * n) & (cnt_end > cnt_start))
    if rows.size == 0:
        return pick
    j = rng.integers(0, (cnt_end - cnt_start)[rows])
    flat_pos = np.searchsorted(csum, cnt_start[rows] + j + 1, side="left")
    pick.reshape(T * n)[rows] = indices[flat_pos % nnz]
    return pick


def eligibility(indices, T, nmask, fmask):
    eligible = np.ones((T, indices.size), dtype=bool)
    if nmask is not None:
        eligible &= nmask[:, indices]
    if fmask is not None:
        eligible &= fmask
    return eligible


def isolated_csr():
    """Isolated vertices at the start (0), middle (4) and end (8)."""
    edges = [(1, 2), (1, 3), (2, 3), (3, 5), (5, 6), (6, 7), (5, 7), (2, 7)]
    return build_csr(9, np.array(edges))


def regular_csr():
    from repro.graphs import families

    g = families.random_regular(32, 4, seed=3)
    return g.indptr, g.indices


def empty_csr():
    return build_csr(6, np.empty((0, 2), dtype=np.int64))


GRAPHS = {"isolated": isolated_csr, "regular": regular_csr, "nnz0": empty_csr}


def replica_masks(n, nnz, mode, seed):
    """Four replicas: no sender, no eligible vertex or entry, every row
    eligible, and random masks — under ``mode`` (which masks are given)."""
    rng = np.random.default_rng(seed)
    active = rng.random((4, n)) < 0.6
    nmask = rng.random((4, n)) < 0.5
    fmask = rng.random((4, nnz)) < 0.6
    active[0] = False
    nmask[1] = False
    fmask[1] = False
    active[2] = nmask[2] = fmask[2] = True
    return (
        active,
        nmask if mode in ("neighbor", "both") else None,
        fmask if mode in ("flat", "both") else None,
    )


MODES = ["neighbor", "flat", "both"]


class TestMaskedPickBitIdentity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    @pytest.mark.parametrize("seed", range(3))
    def test_batched(self, graph, mode, seed):
        indptr, indices = GRAPHS[graph]()
        n = indptr.size - 1
        active, nmask, fmask = replica_masks(n, indices.size, mode, seed)
        ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
        got = pick_grid(
            csrops.batched_random_pick(
                indptr, indices, ra, active, neighbor_mask=nmask, flat_mask=fmask
            ),
            4,
            n,
        )
        want = running_sum_pick(
            indptr, indices, rb, active, eligibility(indices, 4, nmask, fmask)
        )
        assert np.array_equal(got, want)
        assert ra.random() == rb.random()

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    @pytest.mark.parametrize("replica", range(4))
    def test_single_replica(self, graph, mode, replica):
        """T = 1: the unbatched kernel, and the batched one on one row."""
        indptr, indices = GRAPHS[graph]()
        n = indptr.size - 1
        active, nmask, fmask = replica_masks(n, indices.size, mode, 7)
        sl = slice(replica, replica + 1)
        nm = None if nmask is None else nmask[sl]
        fm = None if fmask is None else fmask[sl]
        rr = np.random.default_rng(11)
        want = running_sum_pick(
            indptr, indices, rr, active[sl], eligibility(indices, 1, nm, fm)
        )
        ra, rb = np.random.default_rng(11), np.random.default_rng(11)
        single = pick_grid(
            csrops.segmented_random_pick(
                indptr, indices, ra, active=active[replica],
                neighbor_mask=None if nm is None else nm[0],
                flat_mask=None if fm is None else fm[0],
            ),
            1,
            n,
        )[0]
        batched = pick_grid(
            csrops.batched_random_pick(
                indptr, indices, rb, active[sl], neighbor_mask=nm, flat_mask=fm
            ),
            1,
            n,
        )
        assert np.array_equal(single, want[0])
        assert np.array_equal(batched, want)
        assert ra.random() == rb.random() == rr.random()

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_subset(self, graph, mode):
        """The subset kernel equals the running-sum pick over the CSR of
        the gathered rows (repeats and isolated rows included).

        The kernel takes no masks: callers pass exactly the rows that
        should pick, as a sparse round passes its frontier.  ``mode``
        picks that row subset out of the same random rows by the mode's
        masks — a vertex mask, rows with an eligible entry, or both — and
        every neighbor of a kept row is eligible."""
        indptr, indices = GRAPHS[graph]()
        n = indptr.size - 1
        _, nmask, fmask = replica_masks(n, indices.size, mode, 5)
        vertices = np.random.default_rng(5).integers(0, n, size=2 * n)
        keep = np.ones(vertices.size, dtype=bool)
        if nmask is not None:
            keep &= nmask[3][vertices]
        if fmask is not None:
            row_has_entry = np.array(
                [fmask[3][indptr[v]:indptr[v + 1]].any() for v in range(n)],
                dtype=bool,
            )
            keep &= row_has_entry[vertices]
        vertices = vertices[keep]
        deg = indptr[vertices + 1] - indptr[vertices]
        run_indptr = np.concatenate([[0], np.cumsum(deg)])
        pos = np.concatenate(
            [np.empty(0, dtype=np.int64)]
            + [np.arange(indptr[v], indptr[v + 1]) for v in vertices]
        ).astype(np.int64)
        ra, rb = np.random.default_rng(9), np.random.default_rng(9)
        got = subset_grid(
            indptr,
            vertices,
            csrops.segmented_random_pick_subset(indptr, indices, ra, vertices),
        )
        want = running_sum_pick(
            run_indptr, indices[pos], rb,
            np.ones((1, vertices.size), dtype=bool),
            np.ones((1, pos.size), dtype=bool),
        )
        assert np.array_equal(got, want[0])
        assert ra.random() == rb.random()

    @given(batched_csr_cases(), st.integers(0, 2**31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_random_cases(self, case, seed):
        indptr, indices, active, nmask, fmask = case
        if nmask is None and fmask is None:
            return  # the unmasked path draws directly from the degrees
        T = active.shape[0]
        ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
        got = pick_grid(
            csrops.batched_random_pick(
                indptr, indices, ra, active, neighbor_mask=nmask, flat_mask=fmask
            ),
            *active.shape,
        )
        want = running_sum_pick(
            indptr, indices, rb, active, eligibility(indices, T, nmask, fmask)
        )
        assert np.array_equal(got, want)
        assert ra.random() == rb.random()


def sender_rows(n, kind):
    """Sender masks: every row, a random half, none (zero senders)."""
    if kind == "all":
        return np.ones(n, dtype=bool)
    if kind == "none":
        return np.zeros(n, dtype=bool)
    return np.random.default_rng(3).random(n) < 0.5


class TestSingleReplicaPickIdentities:
    """The identities a single-replica round relies on to skip masks:
    equal picks and the Generator left in the same state."""

    @staticmethod
    def assert_same(a, b, ra, rb):
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        assert ra.bit_generator.state == rb.bit_generator.state

    @pytest.mark.parametrize("senders", ["all", "half", "none"])
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_unmasked_equals_all_true_flat_mask(self, graph, senders):
        indptr, indices = GRAPHS[graph]()
        active = sender_rows(indptr.size - 1, senders)
        ra, rb = np.random.default_rng(17), np.random.default_rng(17)
        a = csrops.segmented_random_pick(indptr, indices, ra, active=active)
        b = csrops.segmented_random_pick(
            indptr, indices, rb, active=active,
            flat_mask=np.ones(indices.size, dtype=bool),
        )
        self.assert_same(a, b, ra, rb)

    @pytest.mark.parametrize("senders", ["all", "half", "none"])
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_neighbor_mask_equals_its_entry_mask(self, graph, senders):
        indptr, indices = GRAPHS[graph]()
        n = indptr.size - 1
        active = sender_rows(n, senders)
        for mask in (
            np.random.default_rng(5).random(n) < 0.5,
            np.ones(n, dtype=bool),
            np.zeros(n, dtype=bool),
        ):
            ra, rb = np.random.default_rng(23), np.random.default_rng(23)
            a = csrops.segmented_random_pick(
                indptr, indices, ra, active=active, neighbor_mask=mask
            )
            b = csrops.segmented_random_pick(
                indptr, indices, rb, active=active, flat_mask=mask[indices]
            )
            self.assert_same(a, b, ra, rb)


class TestStackCsr:
    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(
                    lambda e: e[0] != e[1]
                ),
                unique=True,
                max_size=10,
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_block_diagonal_structure(self, edge_lists):
        n = 6
        csrs = []
        for edges in edge_lists:
            arr = np.asarray(sorted(set(map(tuple, map(sorted, edges)))), dtype=np.int64)
            csrs.append(build_csr(n, arr.reshape(-1, 2)))
        indptr, indices = stack_csr(csrs, n)
        T = len(csrs)
        assert indptr.shape == (T * n + 1,)
        for t, (ip, ind) in enumerate(csrs):
            for u in range(n):
                lo, hi = indptr[t * n + u], indptr[t * n + u + 1]
                block = indices[lo:hi] - t * n
                assert np.array_equal(block, ind[ip[u] : ip[u + 1]])
                # Every stacked neighbor stays inside its replica's block.
                assert ((indices[lo:hi] >= t * n) & (indices[lo:hi] < (t + 1) * n)).all()


def stable_argsort_accept(senders, targets, rng):
    """Uniform acceptance over groups of a stable argsort of the targets.

    Proposals to one target stay in input order; each group draws one
    ``floor(u * size)`` offset, groups in ascending target order.
    """
    if targets.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    order = np.argsort(targets, kind="stable")
    t_sorted, s_sorted = targets[order], senders[order]
    starts = np.flatnonzero(np.r_[True, t_sorted[1:] != t_sorted[:-1]])
    sizes = np.diff(np.r_[starts, t_sorted.size])
    chosen = starts + (rng.random(starts.size) * sizes).astype(np.int64)
    return t_sorted[starts], s_sorted[chosen]


def accept_case(kind, m, seed):
    """``(senders, targets)`` of ``m`` proposals over an id space of 2m+1."""
    rng = np.random.default_rng(seed)
    space = 2 * m + 1
    senders = rng.permutation(space)[:m].astype(np.int64)
    if kind == "single":
        targets = np.full(m, space - 1, dtype=np.int64)
    elif kind == "distinct":
        targets = rng.permutation(space)[:m].astype(np.int64)
    elif kind == "duplicated":
        targets = rng.integers(0, max(1, m // 50), size=m)
    else:
        targets = rng.integers(0, space, size=m)
    return senders, targets


class TestAcceptAgainstStableGrouping:
    """The composite-key sort groups exactly as a stable argsort would:
    equal receivers and winners, and the Generator left in the same state."""

    @pytest.mark.parametrize("kind", ["single", "distinct", "duplicated", "uniform"])
    @pytest.mark.parametrize("m", [0, 1, 2, 7, 100, 3000, 100_000])
    def test_draw_for_draw(self, kind, m):
        senders, targets = accept_case(kind, m, seed=m)
        ra, rb = np.random.default_rng(m + 1), np.random.default_rng(m + 1)
        got = csrops.segmented_uniform_accept_pairs(senders, targets, ra)
        expect = stable_argsort_accept(senders, targets, rb)
        assert np.array_equal(got[0], expect[0])
        assert np.array_equal(got[1], expect[1])
        assert ra.bit_generator.state == rb.bit_generator.state
