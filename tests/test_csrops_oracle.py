"""Oracle tests: csrops against brute-force per-row reference implementations.

The vectorized primitives are re-implemented here as obviously-correct
per-row Python loops; hypothesis drives both over random CSR structures
and masks, comparing *support* exactly (which outcomes are possible) and
checking that both implementations produce valid outcomes for the same
inputs.  Distribution equality is covered statistically in
``test_statistical_semantics.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.util import csrops
from repro.util.csrops import build_csr
from tests.csrops_loop_reference import TABLE as LOOP, pick_grid, subset_grid


KERNEL_PARAMS = ["numpy", "numba-python"]


@pytest.fixture(autouse=True, scope="module", params=KERNEL_PARAMS)
def csrops_kernels(request):
    """Run the whole oracle suite on the vectorized kernels (``numpy``) and
    on their per-row loop formulation (``numba-python``: the kernels of the
    removed numba backend, as plain Python), which the bit-identity tests
    use as their reference."""
    with pytest.MonkeyPatch.context() as mp:
        if request.param == "numba-python":
            for name, fn in LOOP.items():
                mp.setattr(csrops, name, fn)
        yield request.param


def reference_pick_support(indptr, indices, active, neighbor_mask, flat_mask):
    """Per-row sets of possible picks, by definition."""
    n = indptr.shape[0] - 1
    support: list[set[int]] = []
    for u in range(n):
        if active is not None and not active[u]:
            support.append({-1})
            continue
        options = set()
        for pos in range(indptr[u], indptr[u + 1]):
            v = int(indices[pos])
            if neighbor_mask is not None and not neighbor_mask[v]:
                continue
            if flat_mask is not None and not flat_mask[pos]:
                continue
            options.add(v)
        support.append(options if options else {-1})
    return support


@st.composite
def csr_cases(draw):
    n = draw(st.integers(2, 10))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    indptr, indices = build_csr(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    active = draw(
        st.one_of(st.none(), st.lists(st.booleans(), min_size=n, max_size=n))
    )
    neighbor_mask = draw(
        st.one_of(st.none(), st.lists(st.booleans(), min_size=n, max_size=n))
    )
    use_flat = draw(st.booleans())
    flat_mask = (
        draw(
            st.lists(st.booleans(), min_size=indices.size, max_size=indices.size)
        )
        if use_flat and indices.size
        else None
    )
    to_arr = lambda x: None if x is None else np.asarray(x, dtype=bool)
    return indptr, indices, to_arr(active), to_arr(neighbor_mask), to_arr(flat_mask)


class TestPickAgainstOracle:
    @given(csr_cases(), st.integers(0, 2**31 - 1))
    @settings(max_examples=120)
    def test_picks_always_in_reference_support(self, case, seed):
        indptr, indices, active, nmask, fmask = case
        rng = np.random.default_rng(seed)
        support = reference_pick_support(indptr, indices, active, nmask, fmask)
        for _ in range(3):
            pairs = csrops.segmented_random_pick(
                indptr, indices, rng,
                active=active, neighbor_mask=nmask, flat_mask=fmask,
            )
            assert np.all(np.diff(pairs[0]) > 0)  # ascending, each row once
            pick = pick_grid(pairs, 1, indptr.size - 1)[0]
            for u, p in enumerate(pick):
                assert int(p) in support[u], (u, int(p), support[u])

    @given(csr_cases(), st.integers(0, 2**31 - 1))
    @settings(max_examples=60)
    def test_every_support_element_reachable(self, case, seed):
        """Over repeated draws, each eligible option appears (no dead options)."""
        indptr, indices, active, nmask, fmask = case
        rng = np.random.default_rng(seed)
        support = reference_pick_support(indptr, indices, active, nmask, fmask)
        seen: list[set[int]] = [set() for _ in support]
        # Enough draws that P(missing an option) is negligible: max degree
        # is 9, 200 draws => miss prob < 9 * (8/9)^200 ~ 1e-10.
        for _ in range(200):
            pick = pick_grid(
                csrops.segmented_random_pick(
                    indptr, indices, rng,
                    active=active, neighbor_mask=nmask, flat_mask=fmask,
                ),
                1,
                indptr.size - 1,
            )[0]
            for u, p in enumerate(pick):
                seen[u].add(int(p))
        for u in range(len(support)):
            assert seen[u] == support[u]


class TestAcceptAgainstOracle:
    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=20
        ).filter(lambda ps: all(s != t for s, t in ps)),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=100)
    def test_accepted_sender_proposed_to_that_target(self, proposals, seed):
        senders = np.array([s for s, _ in proposals], dtype=np.int64)
        targets = np.array([t for _, t in proposals], dtype=np.int64)
        rng = np.random.default_rng(seed)
        receivers, winners = csrops.segmented_uniform_accept_pairs(senders, targets, rng)
        proposal_set = set(zip(senders.tolist(), targets.tolist()))
        # Every targeted vertex accepts exactly once, in ascending order.
        assert receivers.tolist() == sorted(set(targets.tolist()))
        for w, t in zip(winners.tolist(), receivers.tolist()):
            assert (w, t) in proposal_set


class TestSubsetPickAgainstOracle:
    """segmented_random_pick_subset is the sparse-frontier pick primitive:
    for the listed rows it must have exactly the dense kernel's support."""

    @given(csr_cases(), st.integers(0, 2**31 - 1))
    @settings(max_examples=100)
    def test_subset_picks_in_reference_support(self, case, seed):
        indptr, indices = case[:2]
        n = indptr.shape[0] - 1
        rng = np.random.default_rng(seed)
        vertices = np.flatnonzero(np.random.default_rng(seed + 1).random(n) < 0.6)
        support = reference_pick_support(indptr, indices, None, None, None)
        for _ in range(3):
            pick = subset_grid(
                indptr,
                vertices,
                csrops.segmented_random_pick_subset(indptr, indices, rng, vertices),
            )
            assert pick.shape == vertices.shape
            for i, u in enumerate(vertices):
                assert int(pick[i]) in support[u], (int(u), int(pick[i]), support[u])

    @given(csr_cases(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40)
    def test_every_support_element_reachable(self, case, seed):
        indptr, indices = case[:2]
        n = indptr.shape[0] - 1
        rng = np.random.default_rng(seed)
        vertices = np.flatnonzero(np.random.default_rng(seed + 1).random(n) < 0.6)
        support = reference_pick_support(indptr, indices, None, None, None)
        seen: list[set[int]] = [set() for _ in range(vertices.size)]
        # Max degree 9, 200 draws: miss probability < 9 * (8/9)^200 ~ 1e-10.
        for _ in range(200):
            pick = subset_grid(
                indptr,
                vertices,
                csrops.segmented_random_pick_subset(indptr, indices, rng, vertices),
            )
            for i, p in enumerate(pick):
                seen[i].add(int(p))
        for i, u in enumerate(vertices):
            assert seen[i] == support[u]

    def test_empty_subset(self):
        indptr, indices = build_csr(3, np.array([[0, 1], [1, 2]]))
        senders, targets = csrops.segmented_random_pick_subset(
            indptr, indices, np.random.default_rng(0),
            np.empty(0, dtype=np.int64),
        )
        assert senders.size == targets.size == 0

    def test_repeated_rows_pick_independently(self):
        indptr, indices = build_csr(3, np.array([[0, 1], [0, 2]]))
        rng = np.random.default_rng(3)
        vertices = np.zeros(200, dtype=np.int64)
        senders, picks = csrops.segmented_random_pick_subset(
            indptr, indices, rng, vertices
        )
        assert np.array_equal(senders, vertices)
        assert set(picks.tolist()) == {1, 2}
