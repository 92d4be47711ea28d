"""Bit identity of the csrops kernels against their per-row loop formulation.

:mod:`tests.csrops_loop_reference` re-implements the pick and accept
kernels as plain per-row loops that consume the Generator in the same
order and count.  Given the same Generator state, kernel and loop must
return identical arrays and leave the Generator in the same state — the
property that makes a run's trajectory independent of how the kernels
are formulated.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.families import random_regular
from repro.util import csrops
from repro.util.csrops import build_csr
from tests.csrops_loop_reference import TABLE as LOOP, pick_grid


def _random_graph(n: int, seed: int):
    rng = np.random.default_rng(seed)
    pool = np.array([(u, v) for u in range(n) for v in range(u + 1, n)])
    edges = pool[rng.random(len(pool)) < 0.2]
    return build_csr(n, edges.reshape(-1, 2))


def _regular_graph(n: int, seed: int):
    """8-regular: every row has the same degree, so the unmasked picks
    draw their offsets with one scalar-bound call."""
    g = random_regular(n, 8, seed=seed)
    return g.indptr, g.indices


def _assert_same_pairs(a, b):
    assert len(a) == len(b) == 2
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def _mask_variants(n, nnz, seed):
    rng = np.random.default_rng(seed)
    nmask = rng.random(n) < 0.6
    fmask = rng.random(nnz) < 0.7
    return [
        dict(neighbor_mask=None, flat_mask=None),
        dict(neighbor_mask=nmask, flat_mask=None),
        dict(neighbor_mask=None, flat_mask=fmask),
        dict(neighbor_mask=nmask, flat_mask=fmask),
    ]


KERNEL = {name: getattr(csrops, name) for name in LOOP}


class TestBitIdentity:
    """Same Generator state in, bit-identical arrays out, kernel by kernel."""

    @staticmethod
    def _check_segmented_random_pick(indptr, indices, seed):
        for active in (None, np.random.default_rng(seed + 50).random(20) < 0.8):
            for kw in _mask_variants(20, indices.size, seed + 100):
                ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
                a = KERNEL["segmented_random_pick"](
                    indptr, indices, ra, active=active, **kw
                )
                b = LOOP["segmented_random_pick"](
                    indptr, indices, rb, active=active, **kw
                )
                _assert_same_pairs(a, b)
                assert ra.bit_generator.state == rb.bit_generator.state

    @pytest.mark.parametrize("seed", range(4))
    def test_segmented_random_pick(self, seed):
        self._check_segmented_random_pick(*_random_graph(20, seed), seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_segmented_random_pick_regular(self, seed):
        self._check_segmented_random_pick(*_regular_graph(20, seed), seed)

    @staticmethod
    def _check_segmented_random_pick_subset(indptr, indices, seed):
        vertices = np.flatnonzero(np.random.default_rng(seed + 51).random(20) < 0.5)
        ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
        a = KERNEL["segmented_random_pick_subset"](indptr, indices, ra, vertices)
        b = LOOP["segmented_random_pick_subset"](indptr, indices, rb, vertices)
        _assert_same_pairs(a, b)
        assert ra.bit_generator.state == rb.bit_generator.state

    @pytest.mark.parametrize("seed", range(4))
    def test_segmented_random_pick_subset(self, seed):
        self._check_segmented_random_pick_subset(*_random_graph(20, seed), seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_segmented_random_pick_subset_regular(self, seed):
        self._check_segmented_random_pick_subset(*_regular_graph(20, seed), seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_segmented_uniform_accept_pairs(self, seed):
        rng = np.random.default_rng(seed + 52)
        m, n = 60, 15
        senders = rng.integers(0, n, size=m)
        targets = (senders + 1 + rng.integers(0, n - 1, size=m)) % n
        ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
        acc_a, win_a = KERNEL["segmented_uniform_accept_pairs"](senders, targets, ra)
        acc_b, win_b = LOOP["segmented_uniform_accept_pairs"](senders, targets, rb)
        assert np.array_equal(acc_a, acc_b)
        assert np.array_equal(win_a, win_b)

    @pytest.mark.parametrize("seed", range(4))
    def test_batched_random_pick(self, seed):
        indptr, indices = _random_graph(12, seed)
        T, n = 3, 12
        rng = np.random.default_rng(seed + 53)
        active = rng.random((T, n)) < 0.8
        variants = [
            dict(neighbor_mask=None, flat_mask=None),
            dict(neighbor_mask=rng.random((T, n)) < 0.6, flat_mask=None),
            dict(neighbor_mask=None, flat_mask=rng.random((T, indices.size)) < 0.7),
        ]
        for kw in variants:
            a = pick_grid(
                KERNEL["batched_random_pick"](
                    indptr, indices, np.random.default_rng(seed), active, **kw
                ),
                T,
                n,
            )
            b = pick_grid(
                LOOP["batched_random_pick"](
                    indptr, indices, np.random.default_rng(seed), active, **kw
                ),
                T,
                n,
            )
            assert np.array_equal(a, b)

    def test_rng_consumption_matches(self):
        """After a kernel call kernel and loop leave the Generator in the
        same state (the next draw agrees) — required for trajectory
        identity across whole runs, not just single calls."""
        indptr, indices = _random_graph(20, 9)
        nmask = np.random.default_rng(1).random(20) < 0.6
        ra, rb = np.random.default_rng(9), np.random.default_rng(9)
        KERNEL["segmented_random_pick"](indptr, indices, ra, neighbor_mask=nmask)
        LOOP["segmented_random_pick"](indptr, indices, rb, neighbor_mask=nmask)
        assert ra.integers(0, 2**31) == rb.integers(0, 2**31)
