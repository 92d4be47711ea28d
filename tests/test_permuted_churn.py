"""Permutation-native churn fast path: kernel, generators, engine caches.

The batched engine serves isomorphic churn (per-replica relabelings of a
shared base) without ever building a relabeled ``Graph`` or re-stacked
CSR: :func:`~repro.util.csrops.batched_permuted_pick` routes each
replica's pick through its ``(n,)`` relabel permutation against the one
base CSR.  The ground truth is the eager construction — relabel the base
per replica and pick on the relabeled CSR — so the oracle here compares
pick *supports and distributions* against exactly that.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.blind_gossip import BlindGossipBatched
from repro.core.batched import BatchedVectorizedEngine
from repro.graphs import families
from repro.graphs.adversary import BatchedPackingAdversary, PackingAdversary
from repro.graphs.dynamic import (
    PeriodicRelabelDynamicGraph,
    PermutedDynamicGraph,
    ResampleDynamicGraph,
    epoch_of_round,
)
from repro.harness.runner import trial_seeds_for
from repro.util.csrops import (
    batched_permuted_pick,
    batched_random_pick,
    invert_permutations,
    stack_csr,
)
from tests.test_csrops_oracle import reference_pick_support


class TestInvertPermutations:
    @given(st.integers(1, 5), st.integers(1, 12), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_inverse_property(self, T, n, seed):
        rng = np.random.default_rng(seed)
        perm = np.stack([rng.permutation(n) for _ in range(T)]).astype(np.int64)
        inv = invert_permutations(perm)
        rows = np.arange(n)[None, :]
        assert np.array_equal(np.take_along_axis(inv, perm, axis=1), np.broadcast_to(rows, perm.shape))
        assert np.array_equal(np.take_along_axis(perm, inv, axis=1), np.broadcast_to(rows, perm.shape))


@st.composite
def permuted_cases(draw):
    n = draw(st.integers(2, 8))
    T = draw(st.integers(1, 4))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(pool), unique=True, min_size=1, max_size=len(pool))
    )
    from repro.graphs.static import Graph

    base = Graph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    perm = np.stack([rng.permutation(n) for _ in range(T)]).astype(np.int64)
    rows = st.lists(st.booleans(), min_size=n, max_size=n)
    active = np.asarray(draw(st.lists(rows, min_size=T, max_size=T)), dtype=bool)
    nmask = draw(
        st.one_of(
            st.none(),
            st.lists(rows, min_size=T, max_size=T).map(
                lambda m: np.asarray(m, dtype=bool)
            ),
        )
    )
    return base, perm, active, nmask


def eager_support(base, perm, active, nmask):
    """Per-(replica, current-label vertex) pick supports via eager relabeling."""
    T = perm.shape[0]
    return [
        reference_pick_support(
            *(lambda g: (g.indptr, g.indices))(base.relabel(perm[t])),
            active[t],
            None if nmask is None else nmask[t],
            None,
        )
        for t in range(T)
    ]


def permuted_pick_grid(base, perm, active, nmask, rng):
    """Run the permuted kernel; scatter the compact pairs to a (T, n) grid."""
    T, n = active.shape
    sflat, tflat = batched_permuted_pick(
        base.indptr, base.indices, rng, perm, active, neighbor_mask=nmask
    )
    grid = np.full(T * n, -1, dtype=np.int64)
    grid[sflat] = tflat % n
    return grid.reshape(T, n)


class TestPermutedPickAgainstEagerRelabel:
    @given(permuted_cases(), st.integers(0, 2**31 - 1))
    @settings(max_examples=120, deadline=None)
    def test_support_matches_eagerly_relabeled_graph(self, case, seed):
        base, perm, active, nmask = case
        supports = eager_support(base, perm, active, nmask)
        rng = np.random.default_rng(seed)
        T, n = active.shape
        for _ in range(3):
            grid = permuted_pick_grid(base, perm, active, nmask, rng)
            for t in range(T):
                for u in range(n):
                    assert int(grid[t, u]) in supports[t][u], (t, u)

    @given(permuted_cases(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_every_support_element_reachable(self, case, seed):
        base, perm, active, nmask = case
        supports = eager_support(base, perm, active, nmask)
        rng = np.random.default_rng(seed)
        T, n = active.shape
        seen = [[set() for _ in range(n)] for _ in range(T)]
        # Max degree 7; 200 draws make a missed option vanishingly unlikely.
        for _ in range(200):
            grid = permuted_pick_grid(base, perm, active, nmask, rng)
            for t in range(T):
                for u in range(n):
                    seen[t][u].add(int(grid[t, u]))
        for t in range(T):
            for u in range(n):
                assert seen[t][u] == supports[t][u]

    def test_uniform_over_relabeled_neighbors(self):
        """Pick frequencies match the uniform law of the relabeled graph."""
        base = families.double_star(4)
        rng = np.random.default_rng(0)
        perm = np.stack([rng.permutation(base.n) for _ in range(3)]).astype(np.int64)
        active = np.ones((3, base.n), dtype=bool)
        draws = 4000
        counts: dict[tuple[int, int, int], int] = {}
        for _ in range(draws):
            grid = permuted_pick_grid(base, perm, active, None, rng)
            for t in range(3):
                for u in range(base.n):
                    counts[(t, u, int(grid[t, u]))] = (
                        counts.get((t, u, int(grid[t, u])), 0) + 1
                    )
        for t in range(3):
            g = base.relabel(perm[t])
            for u in range(g.n):
                nbrs = g.neighbors(u)
                p = 1.0 / len(nbrs)
                sigma = (draws * p * (1 - p)) ** 0.5
                for v in nbrs:
                    assert abs(counts.get((t, u, int(v)), 0) - draws * p) <= 6 * sigma

    def test_identity_permutation_matches_batched_pick(self):
        base = families.random_regular(16, 4, seed=0)
        T = 4
        perm = np.tile(np.arange(base.n, dtype=np.int64), (T, 1))
        active = np.random.default_rng(1).random((T, base.n)) < 0.7
        nmask = np.random.default_rng(2).random((T, base.n)) < 0.7
        s1, t1 = batched_permuted_pick(
            base.indptr, base.indices, np.random.default_rng(7), perm, active,
            neighbor_mask=nmask,
        )
        s2, t2 = batched_random_pick(
            base.indptr, base.indices, np.random.default_rng(7), active,
            neighbor_mask=nmask,
        )
        assert np.array_equal(s1, s2) and np.array_equal(t1, t2)

    def test_rejects_bad_shapes(self):
        base = families.ring(6)
        rng = np.random.default_rng(0)
        active = np.ones((2, 6), dtype=bool)
        with pytest.raises(ValueError):
            batched_permuted_pick(
                base.indptr, base.indices, rng,
                np.tile(np.arange(5, dtype=np.int64), (2, 1)), active,
            )
        with pytest.raises(TypeError):
            batched_permuted_pick(
                base.indptr, base.indices, rng,
                np.tile(np.arange(6, dtype=np.int64), (2, 1)),
                active.astype(np.int64),
            )


class TestPermutedDynamicGraphContract:
    def test_relabel_generator_is_permuted(self):
        dg = PeriodicRelabelDynamicGraph(families.ring(8), tau=2, seed=3)
        assert isinstance(dg, PermutedDynamicGraph)
        assert dg.base is not None

    @pytest.mark.parametrize("tau", [1, 2, 5])
    def test_graph_at_equals_relabel_of_permutation_at(self, tau):
        base = families.double_star(4)
        dg = PeriodicRelabelDynamicGraph(base, tau=tau, seed=11)
        for r in (1, 2, 3, 7, 40, 2000):
            assert dg.graph_at(r) == base.relabel(dg.permutation_at(r))

    def test_permutation_stable_within_epoch(self):
        dg = PeriodicRelabelDynamicGraph(families.ring(8), tau=3, seed=0)
        for e in range(4):
            r0 = 1 + 3 * e
            assert np.array_equal(dg.permutation_at(r0), dg.permutation_at(r0 + 2))

    def test_permutations_deterministic_across_instances(self):
        base = families.ring(8)
        a = PeriodicRelabelDynamicGraph(base, tau=1, seed=9)
        b = PeriodicRelabelDynamicGraph(base, tau=1, seed=9)
        for r in (1, 5, 100, 10_000):
            assert np.array_equal(a.permutation_at(r), b.permutation_at(r))

    def test_block_boundaries_consistent_out_of_order(self):
        """Crossing permutation-block boundaries in any order is consistent."""
        base = families.ring(4)
        dg = PeriodicRelabelDynamicGraph(base, tau=1, seed=2)
        span = dg._block_len * 3
        forward = [dg.permutation_at(r).copy() for r in range(1, span + 1)]
        dg2 = PeriodicRelabelDynamicGraph(base, tau=1, seed=2)
        for r in range(span, 0, -1):
            assert np.array_equal(dg2.permutation_at(r), forward[r - 1])

    @pytest.mark.parametrize("k", [1, 3, 64])
    def test_epoch_runs_match_single_epochs(self, k):
        """``permutations_from_epoch(e, k)`` holds the permutations of
        epochs ``e, e+1, …``: 1 to ``k`` rows, none past e's block."""
        base = families.ring(4)
        dg = PeriodicRelabelDynamicGraph(base, tau=1, seed=2)
        single = PeriodicRelabelDynamicGraph(base, tau=1, seed=2)
        for e in (0, 5, dg._block_len - 2, dg._block_len, 3 * dg._block_len - 1):
            rows = dg.permutations_from_epoch(e, k)
            assert 1 <= len(rows) <= min(k, dg._block_len - e % dg._block_len)
            for i, row in enumerate(rows):
                assert np.array_equal(row, single.permutation_of_epoch(e + i))


class TestBatchedPackingAdversary:
    def test_matches_per_replica_adversaries(self):
        """Graph-for-graph identical to T independent PackingAdversary runs."""
        base = families.double_star(6)
        T, tau = 4, 2
        batched = BatchedPackingAdversary(base, tau=tau, replicas=T)
        singles = [PackingAdversary(base, tau=tau) for _ in range(T)]
        rng = np.random.default_rng(0)
        for r in range(1, 13):
            obs = rng.random((T, base.n)) < 0.4
            batched.observe(r, obs)
            perms = batched.permutations_at(r)
            for t, adv in enumerate(singles):
                adv.observe(r, obs[t])
                assert adv.graph_at(r) == base.relabel(perms[t])

    def test_none_observation_keeps_permutations(self):
        base = families.double_star(4)
        adv = BatchedPackingAdversary(base, tau=1, replicas=2)
        adv.observe(1, np.ones((2, base.n), dtype=bool))
        before = adv.permutations_at(1)
        adv.observe(2, None)
        assert adv.permutations_at(2) is before

    def test_emits_new_array_object_on_change(self):
        """The engine detects changes by identity, so ``observe`` must not
        mutate the previously returned array in place."""
        base = families.double_star(4)
        adv = BatchedPackingAdversary(base, tau=1, replicas=2)
        obs = np.zeros((2, base.n), dtype=bool)
        obs[0, 3] = True
        adv.observe(1, obs)
        first = adv.permutations_at(1)
        snapshot = first.copy()
        obs2 = obs.copy()
        obs2[1, 5] = True
        adv.observe(2, obs2)
        assert adv.permutations_at(2) is not first
        assert np.array_equal(first, snapshot)

    def test_forward_only_and_shape_validation(self):
        base = families.double_star(4)
        adv = BatchedPackingAdversary(base, tau=1, replicas=2)
        adv.observe(3, None)
        with pytest.raises(ValueError):
            adv.observe(3, None)
        with pytest.raises(ValueError):
            adv.observe(2, None)
        adv2 = BatchedPackingAdversary(base, tau=1, replicas=2)
        with pytest.raises(ValueError):
            adv2.observe(1, np.zeros(base.n, dtype=bool))

    def test_replica_count_mismatch_rejected_by_engine(self):
        base = families.double_star(4)
        adv = BatchedPackingAdversary(base, tau=1, replicas=3)
        keys = np.random.default_rng(0).permutation(base.n).astype(np.int64)
        with pytest.raises(ValueError):
            BatchedVectorizedEngine(adv, BlindGossipBatched(keys), seeds=[1, 2])


class TestCacheEviction:
    def test_relabel_cache_retains_newest(self):
        base = families.ring(6)
        dg = PeriodicRelabelDynamicGraph(base, tau=1, seed=0)
        dg._cache_limit = 4
        for r in range(1, 5):
            dg.graph_at(r)
        assert sorted(dg._cache) == [0, 1, 2, 3]
        g4 = dg.graph_at(5)  # insertion at the limit evicts all but newest
        assert sorted(dg._cache) == [3, 4]
        # The retained entries are served from cache, not rebuilt.
        assert dg.graph_at(4) is dg._cache[3] and dg.graph_at(5) is g4

    def test_resample_cache_retains_newest(self):
        dg = ResampleDynamicGraph(
            lambda s: families.random_regular(12, 3, seed=s), tau=1, seed=0
        )
        dg._cache_limit = 4
        for r in range(1, 5):
            dg.graph_at(r)
        g5 = dg.graph_at(5)
        assert sorted(dg._cache) == [3, 4]
        assert dg.graph_at(5) is g5

    def test_engine_stack_survives_generator_eviction(self):
        """The stacked-CSR cache must keep working when the dynamic graphs
        evict their own epoch caches between rounds (the identity-keyed
        hazard: a dead graph's id must never alias a live cache entry)."""
        base_a = families.double_star(4)
        base_b = families.double_star(4)  # distinct object: stacked path
        keys = np.random.default_rng(0).permutation(base_a.n).astype(np.int64)
        seeds = trial_seeds_for(0, 2)
        dgs = [
            PeriodicRelabelDynamicGraph(base_a, 1, seed=1),
            PeriodicRelabelDynamicGraph(base_b, 1, seed=2),
        ]
        for dg in dgs:
            dg._cache_limit = 2  # evict aggressively
        eng = BatchedVectorizedEngine(dgs, BlindGossipBatched(keys), seeds=seeds)
        assert eng._perm_base is None  # genuinely exercises the stacked path
        for r in range(1, 40):
            eng.step(r)
            indptr_s, indices_s = eng._stack
            fresh_ip, fresh_ix = stack_csr(
                [(dg.graph_at(r).indptr, dg.graph_at(r).indices) for dg in dgs],
                base_a.n,
            )
            assert np.array_equal(indptr_s, fresh_ip)
            assert np.array_equal(indices_s, fresh_ix)


class TestIncrementalStacking:
    def _engine(self, dgs, n):
        keys = np.random.default_rng(0).permutation(n).astype(np.int64)
        return BatchedVectorizedEngine(
            dgs, BlindGossipBatched(keys), seeds=trial_seeds_for(0, len(dgs))
        )

    def test_patch_equals_fresh_stack(self):
        """In-place segment patches reproduce a from-scratch stack exactly."""
        base_a = families.random_regular(12, 4, seed=0)
        base_b = families.random_regular(12, 4, seed=1)
        dgs = [
            PeriodicRelabelDynamicGraph(base_a, 2, seed=1),
            PeriodicRelabelDynamicGraph(base_b, 3, seed=2),  # different cadence
        ]
        eng = self._engine(dgs, 12)
        assert eng._perm_base is None
        buffers = None
        for r in range(1, 20):
            graphs = [dg.graph_at(r) for dg in dgs]
            indptr_s, indices_s = eng._stacked_csr(graphs)
            if buffers is None:
                buffers = (indptr_s, indices_s)
            else:
                # Isomorphic churn keeps nnz constant: always patched in place.
                assert indptr_s is buffers[0] and indices_s is buffers[1]
            fresh_ip, fresh_ix = stack_csr(
                [(g.indptr, g.indices) for g in graphs], 12
            )
            assert np.array_equal(indptr_s, fresh_ip)
            assert np.array_equal(indices_s, fresh_ix)

    def test_unchanged_graphs_reuse_stack(self):
        base = families.random_regular(12, 4, seed=0)
        dgs = [
            ResampleDynamicGraph(
                lambda s: families.random_regular(12, 4, seed=s), tau=4, seed=t
            )
            for t in range(2)
        ]
        eng = self._engine(dgs, 12)
        g1 = [dg.graph_at(1) for dg in dgs]
        first = eng._stacked_csr(g1)
        assert eng._stacked_csr([dg.graph_at(2) for dg in dgs]) is first

    def test_nnz_change_forces_full_restack(self):
        """A segment whose edge count changes cannot be patched in place."""
        n = 8
        dgs = [
            ResampleDynamicGraph(
                # Epoch parity flips the edge count of replica 0.
                lambda s: families.ring(n) if s % 2 else families.clique(n),
                tau=1,
                seed=t,
            )
            for t in range(2)
        ]
        eng = self._engine(dgs, n)
        changed = False
        for r in range(1, 10):
            graphs = [dg.graph_at(r) for dg in dgs]
            old = eng._stack
            indptr_s, indices_s = eng._stacked_csr(graphs)
            fresh_ip, fresh_ix = stack_csr(
                [(g.indptr, g.indices) for g in graphs], n
            )
            assert np.array_equal(indptr_s, fresh_ip)
            assert np.array_equal(indices_s, fresh_ix)
            if old is not None and old[1].shape != indices_s.shape:
                changed = True
        assert changed  # the workload really did change edge counts


class TestEnginePathDispatch:
    def _keys(self, n):
        return np.random.default_rng(0).permutation(n).astype(np.int64)

    def test_shared_base_list_takes_permuted_path(self):
        base = families.double_star(4)
        dgs = [PeriodicRelabelDynamicGraph(base, 1, seed=t) for t in range(3)]
        eng = BatchedVectorizedEngine(
            dgs, BlindGossipBatched(self._keys(base.n)), seeds=trial_seeds_for(0, 3)
        )
        assert eng._perm_base is base
        res = eng.run(100_000)
        assert res.stabilized.all()
        assert eng._stack is None  # no stacked CSR was ever built

    def test_distinct_bases_fall_back_to_stacking(self):
        a, b = families.double_star(4), families.double_star(4)
        dgs = [
            PeriodicRelabelDynamicGraph(a, 1, seed=0),
            PeriodicRelabelDynamicGraph(b, 1, seed=1),
        ]
        eng = BatchedVectorizedEngine(
            dgs, BlindGossipBatched(self._keys(a.n)), seeds=trial_seeds_for(0, 2)
        )
        assert eng._perm_base is None
        assert eng.run(100_000).stabilized.all()

    def test_mixed_tau_falls_back_to_stacking(self):
        base = families.double_star(4)
        dgs = [
            PeriodicRelabelDynamicGraph(base, 1, seed=0),
            PeriodicRelabelDynamicGraph(base, 2, seed=1),
        ]
        eng = BatchedVectorizedEngine(
            dgs, BlindGossipBatched(self._keys(base.n)), seeds=trial_seeds_for(0, 2)
        )
        assert eng._perm_base is None
        assert eng.run(100_000).stabilized.all()

    def test_batched_adversary_completes(self):
        base = families.double_star(8)
        from repro.algorithms.push_pull import PushPullBatched

        adv = BatchedPackingAdversary(base, tau=1, replicas=4)
        eng = BatchedVectorizedEngine(
            adv, PushPullBatched(np.array([2])), seeds=trial_seeds_for(0, 4)
        )
        res = eng.run(500_000)
        assert res.stabilized.all()
