"""Tests for bit convergence leader election (Section VII).

Includes property tests of the paper's deterministic invariants:

* Lemma VII.1(1,2): the maximum difference bit ``b_i`` never decreases and
  once ``⊥`` stays ``⊥``;
* Lemma VII.1(3): while ``b_i`` is unchanged, ``|S_i|`` (nodes with a 0 in
  that position) never shrinks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.bit_convergence import (
    BitConvergenceConfig,
    BitConvergenceNode,
    BitConvergenceBatched,
    draw_id_tags,
    make_bit_convergence_nodes,
)
from repro.core.batched import BatchedVectorizedEngine
from repro.core.engine import ReferenceEngine
from repro.core.monitor import all_leaders_are
from repro.core.payload import IDPair, Message, UID, UIDSpace
from repro.core.protocol import RoundView
from repro.core.trace import traces_equal
from repro.util.csrops import PickMemo
from repro.core.vectorized import VectorizedEngine
from repro.graphs import families
from repro.graphs.dynamic import PeriodicRelabelDynamicGraph, StaticDynamicGraph
from repro.harness.experiments import uid_keys_random


CFG = BitConvergenceConfig(n_upper=16, delta_bound=4, beta=1.0)


class TestConfig:
    def test_derived_quantities(self):
        cfg = BitConvergenceConfig(n_upper=256, delta_bound=16, beta=2.0)
        assert cfg.k == 16
        assert cfg.group_len == 8  # 2 * log2(16)
        assert cfg.phase_len == 128

    def test_position_cycles_through_bits(self):
        cfg = BitConvergenceConfig(n_upper=4, delta_bound=4, beta=1.0)  # k=2, gl=4
        positions = [cfg.position(r) for r in range(1, 2 * cfg.phase_len + 1)]
        assert positions[: cfg.phase_len] == [1] * 4 + [2] * 4
        assert positions[cfg.phase_len :] == positions[: cfg.phase_len]

    def test_phase_end_detection(self):
        cfg = BitConvergenceConfig(n_upper=4, delta_bound=4, beta=1.0)
        ends = [r for r in range(1, 25) if cfg.is_phase_end(r)]
        assert ends == [8, 16, 24]

    def test_group_multiplier_ablation_knob(self):
        base = BitConvergenceConfig(n_upper=64, delta_bound=16)
        wide = BitConvergenceConfig(n_upper=64, delta_bound=16, group_multiplier=4)
        assert wide.group_len == 2 * base.group_len

    def test_validation(self):
        with pytest.raises(ValueError):
            BitConvergenceConfig(n_upper=1, delta_bound=4)
        with pytest.raises(ValueError):
            BitConvergenceConfig(n_upper=16, delta_bound=0)
        with pytest.raises(ValueError):
            BitConvergenceConfig(n_upper=2**40, delta_bound=4, beta=2.0)


class TestDrawIdTags:
    def test_width(self):
        tags = draw_id_tags(100, CFG, seed=0)
        assert tags.min() >= 0 and tags.max() < (1 << CFG.k)

    def test_unique_mode(self):
        cfg = BitConvergenceConfig(n_upper=32, delta_bound=4, beta=1.0)  # k=5
        tags = draw_id_tags(32, cfg, seed=0, unique=True)
        assert np.unique(tags).size == 32

    def test_unique_mode_overflow_rejected(self):
        cfg = BitConvergenceConfig(n_upper=4, delta_bound=4, beta=1.0)  # k=2
        with pytest.raises(ValueError):
            draw_id_tags(5, cfg, seed=0, unique=True)

    def test_deterministic(self):
        assert np.array_equal(
            draw_id_tags(20, CFG, seed=3), draw_id_tags(20, CFG, seed=3)
        )


class TestNodeProtocol:
    def test_initial_state(self):
        node = BitConvergenceNode(0, UID(9), id_tag=5, config=CFG)
        assert node.leader == UID(9)
        assert node.committed_pair == IDPair(UID(9), 5)

    def test_tag_bit_advertised(self):
        # k=4 (n_upper=16, beta=1), tag 0b1010.
        node = BitConvergenceNode(0, UID(1), id_tag=0b1010, config=CFG)
        rng = np.random.default_rng(0)
        gl = CFG.group_len
        # Group 1 -> bit position 1 (MSB) = 1; group 2 -> 0; etc.
        assert node.choose_tag(1, rng) == 1
        assert node.choose_tag(gl + 1, rng) == 0
        assert node.choose_tag(2 * gl + 1, rng) == 1
        assert node.choose_tag(3 * gl + 1, rng) == 0

    def test_received_pair_buffered_until_phase_end(self):
        node = BitConvergenceNode(0, UID(9), id_tag=7, config=CFG)
        rng = np.random.default_rng(0)
        smaller = IDPair(UID(1), 2)
        node.choose_tag(1, rng)
        node.deliver(1, Message(data=smaller))
        node.end_round()
        # Mid-phase: leader unchanged, pending updated.
        assert node.leader == UID(9)
        assert node.pending_pair == smaller
        # Walk to the phase end.
        for r in range(2, CFG.phase_len + 1):
            node.choose_tag(r, rng)
            node.end_round()
        assert node.leader == UID(1)
        assert node.committed_pair == smaller

    def test_larger_pair_ignored(self):
        node = BitConvergenceNode(0, UID(9), id_tag=7, config=CFG)
        node.deliver(1, Message(data=IDPair(UID(50), 12)))
        assert node.pending_pair == IDPair(UID(9), 7)

    def test_zero_bit_targets_one_advertisers(self):
        node = BitConvergenceNode(0, UID(9), id_tag=0, config=CFG)  # all bits 0
        rng = np.random.default_rng(0)
        node.choose_tag(1, rng)
        v = RoundView(
            local_round=1,
            neighbors=np.array([1, 2, 3]),
            neighbor_tags=np.array([0, 1, 0]),
            rng=rng,
        )
        for _ in range(20):
            assert node.decide(v) == 2

    def test_one_bit_listens(self):
        node = BitConvergenceNode(0, UID(9), id_tag=(1 << CFG.k) - 1, config=CFG)
        rng = np.random.default_rng(0)
        node.choose_tag(1, rng)
        v = RoundView(
            local_round=1,
            neighbors=np.array([1]),
            neighbor_tags=np.array([0]),
            rng=rng,
        )
        assert node.decide(v) is None

    def test_tag_width_validated(self):
        with pytest.raises(ValueError):
            BitConvergenceNode(0, UID(1), id_tag=1 << CFG.k, config=CFG)


class TestReferenceConvergence:
    def test_elects_min_pair_uid(self):
        g = families.random_regular(12, 3, seed=0)
        us = UIDSpace(g.n, seed=1)
        cfg = BitConvergenceConfig(n_upper=g.n, delta_bound=3, beta=1.0)
        nodes = make_bit_convergence_nodes(us, cfg, seed=2, unique_tags=True)
        winner = min(nodes, key=lambda nd: nd.committed_pair).uid
        eng = ReferenceEngine(StaticDynamicGraph(g), nodes, seed=3)
        res = eng.run(100_000, all_leaders_are(winner))
        assert res.stabilized


class TestVectorizedConvergence:
    @pytest.mark.parametrize(
        "graph,delta",
        [
            (families.clique(16), 15),
            (families.double_star(6), 7),
            (families.random_regular(16, 4, seed=0), 4),
        ],
        ids=["clique", "double_star", "regular"],
    )
    def test_converges_static(self, graph, delta):
        keys = uid_keys_random(graph.n, 0)
        cfg = BitConvergenceConfig(n_upper=graph.n, delta_bound=delta, beta=1.0)
        eng = VectorizedEngine(
            StaticDynamicGraph(graph),
            BitConvergenceBatched(keys, cfg, tag_seed=1, unique_tags=True),
            seed=2,
        )
        res = eng.run(200_000)
        assert res.stabilized
        assert (eng.algo.leaders(eng.state)[0] == eng.state.target_key[0]).all()

    def test_converges_under_tau1_churn(self):
        base = families.random_regular(16, 4, seed=0)
        keys = uid_keys_random(16, 0)
        cfg = BitConvergenceConfig(n_upper=16, delta_bound=4, beta=1.0)
        eng = VectorizedEngine(
            PeriodicRelabelDynamicGraph(base, 1, seed=5),
            BitConvergenceBatched(keys, cfg, tag_seed=1, unique_tags=True),
            seed=2,
        )
        assert eng.run(200_000).stabilized

    def test_winner_is_min_pair_not_min_key(self):
        """Leadership goes to the minimum (tag, uid) pair — the random tag
        decides, with UID only as tie-break (paper Section VII)."""
        n = 16
        keys = uid_keys_random(n, 0)
        cfg = BitConvergenceConfig(n_upper=n, delta_bound=15, beta=1.0)
        algo = BitConvergenceBatched(keys, cfg, tag_seed=1, unique_tags=True)
        eng = VectorizedEngine(StaticDynamicGraph(families.clique(n)), algo, seed=2)
        res = eng.run(100_000)
        assert res.stabilized
        tags0 = draw_id_tags(n, cfg, 1, unique=True)
        win = np.lexsort((keys, tags0))[0]
        assert eng.state.target_key == keys[win]


class TestLemmaVII1Invariants:
    def _run_collecting(self, seed):
        g = families.random_regular(16, 4, seed=seed)
        keys = uid_keys_random(16, seed)
        cfg = BitConvergenceConfig(n_upper=16, delta_bound=4, beta=1.0)
        algo = BitConvergenceBatched(keys, cfg, tag_seed=seed, unique_tags=True)
        eng = VectorizedEngine(StaticDynamicGraph(g), algo, seed=seed)
        history = []
        for r in range(1, 4000):
            eng.step(r)
            if r % cfg.phase_len == 0:  # phase boundary snapshots
                history.append(
                    (
                        algo.max_difference_bit(eng.state)[0],
                        algo.zero_set_size(eng.state)[0],
                    )
                )
            if algo.converged(eng.state):
                break
        return history

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_max_difference_bit_monotone(self, seed):
        history = self._run_collecting(seed)
        bis = [b for b, _ in history]
        # Property 1-2: b_i non-decreasing, bottom (None) is absorbing.
        seen_bottom = False
        prev = 0
        for b in bis:
            if b is None:
                seen_bottom = True
            else:
                assert not seen_bottom, "b_i regressed from ⊥"
                assert b >= prev
                prev = b

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_zero_set_never_shrinks_within_bit(self, seed):
        history = self._run_collecting(seed)
        prev_bit, prev_size = None, None
        for b, size in history:
            if b is not None and b == prev_bit:
                assert size >= prev_size
            prev_bit, prev_size = b, size

    def test_committed_pairs_monotone_nonincreasing(self):
        g = families.random_regular(16, 4, seed=9)
        keys = uid_keys_random(16, 9)
        cfg = BitConvergenceConfig(n_upper=16, delta_bound=4, beta=1.0)
        algo = BitConvergenceBatched(keys, cfg, tag_seed=9, unique_tags=True)
        eng = VectorizedEngine(StaticDynamicGraph(g), algo, seed=9)
        prev_t = eng.state.ctag.copy()
        prev_k = eng.state.ckey.copy()
        for r in range(1, 2000):
            eng.step(r)
            improved = (eng.state.ctag < prev_t) | (
                (eng.state.ctag == prev_t) & (eng.state.ckey <= prev_k)
            )
            assert improved.all()
            prev_t, prev_k = eng.state.ctag.copy(), eng.state.ckey.copy()
            if algo.converged(eng.state):
                break


class _NeverReuse(PickMemo):
    """A memo that always misses: every masked pick builds afresh."""

    __slots__ = ()

    def lookup(self, *inputs):
        return None


class TestBatchedPickReuse:
    """Bit convergence's eligibility holds for a group of rounds, so the
    batched engine reuses one masked-pick build across it.  A batch that
    reuses must equal, round by round, one that rebuilds every round."""

    @staticmethod
    def engine():
        g = families.random_regular(64, 4, seed=3)
        cfg = BitConvergenceConfig(n_upper=64, delta_bound=4, beta=1.0)
        algo = BitConvergenceBatched(uid_keys_random(64, 3), cfg, unique_tags=True)
        return BatchedVectorizedEngine(
            StaticDynamicGraph(g), algo, seeds=[1, 2, 3, 4], collect_trace=True
        )

    def test_reuse_matches_rebuild_round_by_round(self):
        reuse, rebuild = self.engine(), self.engine()
        rebuild._pick_memo = _NeverReuse()
        held = []
        for r in range(1, 241):
            reuse.step(r)
            rebuild.step(r)
            for name in ("ctag", "ckey", "ptag", "pkey"):
                assert np.array_equal(
                    getattr(reuse.state, name), getattr(rebuild.state, name)
                ), (r, name)
            assert np.array_equal(reuse.connections_made, rebuild.connections_made)
            assert (
                reuse._rng.bit_generator.state == rebuild._rng.bit_generator.state
            ), r
            index = reuse._pick_memo.index
            if index is not None and not any(index is h for h in held):
                held.append(index)
        assert 1 < len(held) < 240 // 2  # the build really was reused
        for t in range(4):
            assert traces_equal(reuse.trace.replica(t), rebuild.trace.replica(t))

    def test_run_matches_and_drops_the_build(self):
        reuse, rebuild = self.engine(), self.engine()
        rebuild._pick_memo = _NeverReuse()
        a, b = reuse.run(20_000), rebuild.run(20_000)
        assert a.stabilized.all()
        assert np.array_equal(a.rounds, b.rounds)
        for t in range(4):
            assert traces_equal(reuse.trace.replica(t), rebuild.trace.replica(t))
        assert reuse._pick_memo.index is None
