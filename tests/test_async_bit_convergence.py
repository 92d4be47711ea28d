"""Tests for non-synchronized bit convergence (Section VIII).

Includes the Lemma VIII.1 prefix-lock invariant (once a node's smallest
tag agrees with the global minimum tag on its first ``i`` bits, that
agreement is permanent) and the self-stabilization behaviour.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.async_bit_convergence import (
    AsyncBitConvergenceNode,
    AsyncBitConvergenceBatched,
    async_tag_length,
    make_async_bit_convergence_nodes,
)
from repro.algorithms.bit_convergence import BitConvergenceConfig, draw_id_tags
from repro.core.engine import ReferenceEngine
from repro.core.monitor import all_leaders_are
from repro.core.payload import IDPair, Message, UID, UIDSpace
from repro.core.protocol import RoundView
from repro.core.vectorized import VectorizedEngine
from repro.graphs import families
from repro.graphs.dynamic import PeriodicRelabelDynamicGraph, StaticDynamicGraph
from repro.harness.experiments import uid_keys_random


CFG = BitConvergenceConfig(n_upper=16, delta_bound=4, beta=1.0)  # k = 4


class TestTagEncoding:
    def test_tag_length_formula(self):
        assert async_tag_length(4) == 3  # ceil(log 8)
        assert async_tag_length(8) == 4
        assert async_tag_length(1) == 1

    def test_advertised_tag_encodes_position_and_bit(self):
        node = AsyncBitConvergenceNode(0, UID(1), id_tag=0b1000, config=CFG)
        rng = np.random.default_rng(0)
        tag = node.choose_tag(1, rng)
        pos = (tag >> 1) + 1
        bit = tag & 1
        assert 1 <= pos <= CFG.k
        # Bit must match position pos of tag 0b1000 (MSB-first).
        expected = (0b1000 >> (CFG.k - pos)) & 1
        assert bit == expected

    def test_tag_fits_declared_width(self):
        node = AsyncBitConvergenceNode(0, UID(1), id_tag=5, config=CFG)
        rng = np.random.default_rng(0)
        for r in range(1, 100):
            assert 0 <= node.choose_tag(r, rng) < (1 << node.tag_length)

    def test_position_fixed_within_group(self):
        node = AsyncBitConvergenceNode(0, UID(1), id_tag=5, config=CFG)
        rng = np.random.default_rng(0)
        gl = CFG.group_len
        positions = []
        for r in range(1, 3 * gl + 1):
            tag = node.choose_tag(r, rng)
            positions.append((tag >> 1) + 1)
        for g in range(3):
            group = positions[g * gl : (g + 1) * gl]
            assert len(set(group)) == 1

    def test_positions_vary_across_groups(self):
        node = AsyncBitConvergenceNode(0, UID(1), id_tag=5, config=CFG)
        rng = np.random.default_rng(1)
        gl = CFG.group_len
        firsts = {node.choose_tag(1 + g * gl, rng) >> 1 for g in range(30)}
        assert len(firsts) > 1


class TestNodeProtocol:
    def test_immediate_adoption(self):
        node = AsyncBitConvergenceNode(0, UID(9), id_tag=7, config=CFG)
        node.deliver(1, Message(data=IDPair(UID(1), 2)))
        assert node.leader == UID(1)  # no phase buffering in the async variant
        assert node.smallest_pair == IDPair(UID(1), 2)

    def test_larger_pair_rejected(self):
        node = AsyncBitConvergenceNode(0, UID(9), id_tag=7, config=CFG)
        node.deliver(1, Message(data=IDPair(UID(2), 12)))
        assert node.smallest_pair == IDPair(UID(9), 7)

    def test_zero_bit_targets_same_position_ones(self):
        node = AsyncBitConvergenceNode(0, UID(9), id_tag=0, config=CFG)
        rng = np.random.default_rng(0)
        tag = node.choose_tag(1, rng)
        my_pos = (tag >> 1) + 1
        # Neighbors: same position with 1 (eligible), same position with 0,
        # different position with 1.
        other_pos = my_pos % CFG.k + 1
        v = RoundView(
            local_round=1,
            neighbors=np.array([1, 2, 3]),
            neighbor_tags=np.array(
                [
                    (my_pos - 1) * 2 + 1,
                    (my_pos - 1) * 2 + 0,
                    (other_pos - 1) * 2 + 1,
                ]
            ),
            rng=rng,
        )
        for _ in range(20):
            assert node.decide(v) == 1

    def test_one_bit_listens(self):
        node = AsyncBitConvergenceNode(0, UID(9), id_tag=(1 << CFG.k) - 1, config=CFG)
        rng = np.random.default_rng(0)
        node.choose_tag(1, rng)
        v = RoundView(
            local_round=1,
            neighbors=np.array([1]),
            neighbor_tags=np.array([1]),
            rng=rng,
        )
        assert node.decide(v) is None


class TestReferenceConvergence:
    def test_synchronized_starts(self):
        g = families.random_regular(12, 3, seed=0)
        us = UIDSpace(g.n, seed=1)
        cfg = BitConvergenceConfig(n_upper=g.n, delta_bound=3, beta=1.0)
        nodes = make_async_bit_convergence_nodes(us, cfg, seed=2, unique_tags=True)
        winner = min(nodes, key=lambda nd: nd.smallest_pair).uid
        eng = ReferenceEngine(StaticDynamicGraph(g), nodes, seed=3)
        res = eng.run(300_000, all_leaders_are(winner))
        assert res.stabilized

    def test_staggered_activations(self):
        g = families.random_regular(10, 3, seed=4)
        us = UIDSpace(g.n, seed=1)
        cfg = BitConvergenceConfig(n_upper=g.n, delta_bound=3, beta=1.0)
        nodes = make_async_bit_convergence_nodes(us, cfg, seed=2, unique_tags=True)
        winner = min(nodes, key=lambda nd: nd.smallest_pair).uid
        act = [1, 3, 5, 2, 9, 1, 4, 7, 2, 6]
        eng = ReferenceEngine(
            StaticDynamicGraph(g), nodes, seed=3, activation_rounds=act
        )
        res = eng.run(300_000, all_leaders_are(winner))
        assert res.stabilized


class TestVectorizedConvergence:
    def test_converges_static(self):
        n = 16
        keys = uid_keys_random(n, 0)
        algo = AsyncBitConvergenceBatched(keys, CFG, tag_seed=1, unique_tags=True)
        eng = VectorizedEngine(
            StaticDynamicGraph(families.random_regular(n, 4, seed=0)), algo, seed=2
        )
        res = eng.run(500_000)
        assert res.stabilized

    def test_converges_with_staggered_activation(self):
        n = 16
        keys = uid_keys_random(n, 0)
        algo = AsyncBitConvergenceBatched(keys, CFG, tag_seed=1, unique_tags=True)
        act = (np.arange(n) % 7) + 1
        eng = VectorizedEngine(
            StaticDynamicGraph(families.random_regular(n, 4, seed=0)),
            algo,
            seed=2,
            activation_rounds=act,
        )
        res = eng.run(500_000)
        assert res.stabilized
        assert res.rounds_after_last_activation <= res.rounds

    def test_converges_under_churn(self):
        n = 16
        base = families.random_regular(n, 4, seed=3)
        keys = uid_keys_random(n, 0)
        algo = AsyncBitConvergenceBatched(keys, CFG, tag_seed=1, unique_tags=True)
        eng = VectorizedEngine(
            PeriodicRelabelDynamicGraph(base, 2, seed=4), algo, seed=2
        )
        assert eng.run(500_000).stabilized

    def test_smallest_pairs_monotone(self):
        n = 16
        keys = uid_keys_random(n, 0)
        algo = AsyncBitConvergenceBatched(keys, CFG, tag_seed=1, unique_tags=True)
        eng = VectorizedEngine(
            StaticDynamicGraph(families.clique(n)), algo, seed=2
        )
        prev_t, prev_k = eng.state.ctag.copy(), eng.state.ckey.copy()
        for r in range(1, 3000):
            eng.step(r)
            improved = (eng.state.ctag < prev_t) | (
                (eng.state.ctag == prev_t) & (eng.state.ckey <= prev_k)
            )
            assert improved.all()
            prev_t, prev_k = eng.state.ctag.copy(), eng.state.ckey.copy()
            if algo.converged(eng.state):
                break


class TestLemmaVIII1PrefixLock:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_settled_prefix_never_regresses(self, seed):
        n = 16
        keys = uid_keys_random(n, seed)
        algo = AsyncBitConvergenceBatched(keys, CFG, tag_seed=seed, unique_tags=True)
        eng = VectorizedEngine(
            StaticDynamicGraph(families.random_regular(n, 4, seed=seed)),
            algo,
            seed=seed,
        )
        best = 0
        for r in range(1, 20_000):
            eng.step(r)
            cur = algo.settled_prefix(eng.state)[0]
            assert cur >= best, "prefix agreement regressed"
            best = cur
            if best == CFG.k and algo.converged(eng.state):
                break
        assert best == CFG.k


class TestEventTierCrossCheck:
    """The round-embedded simulation vs the real event tier.

    ``make_async_bit_convergence_nodes`` simulates staggered local rounds
    *inside* globally synchronized rounds; the :mod:`repro.asyncsim`
    event tier makes the local rounds real (timer firings under a
    bounded-delay scheduler).  Both must elect the same winner — the
    owner of the smallest (id-tag, uid) pair — on the same configuration.
    """

    @pytest.mark.parametrize("scheduler", ["random", "adversarial"])
    def test_same_winner_as_round_embedding(self, scheduler):
        from repro.asyncsim import EventSimEngine, async_bit_convergence_setup

        g = families.random_regular(12, 3, seed=0)
        us = UIDSpace(g.n, seed=1)
        cfg = BitConvergenceConfig(n_upper=g.n, delta_bound=3, beta=1.0)

        nodes = make_async_bit_convergence_nodes(us, cfg, seed=2, unique_tags=True)
        winner = min(nodes, key=lambda nd: nd.smallest_pair).uid
        eng = ReferenceEngine(StaticDynamicGraph(g), nodes, seed=3)
        sync_res = eng.run(300_000, all_leaders_are(winner))
        assert sync_res.stabilized

        setup = async_bit_convergence_setup(us, cfg, seed=2, unique_tags=True)
        async_eng = EventSimEngine(
            StaticDynamicGraph(g), setup.nodes, seed=3, delta=3,
            scheduler=scheduler, progress=setup.progress,
        )
        async_res = async_eng.run_until(900_000, setup.stop_when, check_every=8)
        assert async_res.stabilized
        assert all(nd.leader == winner for nd in setup.nodes)

    def test_round_embedding_results_pinned(self):
        """Regression pin: the sync-round embedding is bit-unchanged.

        These exact round/connection counts were recorded before the
        event tier existed; any drift means the old simulation path was
        disturbed, which the event-tier port must never do.
        """
        g = families.random_regular(12, 3, seed=0)
        us = UIDSpace(g.n, seed=1)
        cfg = BitConvergenceConfig(n_upper=g.n, delta_bound=3, beta=1.0)
        expected = {3: (129, 21), 4: (109, 31)}
        for engine_seed, (rounds, conns) in expected.items():
            nodes = make_async_bit_convergence_nodes(us, cfg, seed=2, unique_tags=True)
            winner = min(nodes, key=lambda nd: nd.smallest_pair).uid
            eng = ReferenceEngine(StaticDynamicGraph(g), nodes, seed=engine_seed)
            res = eng.run(300_000, all_leaders_are(winner))
            assert res.stabilized
            assert (res.rounds, eng.connections_made) == (rounds, conns)

    def test_vectorized_embedding_results_pinned(self):
        n = 16
        keys = uid_keys_random(n, 0)
        expected = {2: 101, 5: 77}
        for engine_seed, rounds in expected.items():
            algo = AsyncBitConvergenceBatched(keys, CFG, tag_seed=1, unique_tags=True)
            eng = VectorizedEngine(
                StaticDynamicGraph(families.random_regular(n, 4, seed=0)),
                algo,
                seed=engine_seed,
            )
            res = eng.run(500_000)
            assert res.stabilized
            assert res.rounds == rounds


class TestSelfStabilization:
    def test_joined_components_restabilize(self):
        comp_n, degree = 8, 3
        n = 2 * comp_n
        cfg = BitConvergenceConfig(n_upper=n, delta_bound=degree + 1, beta=1.0)
        keys = uid_keys_random(n, 0)
        all_tags = draw_id_tags(n, cfg, 1, unique=True)
        g1 = families.random_regular(comp_n, degree, seed=2)
        g2 = families.random_regular(comp_n, degree, seed=3)
        states = []
        for comp, g, sl in ((0, g1, slice(0, comp_n)), (1, g2, slice(comp_n, n))):
            algo = AsyncBitConvergenceBatched(
                keys[sl], cfg, initial_pairs=(all_tags[sl], keys[sl])
            )
            eng = VectorizedEngine(StaticDynamicGraph(g), algo, seed=4 + comp)
            assert eng.run(500_000).stabilized
            states.append((eng.state.ctag[0].copy(), eng.state.ckey[0].copy()))
        union = g1.union(g2, [(0, 0)])
        init = (
            np.concatenate([states[0][0], states[1][0]]),
            np.concatenate([states[0][1], states[1][1]]),
        )
        algo = AsyncBitConvergenceBatched(keys, cfg, initial_pairs=init)
        eng = VectorizedEngine(StaticDynamicGraph(union), algo, seed=9)
        res = eng.run(500_000)
        assert res.stabilized
        # The winner is the minimum over the *joined* initial pairs.
        order = np.lexsort((init[1], init[0]))
        assert eng.state.target_key == init[1][order[0]]

    def test_initial_pairs_shape_validated(self):
        keys = uid_keys_random(4, 0)
        algo = AsyncBitConvergenceBatched(
            keys, CFG, initial_pairs=(np.zeros(3), np.zeros(3))
        )
        with pytest.raises(ValueError):
            VectorizedEngine(
                StaticDynamicGraph(families.ring(4)), algo, seed=0
            )
