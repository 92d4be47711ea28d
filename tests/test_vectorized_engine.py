"""Tests for the vectorized engine: same model semantics as the reference."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batched import BatchedAlgorithm
from repro.core.vectorized import VectorizedEngine
from repro.graphs import families
from repro.graphs.dynamic import StaticDynamicGraph


class RecordingAlgo(BatchedAlgorithm):
    """Everyone flips a coin to send; connections are recorded."""

    tag_length = 0

    def __init__(self, send_prob=0.5):
        self.send_prob = send_prob
        self.connections: list[tuple[int, int, int]] = []  # (round-ish, s, t)
        self._round = 0

    class State:
        def __init__(self, n):
            self.n = n
            self.done = False

    def init_state(self, n, seeds):
        return self.State(n)

    def senders(self, state, tags, local_rounds, active, rng):
        return rng.random((1, state.n)) < self.send_prob

    def exchange(self, state, proposers, acceptors):
        self._round += 1
        for s, t in zip(proposers, acceptors):
            self.connections.append((self._round, int(s), int(t)))

    def converged(self, state):
        return np.array([state.done])


class TestVectorizedMechanics:
    def test_connections_are_disjoint_pairs(self):
        algo = RecordingAlgo()
        eng = VectorizedEngine(
            StaticDynamicGraph(families.clique(10)), algo, seed=0
        )
        eng.run(30, check_every=31)
        by_round: dict[int, list[int]] = {}
        for r, s, t in algo.connections:
            by_round.setdefault(r, []).extend([s, t])
        for r, nodes in by_round.items():
            assert len(nodes) == len(set(nodes))

    def test_connections_follow_edges(self):
        g = families.ring(10)
        algo = RecordingAlgo()
        eng = VectorizedEngine(StaticDynamicGraph(g), algo, seed=0)
        eng.run(30, check_every=31)
        for _, s, t in algo.connections:
            assert g.has_edge(s, t)

    def test_all_send_no_connections(self):
        algo = RecordingAlgo(send_prob=1.1)  # everyone always sends
        eng = VectorizedEngine(
            StaticDynamicGraph(families.clique(8)), algo, seed=0
        )
        eng.run(10, check_every=11)
        assert algo.connections == []

    def test_on_connections_callback(self):
        algo = RecordingAlgo()
        eng = VectorizedEngine(
            StaticDynamicGraph(families.clique(8)), algo, seed=0
        )
        seen = []
        eng.on_connections = lambda r, s, t: seen.append((r, s.size))
        eng.run(5, check_every=6)
        assert len(seen) == 5
        assert [r for r, _ in seen] == [1, 2, 3, 4, 5]

    def test_activation_gates_participation(self):
        g = families.path(3)
        algo = RecordingAlgo(send_prob=1.1)

        class HalfSend(RecordingAlgo):
            def senders(self, state, tags, local_rounds, active, rng):
                # Node 0 and 2 always send; node 1 listens.
                mask = np.array([[True, False, True]])
                return mask

        algo = HalfSend()
        eng = VectorizedEngine(
            StaticDynamicGraph(g), algo, seed=0, activation_rounds=[1, 3, 1]
        )
        eng.run(2, check_every=3)
        # Node 1 inactive in rounds 1-2: no possible connection.
        assert algo.connections == []
        eng2 = VectorizedEngine(
            StaticDynamicGraph(g), HalfSend(), seed=0, activation_rounds=[1, 1, 1]
        )
        algo2 = eng2.algo
        eng2.run(2, check_every=3)
        assert algo2.connections != []

    def test_shared_last_active_is_read_only(self):
        """All-active rounds hand every consumer one all-True mask; writing
        into it raises instead of corrupting the next round."""
        eng = VectorizedEngine(
            StaticDynamicGraph(families.clique(6)), RecordingAlgo(), seed=0
        )
        eng.step(1)
        shared = eng.last_active
        assert shared.all() and not shared.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = False
        eng.step(2)
        assert eng.last_active is shared and shared.all()

    def test_staggered_activation_masks_then_shares(self):
        eng = VectorizedEngine(
            StaticDynamicGraph(families.clique(4)),
            RecordingAlgo(),
            seed=0,
            activation_rounds=[1, 3, 1, 2],
        )
        eng.step(1)
        assert eng.last_active.tolist() == [True, False, True, False]
        eng.step(2)
        assert eng.last_active.tolist() == [True, False, True, True]
        eng.step(3)
        assert eng.last_active.all() and not eng.last_active.flags.writeable

    def test_run_result_counts(self):
        algo = RecordingAlgo()
        eng = VectorizedEngine(
            StaticDynamicGraph(families.ring(6)), algo, seed=0,
            activation_rounds=[1, 1, 1, 2, 1, 1],
        )
        res = eng.run(10, check_every=11)
        assert res.rounds == 10
        assert res.rounds_after_last_activation == 9
        assert not res.stabilized

    def test_convergence_stops_early(self):
        algo = RecordingAlgo()

        class StopAt3(RecordingAlgo):
            def end_round(self, state, round_index, local_rounds, active, live):
                if round_index >= 3:
                    state.done = True

        eng = VectorizedEngine(
            StaticDynamicGraph(families.ring(6)), StopAt3(), seed=0
        )
        res = eng.run(100)
        assert res.stabilized and res.rounds == 3

    def test_invalid_activation_rejected(self):
        with pytest.raises(ValueError):
            VectorizedEngine(
                StaticDynamicGraph(families.ring(4)),
                RecordingAlgo(),
                activation_rounds=[0, 1, 1, 1],
            )

    def test_max_rounds_validation(self):
        eng = VectorizedEngine(
            StaticDynamicGraph(families.ring(4)), RecordingAlgo(), seed=0
        )
        with pytest.raises(ValueError):
            eng.run(0)

    def test_deterministic_given_seed(self):
        def run_once():
            algo = RecordingAlgo()
            eng = VectorizedEngine(
                StaticDynamicGraph(families.clique(8)), algo, seed=4
            )
            eng.run(10, check_every=11)
            return algo.connections

        assert run_once() == run_once()


class TestReproducibleIdTags:
    """Kernels built without ``tag_seed`` draw ID tags from the trial seed,
    so two engines with one seed agree."""

    @staticmethod
    def _algo(name, n):
        from repro.algorithms import (
            AsyncBitConvergenceBatched,
            BitConvergenceBatched,
            BitConvergenceConfig,
            ConsensusBatched,
        )
        from repro.harness.experiments import uid_keys_random

        keys = uid_keys_random(n, 1)
        cfg = BitConvergenceConfig(n_upper=n, delta_bound=4, beta=1.0)
        if name == "bit_convergence":
            return BitConvergenceBatched(keys, cfg, unique_tags=True)
        if name == "async_bit_convergence":
            return AsyncBitConvergenceBatched(keys, cfg, unique_tags=True)
        return ConsensusBatched(keys, cfg, np.arange(n), unique_tags=True)

    @pytest.mark.parametrize(
        "name", ["bit_convergence", "async_bit_convergence", "consensus"]
    )
    def test_same_seed_same_run(self, name):
        from repro.algorithms import BitConvergenceConfig, draw_id_tags

        n = 16
        g = families.random_regular(n, 4, seed=2)
        runs = []
        for _ in range(2):
            eng = VectorizedEngine(StaticDynamicGraph(g), self._algo(name, n), seed=5)
            tags = eng.state.ctag[0].copy()
            res = eng.run(200_000)
            runs.append((tags, res.rounds, eng.state.ckey[0].copy()))
        (t0, r0, k0), (t1, r1, k1) = runs
        cfg = BitConvergenceConfig(n_upper=n, delta_bound=4, beta=1.0)
        assert np.array_equal(t0, draw_id_tags(n, cfg, 5, unique=True))
        assert np.array_equal(t0, t1)
        assert r0 == r1 and np.array_equal(k0, k1)
