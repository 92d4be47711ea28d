"""Failure injection: transient state corruption and recovery.

The mobile telephone model has no crash faults, but Section VIII's
algorithm is *self-stabilizing*: correctness references only the current
state, never history.  These tests inject transient faults mid-run —
arbitrary corruption of nodes' smallest-ID-pair state, late activations,
adversarial merges — and assert the executions still stabilize, to the
minimum over the *post-corruption* state (the semilattice the algorithms
compute over).

Corruption is injected declaratively through
:class:`~repro.faults.plan.StateCorruptionEvent` (the engines call the
algorithm's ``corrupt_state`` hook at the scheduled round and gate
convergence checks past it); only the duplicate-tag deadlock test still
mutates state by hand, because it needs a *specific* adversarial
corruption — a duplicated minimum tag — that the uniform fault model
deliberately avoids.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.async_bit_convergence import AsyncBitConvergenceBatched
from repro.algorithms.bit_convergence import BitConvergenceConfig
from repro.algorithms.blind_gossip import BlindGossipBatched
from repro.core.vectorized import VectorizedEngine
from repro.faults import FaultPlan, StateCorruptionEvent
from repro.graphs import families
from repro.graphs.dynamic import StaticDynamicGraph
from repro.harness.experiments import uid_keys_random


class TestBlindGossipCorruption:
    def test_recovers_from_best_corruption(self):
        """Arbitrarily corrupting `best` values mid-run cannot prevent
        stabilization: min-gossip re-converges to the post-corruption min."""
        n = 16
        keys = uid_keys_random(n, 0)
        algo = BlindGossipBatched(keys)
        # Transient fault: a third of the nodes get arbitrary values at
        # round 30; the semilattice target becomes the post-corruption min.
        plan = FaultPlan(
            state_corruption=(StateCorruptionEvent(round=30, fraction=1 / 3),)
        )
        eng = VectorizedEngine(
            StaticDynamicGraph(families.random_regular(n, 4, seed=0)),
            algo,
            seed=1,
            fault_plan=plan,
        )
        res = eng.run(50_000)
        assert res.stabilized
        assert res.rounds >= 30  # verdicts are gated past the event
        assert algo.converged(eng.state)
        assert (eng.state.best == eng.state.target).all()


class TestAsyncBitConvergenceCorruption:
    def _corrupted_run(self, seed, corrupt_fraction=0.3):
        """Corrupt victims to arbitrary (tag, key) pairs at round 40 — as
        if they rebooted with stale or garbage state.  The algorithm's
        ``corrupt_state`` hook keeps replacement tags distinct from every
        tag in the network: a duplicated *minimum* tag is the documented
        collision deadlock (covered by its own test below), not a
        recoverable fault."""
        n = 16
        cfg = BitConvergenceConfig(n_upper=n, delta_bound=4, beta=1.0)
        keys = uid_keys_random(n, seed)
        algo = AsyncBitConvergenceBatched(keys, cfg, tag_seed=seed, unique_tags=True)
        plan = FaultPlan(
            state_corruption=(
                StateCorruptionEvent(round=40, fraction=corrupt_fraction),
            )
        )
        eng = VectorizedEngine(
            StaticDynamicGraph(families.random_regular(n, 4, seed=seed)),
            algo,
            seed=seed,
            fault_plan=plan,
        )
        res = eng.run(500_000)
        return res.stabilized, eng

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_recovers_from_pair_corruption(self, seed):
        ok, eng = self._corrupted_run(seed)
        assert ok
        assert (eng.state.ctag == eng.state.target_tag).all()
        assert (eng.state.ckey == eng.state.target_key).all()

    def test_recovers_from_total_corruption(self):
        """Even corrupting every node's state is just a new initial state."""
        ok, _ = self._corrupted_run(seed=5, corrupt_fraction=1.0)
        assert ok

    def test_corruption_with_duplicate_tags_can_block_and_is_detected(self):
        """A corruption that duplicates the minimum tag across different
        UIDs recreates the collision deadlock — the algorithm's documented
        limit, not silent wrong behaviour: leaders simply never agree."""
        n = 8
        cfg = BitConvergenceConfig(n_upper=n, delta_bound=3, beta=1.0)
        keys = uid_keys_random(n, 3)
        algo = AsyncBitConvergenceBatched(keys, cfg, tag_seed=3, unique_tags=True)
        eng = VectorizedEngine(
            StaticDynamicGraph(families.random_regular(n, 3, seed=3)), algo, seed=3
        )
        eng.step(1)
        # Force two nodes to share the minimal tag with different keys.
        eng.state.ctag[:] = 5
        eng.state.ckey[0, 0] = 1
        eng.state.ckey[0, 1] = 2
        eng.state.ckey[0, 2:] = np.arange(3, n + 1)
        eng.state.target_tag, eng.state.target_key = np.array([5]), np.array([1])
        for r in range(2, 3000):
            eng.step(r)
        # Identical tags advertise identical bits: node 1 can never adopt
        # (5, 1), so convergence never completes.
        assert not algo.converged(eng.state)[0]
        assert eng.state.ckey[0, 1] == 2


class TestLateJoiners:
    def test_nodes_activating_after_convergence(self):
        """Late activations are a failure mode the async variant absorbs:
        the network re-stabilizes after stragglers join."""
        n = 12
        cfg = BitConvergenceConfig(n_upper=n, delta_bound=4, beta=1.0)
        keys = uid_keys_random(n, 4)
        algo = AsyncBitConvergenceBatched(keys, cfg, tag_seed=4, unique_tags=True)
        act = np.ones(n, dtype=np.int64)
        act[[3, 7]] = 4000  # two stragglers join much later
        eng = VectorizedEngine(
            StaticDynamicGraph(families.random_regular(n, 4, seed=4)),
            algo,
            seed=4,
            activation_rounds=act,
        )
        res = eng.run(500_000)
        assert res.stabilized
        assert res.rounds >= 4000  # cannot stabilize before stragglers exist
        assert res.rounds_after_last_activation < res.rounds
