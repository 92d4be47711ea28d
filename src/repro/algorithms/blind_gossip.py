"""Blind gossip leader election (paper Section VI; ``b = 0``, any ``τ ≥ 1``).

The algorithm, verbatim from the paper: each round, every node flips a
fair coin to decide whether to *send* or *receive* connection proposals.
A sender picks a neighbor uniformly at random; a receiver accepts one
incoming proposal uniformly at random (model behavior).  Connected nodes
trade the smallest UIDs they have seen so far and both keep the minimum,
which is also their ``leader`` variable.

Theorem VI.1: stabilizes in ``O((1/α)·Δ²·log² n)`` rounds w.h.p., even
with ``τ = 1``.  Section VI also shows a stable network (the line of
stars) where this algorithm needs ``Ω(Δ²/√α)`` rounds.

Because no advertising is available (``b = 0``) and the rule is symmetric,
this protocol also makes no assumption about synchronized starts — its
analysis carries over to asynchronous activations (paper footnote 2).
"""

from __future__ import annotations

import numpy as np

from repro.core.batched import BatchedAlgorithm
from repro.core.payload import Message, UID, UIDSpace
from repro.core.protocol import LeaderElectionProtocol, RoundView
from repro.core.vectorized import VectorizedAlgorithm
from repro.util.csrops import all_distinct

__all__ = [
    "BlindGossipNode",
    "BlindGossipVectorized",
    "BlindGossipBatched",
    "make_blind_gossip_nodes",
]


class BlindGossipNode(LeaderElectionProtocol):
    """Per-node blind gossip state machine (reference semantics)."""

    tag_length = 0

    def __init__(self, node_id: int, uid: UID):
        super().__init__(node_id, uid)
        self._best = uid  # smallest UID received so far, including our own

    @property
    def leader(self) -> UID:
        return self._best

    def decide(self, view: RoundView) -> int | None:
        # Fair coin: heads → send to a uniform neighbor, tails → receive.
        if view.neighbors.size == 0 or view.rng.random() < 0.5:
            return None
        return int(view.neighbors[view.rng.integers(0, view.neighbors.size)])

    def compose(self, peer: int) -> Message:
        return Message(uids=(self._best,), data=self._best)

    def deliver(self, peer: int, message: Message) -> None:
        received = message.data
        if isinstance(received, UID) and received < self._best:
            self._best = received

    # -- fault hooks -------------------------------------------------------

    def reset(self) -> None:
        self._best = self.uid

    def corrupt(self, rng: np.random.Generator, n: int) -> None:
        self._best = UID(int(rng.integers(0, 10 * n)))


def make_blind_gossip_nodes(uid_space: UIDSpace) -> list[BlindGossipNode]:
    """One :class:`BlindGossipNode` per vertex of ``uid_space``."""
    return [BlindGossipNode(v, uid_space.uid_of(v)) for v in range(len(uid_space))]


class BlindGossipVectorized(VectorizedAlgorithm):
    """Array-kernel blind gossip for the vectorized engine.

    Operates on the simulator-internal integer UID keys (the black-box
    abstraction is a property of the *protocol* API; engine-level kernels
    are trusted simulator code).
    """

    tag_length = 0
    # Doneness (best == target) is absorbing, decided per node, and only
    # changes through exchanges; exchanges between done nodes are no-ops.
    sparse_compatible = True
    quiescent_when_done = True

    def __init__(self, uid_keys: np.ndarray):
        self._keys = np.asarray(uid_keys, dtype=np.int64)
        if not all_distinct(self._keys):
            raise ValueError("UID keys must be unique")

    class State:
        __slots__ = ("best", "target")

        def __init__(self, best: np.ndarray, target: int):
            self.best = best
            self.target = target

    def init_state(self, n: int, rng: np.random.Generator) -> "BlindGossipVectorized.State":
        if self._keys.shape != (n,):
            raise ValueError("uid_keys must have one key per vertex")
        return self.State(self._keys.copy(), int(self._keys.min()))

    def tags(self, state, local_rounds, active, rng) -> np.ndarray:
        return np.zeros(active.shape[0], dtype=np.int64)

    def senders(self, state, tags, local_rounds, active, rng) -> np.ndarray:
        return rng.random(active.shape[0]) < 0.5

    def sparse_senders(self, state, rows, rng) -> np.ndarray:
        return rng.random(rows.shape[0]) < 0.5

    def node_done_subset(self, state, nodes) -> np.ndarray:
        return state.best[nodes] == state.target

    def exchange(self, state, proposers: np.ndarray, acceptors: np.ndarray) -> None:
        lo = np.minimum(state.best[proposers], state.best[acceptors])
        state.best[proposers] = lo
        state.best[acceptors] = lo

    def converged(self, state) -> bool:
        return bool((state.best == state.target).all())

    def node_done(self, state) -> np.ndarray:
        return state.best == state.target

    def corrupt_state(self, state, victims, rng) -> None:
        state.best[victims] = rng.integers(0, 10 * self._keys.size, size=victims.size)
        # The eventual winner is the min over the *corrupted* state.
        state.target = int(state.best.min())

    def reset_nodes(self, state, nodes, rng) -> None:
        state.best[nodes] = self._keys[nodes]
        state.target = int(state.best.min())

    def observable(self, state):
        # An adaptive adversary may watch who already holds the minimum.
        return state.best == state.target

    def leaders(self, state) -> np.ndarray:
        """Current leader key per node (for instrumentation)."""
        return state.best


class BlindGossipBatched(BatchedAlgorithm):
    """Replica-batched blind gossip for the batched engine.

    Same kernel as :class:`BlindGossipVectorized` with a leading replica
    axis; every replica shares the UID assignment (the trial axis varies
    only the randomness, exactly as ``run_trials`` does).
    """

    tag_length = 0
    # Same absorbing per-node doneness as the vectorized kernel, replica-wise.
    sparse_compatible = True

    def __init__(self, uid_keys: np.ndarray):
        self._keys = np.asarray(uid_keys, dtype=np.int64)
        if not all_distinct(self._keys):
            raise ValueError("UID keys must be unique")

    class State:
        __slots__ = ("best", "target")

        def __init__(self, best: np.ndarray, target: int):
            self.best = best
            self.target = target

    def init_state(self, n: int, seeds: np.ndarray) -> "BlindGossipBatched.State":
        if self._keys.shape != (n,):
            raise ValueError("uid_keys must have one key per vertex")
        best = np.tile(self._keys, (len(seeds), 1))
        return self.State(best, int(self._keys.min()))

    # tags: inherited None (b = 0, no advertising).

    def senders(self, state, tags, local_rounds, active, rng) -> np.ndarray:
        return rng.random(state.best.shape) < 0.5

    def sparse_senders_flat(self, state, flat_rows, rng) -> np.ndarray:
        return rng.random(flat_rows.shape[0]) < 0.5

    def node_done_subset_flat(self, state, flat_rows, n) -> np.ndarray:
        best = state.best.reshape(-1)[flat_rows]
        target = state.target
        if isinstance(target, np.ndarray):
            # Post-corruption per-replica (T, 1) targets.
            return best == np.broadcast_to(target, state.best.shape).reshape(-1)[flat_rows]
        return best == target

    def exchange(self, state, rep, proposers, acceptors) -> None:
        lo = np.minimum(state.best[rep, proposers], state.best[rep, acceptors])
        state.best[rep, proposers] = lo
        state.best[rep, acceptors] = lo

    def converged(self, state) -> np.ndarray:
        return (state.best == state.target).all(axis=1)

    def node_done(self, state) -> np.ndarray:
        return state.best == state.target

    def corrupt_state(self, state, victims, rng) -> None:
        rows = np.arange(victims.shape[0])[:, None]
        state.best[rows, victims] = rng.integers(
            0, 10 * self._keys.size, size=victims.shape
        )
        # Per-replica winner: (T, 1) broadcasts in `converged`.
        state.target = state.best.min(axis=1, keepdims=True)

    def reset_nodes(self, state, nodes, rng) -> None:
        state.best[:, nodes] = self._keys[nodes]
        state.target = state.best.min(axis=1, keepdims=True)

    def observable(self, state) -> np.ndarray:
        return state.best == state.target

    def leaders(self, state) -> np.ndarray:
        """Current leader key per node per replica (for instrumentation)."""
        return state.best
