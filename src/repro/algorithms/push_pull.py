"""PUSH-PULL rumor spreading at ``b = 0`` (paper Section VI, Corollary VI.6).

As the paper notes, blind gossip "directly applied to solve the rumor
spreading problem … describes the classical PUSH-PULL strategy" in the
mobile telephone model with no advertising bits: each node coin-flips
between sending and receiving, sends to a uniform neighbor, and a
connection transfers the rumor in whichever direction helps (PUSH if the
proposer knows it, PULL if the acceptor does).

Corollary VI.6 (the open question from Ghaffari-Newport resolved by this
paper): PUSH-PULL completes w.h.p. in ``O((1/α)·Δ²·log² n)`` rounds with
``b = 0`` and any ``τ ≥ 1``.
"""

from __future__ import annotations

import numpy as np

from repro.core.batched import BatchedAlgorithm
from repro.core.payload import Message, UID
from repro.core.protocol import RoundView, RumorProtocol

__all__ = [
    "PushPullNode",
    "PushPullBatched",
    "make_push_pull_nodes",
]


#: Rumor transfer directions: over a connection (proposer, acceptor),
#: "push" lets the rumor cross proposer→acceptor only, "pull" lets it
#: cross acceptor→proposer only, "both" is full PUSH-PULL.
DIRECTIONS = ("both", "push", "pull")


def _check_direction(direction: str) -> str:
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    return direction


class PushPullNode(RumorProtocol):
    """Per-node b=0 PUSH-PULL state machine (reference semantics).

    ``direction`` restricts which way the rumor may cross a connection —
    the PUSH-only / PULL-only ablation (A3); the paper's strategy is
    ``"both"``.
    """

    tag_length = 0

    def __init__(self, node_id: int, uid: UID, informed: bool, direction: str = "both"):
        super().__init__(node_id, uid)
        self._informed = bool(informed)
        self._source = bool(informed)  # initial status, for fault resets
        self._direction = _check_direction(direction)
        self._proposed_to: int | None = None

    @property
    def informed(self) -> bool:
        return self._informed

    def decide(self, view: RoundView) -> int | None:
        self._proposed_to = None
        if view.neighbors.size == 0 or view.rng.random() < 0.5:
            return None
        target = int(view.neighbors[view.rng.integers(0, view.neighbors.size)])
        self._proposed_to = target
        return target

    def compose(self, peer: int) -> Message:
        # The wire always carries the status bit; the *receiver* decides
        # whether its direction permits adopting it.
        return Message(extra_bits=1, data=self._informed)

    def deliver(self, peer: int, message: Message) -> None:
        if message.data is not True:
            return
        i_proposed = self._proposed_to == peer
        if self._direction == "push" and i_proposed:
            return  # push-only: an informed acceptor cannot inform its proposer
        if self._direction == "pull" and not i_proposed:
            return  # pull-only: an informed proposer cannot inform its acceptor
        self._informed = True

    # -- fault hooks -------------------------------------------------------

    def reset(self) -> None:
        self._informed = self._source

    def corrupt(self, rng: np.random.Generator, n: int) -> None:
        # A rumor bit has no arbitrary value to corrupt *to* that keeps
        # "everyone informed" well-defined; corruption knocks the node
        # back to its initial status (sources re-seed the rumor).
        self._informed = self._source


def make_push_pull_nodes(
    uid_space, sources: set[int], direction: str = "both"
) -> list[PushPullNode]:
    """One node per vertex; vertices in ``sources`` start informed."""
    return [
        PushPullNode(v, uid_space.uid_of(v), informed=v in sources, direction=direction)
        for v in range(len(uid_space))
    ]


class PushPullBatched(BatchedAlgorithm):
    """Array-kernel b=0 PUSH-PULL for every array engine.

    ``direction`` restricts rumor flow over a connection (the A3
    ablation): ``"both"`` (the paper's PUSH-PULL), ``"push"``
    (proposer→acceptor only), or ``"pull"`` (acceptor→proposer only).
    """

    tag_length = 0

    def __init__(self, sources: np.ndarray, direction: str = "both"):
        self._sources = np.asarray(sources, dtype=np.int64)
        if self._sources.size == 0:
            raise ValueError("need at least one source")
        self._direction = _check_direction(direction)

    class State:
        __slots__ = ("informed",)

        def __init__(self, informed: np.ndarray):
            self.informed = informed

    def init_state(self, n: int, seeds: np.ndarray) -> "PushPullBatched.State":
        informed = np.zeros((len(seeds), n), dtype=bool)
        informed[:, self._sources] = True
        return self.State(informed)

    # tags: inherited None (b = 0, no advertising).

    def senders(self, state, tags, local_rounds, active, rng) -> np.ndarray:
        return rng.random(state.informed.shape) < 0.5

    def exchange(self, state, proposers, acceptors) -> None:
        informed = state.informed.reshape(-1)
        if self._direction in ("both", "push"):
            # PUSH: informed proposers inform their acceptors.
            informed[acceptors[informed[proposers]]] = True
        if self._direction in ("both", "pull"):
            # PULL: informed acceptors inform their proposers.  Under
            # "both" a newly-pushed acceptor was informed either way.
            informed[proposers[informed[acceptors]]] = True

    def converged(self, state) -> np.ndarray:
        return state.informed.all(axis=1)

    def node_done(self, state) -> np.ndarray:
        return state.informed

    def corrupt_state(self, state, victims, rng) -> None:
        # Corruption knocks victims back to their initial status (see
        # PushPullNode.corrupt): sources re-seed, others forget.
        rows = np.arange(victims.shape[0])[:, None]
        state.informed[rows, victims] = np.isin(victims, self._sources)

    def reset_nodes(self, state, nodes, rng) -> None:
        state.informed[:, nodes] = np.isin(nodes, self._sources)[None, :]

    def observable(self, state) -> np.ndarray:
        return state.informed

    def informed_count(self, state) -> np.ndarray:
        """Informed nodes per replica (for per-round progress metrics)."""
        return state.informed.sum(axis=1)
