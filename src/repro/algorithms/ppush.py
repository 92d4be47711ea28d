"""PPUSH ("productive PUSH") rumor spreading at ``b = 1`` (paper Section V).

The strategy from Ghaffari-Newport that the bit convergence algorithms
deploy as a subroutine: at the beginning of each round a node advertises
tag 0 if it knows the rumor and tag 1 otherwise.  A 1-advertiser only
receives.  A 0-advertiser (informed) chooses a neighbor advertising 1 (if
any) uniformly at random and proposes; a successful connection transfers
the rumor.

Theorem V.2 bounds its short-term productivity: across a cut with a
matching of size ``m``, ``r ≤ log Δ`` stable rounds inform at least
``m / f(r)`` new nodes with constant probability, where
``f(r) = Δ^{1/r}·c·r·log n``.
"""

from __future__ import annotations

import numpy as np

from repro.core.batched import BatchedAlgorithm
from repro.core.payload import Message, UID
from repro.core.protocol import RoundView, RumorProtocol

__all__ = ["PPushNode", "PPushBatched", "make_ppush_nodes"]

#: Tag advertised by informed nodes (paper: informed → 0, uninformed → 1).
TAG_INFORMED = 0
TAG_UNINFORMED = 1


class PPushNode(RumorProtocol):
    """Per-node PPUSH state machine (reference semantics)."""

    tag_length = 1

    def __init__(self, node_id: int, uid: UID, informed: bool):
        super().__init__(node_id, uid)
        self._informed = bool(informed)
        self._source = bool(informed)  # initial status, for fault resets

    @property
    def informed(self) -> bool:
        return self._informed

    def choose_tag(self, local_round: int, rng: np.random.Generator) -> int:
        return TAG_INFORMED if self._informed else TAG_UNINFORMED

    def decide(self, view: RoundView) -> int | None:
        if not self._informed:
            return None  # 1-advertisers only receive
        candidates = view.neighbors[view.neighbor_tags == TAG_UNINFORMED]
        if candidates.size == 0:
            return None
        return int(candidates[view.rng.integers(0, candidates.size)])

    def compose(self, peer: int) -> Message:
        return Message(extra_bits=1, data=self._informed)

    def deliver(self, peer: int, message: Message) -> None:
        if message.data is True:
            self._informed = True

    # -- fault hooks -------------------------------------------------------

    def reset(self) -> None:
        self._informed = self._source

    def corrupt(self, rng: np.random.Generator, n: int) -> None:
        # Corruption knocks the node back to its initial status (see
        # PushPullNode.corrupt for the rationale).
        self._informed = self._source


def make_ppush_nodes(uid_space, sources: set[int]) -> list[PPushNode]:
    """One node per vertex; vertices in ``sources`` start informed."""
    return [
        PPushNode(v, uid_space.uid_of(v), informed=v in sources)
        for v in range(len(uid_space))
    ]


class PPushBatched(BatchedAlgorithm):
    """Array-kernel PPUSH for every array engine."""

    tag_length = 1

    def __init__(self, sources: np.ndarray):
        self._sources = np.asarray(sources, dtype=np.int64)
        if self._sources.size == 0:
            raise ValueError("need at least one source")

    class State:
        __slots__ = ("informed",)

        def __init__(self, informed: np.ndarray):
            self.informed = informed

    def init_state(self, n: int, seeds: np.ndarray) -> "PPushBatched.State":
        informed = np.zeros((len(seeds), n), dtype=bool)
        informed[:, self._sources] = True
        return self.State(informed)

    def tags(self, state, local_rounds, active, rng) -> np.ndarray:
        return np.where(state.informed, TAG_INFORMED, TAG_UNINFORMED).astype(np.int64)

    def senders(self, state, tags, local_rounds, active, rng) -> np.ndarray:
        return state.informed.copy()

    def receiver_mask(self, state, tags) -> np.ndarray:
        # Informed senders target only neighbors advertising "uninformed".
        return tags == TAG_UNINFORMED

    def exchange(self, state, proposers, acceptors) -> None:
        # Proposers are informed by construction; acceptors learn the rumor.
        state.informed.reshape(-1)[acceptors] = True

    def converged(self, state) -> np.ndarray:
        return state.informed.all(axis=1)

    def node_done(self, state) -> np.ndarray:
        return state.informed

    def corrupt_state(self, state, victims, rng) -> None:
        rows = np.arange(victims.shape[0])[:, None]
        state.informed[rows, victims] = np.isin(victims, self._sources)

    def reset_nodes(self, state, nodes, rng) -> None:
        state.informed[:, nodes] = np.isin(nodes, self._sources)[None, :]

    def observable(self, state) -> np.ndarray:
        # An adaptive adversary may watch who is informed.
        return state.informed

    def informed_count(self, state) -> np.ndarray:
        """Informed nodes per replica (for per-round progress metrics)."""
        return state.informed.sum(axis=1)
