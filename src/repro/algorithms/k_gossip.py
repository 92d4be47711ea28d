"""k-gossip (all-to-all rumor spreading): a future-work extension.

The paper's conclusion names gossip among the problems "the model itself
… can be used to study".  This module implements the natural b=0 gossip
strategy in the mobile telephone model:

* every node starts with its own rumor;
* each round every node coin-flips between proposing (to a uniformly
  random neighbor) and receiving, exactly like blind gossip;
* a connection carries **one rumor per direction** — each endpoint picks a
  uniformly random rumor from the set it currently knows (the model's
  O(1)-rumors-per-connection budget);
* complete when every node knows all ``n`` rumors.

This is the classic *random-gossip* dissemination process restricted to
single-connection rounds.  Total rumor copies needed are ``n·(n-1)`` and
each round moves at most ``n`` rumors (≤ n/2 connections × 2 directions),
so ``n - 1`` rounds are an immediate lower bound even on a clique; random
coupon-collector effects and the topology's expansion set the actual
completion time (experiment E16 measures the scaling).
"""

from __future__ import annotations

import numpy as np

from repro.core.batched import BatchedAlgorithm
from repro.util.rng import make_rng

__all__ = ["KGossipBatched"]


class KGossipBatched(BatchedAlgorithm):
    """Array-kernel k-gossip for every array engine.

    State is the boolean knowledge tensor ``known[t, u, r]`` (node ``u``
    of replica ``t`` knows rumor ``r``), so memory is ``T·n²`` bits —
    fine for the sweep sizes the experiments use.
    """

    tag_length = 0

    class State:
        __slots__ = ("known", "rng")

        def __init__(self, known: np.ndarray, rng: np.random.Generator):
            self.known = known
            self.rng = rng  # private stream for the per-connection rumor picks

    def init_state(self, n: int, seeds: np.ndarray) -> "KGossipBatched.State":
        T = len(seeds)
        # One rumor-pick stream per batch: the trial seed's "vec-init"
        # stream at T = 1, keyed on (seeds[0], T) otherwise, like the
        # batched engine's round stream.
        key = () if T == 1 else (T,)
        rng = make_rng(int(seeds[0]), "vec-init", *key)
        return self.State(np.tile(np.eye(n, dtype=bool), (T, 1, 1)), rng)

    # tags: inherited None (b = 0, no advertising).

    def senders(self, state, tags, local_rounds, active, rng) -> np.ndarray:
        return rng.random(state.known.shape[:2]) < 0.5

    @staticmethod
    def _pick_random_known(known: np.ndarray, rows: np.ndarray, rng) -> np.ndarray:
        """One uniformly random known rumor id per row of ``rows``."""
        sub = known[rows]
        counts = sub.sum(axis=1)
        # j-th known rumor per row via the cumulative-rank trick.
        csum = np.cumsum(sub, axis=1)
        j = rng.integers(0, counts)  # counts >= 1 always (own rumor)
        # First column where csum > j.
        return (csum > j[:, None]).argmax(axis=1)

    def exchange(self, state, proposers, acceptors) -> None:
        # One knowledge row per flat (replica, node) id.  Snapshot-free:
        # both picks read pre-exchange knowledge because the writes touch
        # disjoint (row, column) pairs per connection.
        known = state.known.reshape(-1, state.known.shape[2])
        from_p = self._pick_random_known(known, proposers, state.rng)
        from_a = self._pick_random_known(known, acceptors, state.rng)
        known[acceptors, from_p] = True
        known[proposers, from_a] = True

    def converged(self, state) -> np.ndarray:
        return state.known.all(axis=(1, 2))

    def knowledge_count(self, state) -> np.ndarray:
        """Total (node, rumor) pairs known per replica — monotone progress."""
        return state.known.sum(axis=(1, 2))
