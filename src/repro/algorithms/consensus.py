"""Leader-based consensus: a future-work extension.

The paper's conclusion lists *consensus* among the problems the mobile
telephone model opens, and its introduction motivates leader election
precisely as the primitive that "simplif[ies] tasks such as event
ordering, agreement, and synchronization".  This module closes that loop:
single-value consensus built directly on non-synchronized bit convergence.

Construction: each node proposes a value and attaches it to its ID pair;
the smallest-pair state that bit convergence already propagates now
carries ``(tag, UID, proposal)``.  When the network stabilizes on one
pair, every node's *decision* is the proposal attached to it.

Properties (asserted in the test suite):

* **Agreement** — all decisions equal, since they are read off the unique
  stabilized pair;
* **Validity** — the decided value is the winner's original proposal
  (values are only ever copied, never invented);
* **Termination** — inherited from Theorem VIII.2's stabilization bound;
* **Self-stabilization** — state corruption or component merges re-run
  the underlying convergence (failure-injection tests).

Payload cost: one UID + the k-bit tag + the value per connection — within
the Section IV budget for polylog-sized values.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._pairs import pair_less
from repro.algorithms.async_bit_convergence import AsyncBitConvergenceBatched
from repro.algorithms.bit_convergence import BitConvergenceConfig

__all__ = ["ConsensusBatched"]


class ConsensusBatched(AsyncBitConvergenceBatched):
    """Array-kernel consensus: async bit convergence carrying proposals.

    Parameters
    ----------
    uid_keys
        Simulator-internal UID keys per vertex.
    config
        Shared :class:`~repro.algorithms.bit_convergence.BitConvergenceConfig`.
    proposals
        One value per vertex (any numeric dtype); the decision is the
        proposal of the node whose pair wins the election.
    tag_seed, unique_tags
        As in the base algorithm.
    """

    def __init__(
        self,
        uid_keys: np.ndarray,
        config: BitConvergenceConfig,
        proposals: np.ndarray,
        *,
        tag_seed: int | None = None,
        unique_tags: bool = False,
    ):
        super().__init__(
            uid_keys, config, tag_seed=tag_seed, unique_tags=unique_tags
        )
        self._proposals = np.asarray(proposals).copy()
        if self._proposals.ndim != 1:
            raise ValueError("proposals must be a 1-D array")

    class State(AsyncBitConvergenceBatched.State):
        __slots__ = ("carried",)

        def __init__(self, ctag, ckey, pos, target_tag, target_key, carried=None):
            super().__init__(ctag, ckey, pos, target_tag, target_key)
            # ``None`` only transiently, while the base init_state builds
            # the pair state; init_state below attaches the proposals.
            self.carried = carried

    def init_state(self, n: int, seeds: np.ndarray):
        if self._proposals.shape != (n,):
            raise ValueError("need one proposal per vertex")
        state = super().init_state(n, seeds)  # builds self.State (carried=None)
        state.carried = np.tile(self._proposals, (len(seeds), 1))
        return state

    def exchange(self, state, proposers, acceptors) -> None:
        # Carry the attached value alongside the pair: whoever adopts the
        # other endpoint's (smaller) pair adopts its value too.
        ctag, ckey = state.ctag.reshape(-1), state.ckey.reshape(-1)
        carried = state.carried.reshape(-1)
        ptag, pkey, pval = ctag[proposers], ckey[proposers], carried[proposers]
        atag, akey, aval = ctag[acceptors], ckey[acceptors], carried[acceptors]

        adopt_a = pair_less(ptag, pkey, atag, akey)  # acceptors adopting proposers'
        sel = acceptors[adopt_a]
        ctag[sel] = ptag[adopt_a]
        ckey[sel] = pkey[adopt_a]
        carried[sel] = pval[adopt_a]

        adopt_p = pair_less(atag, akey, ptag, pkey)
        sel = proposers[adopt_p]
        ctag[sel] = atag[adopt_p]
        ckey[sel] = akey[adopt_p]
        carried[sel] = aval[adopt_p]

    def decisions(self, state) -> np.ndarray:
        """Current decision per node per replica (meaningful once converged)."""
        return state.carried

    def decided(self, state) -> np.ndarray:
        """Alias of :meth:`converged` in consensus vocabulary."""
        return self.converged(state)
