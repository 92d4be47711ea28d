"""Adaptive adversaries: worst-case topology churn.

The model's dynamic graph is adversarial — it may change arbitrarily every
``τ`` rounds subject only to connectivity and the ``(α, Δ)`` the bounds
are stated in.  The oblivious generators in :mod:`repro.graphs.dynamic`
(random relabeling) honour that contract but *mix* state, which measurably
accelerates the algorithms (experiments E6, E11).  To exhibit the
worst-case behaviour the bounds actually pay for, this module provides an
**adaptive** adversary: one that observes algorithm state each round and
relabels the base topology against it.

:class:`PackingAdversary` implements the canonical attack on spreading
processes: given a boolean "has the information" observation, it relabels
the base graph so the informed nodes occupy a prefix of a fixed *packing
order* — an ordering of the base vertices whose every prefix has a tiny
vertex boundary (for a double star: leaves of hub A, then hub A, then
leaves of hub B, then hub B — every prefix has boundary exactly 1).  This
pins ``ν(B(informed))`` to its minimum round after round, throttling
spread to ~one node per round, while preserving ``α`` and ``Δ`` exactly
(the graph stays isomorphic to the base).

Adaptive graphs are stateful: ``graph_at(r)`` reflects the observations
received so far, so they support *forward simulation only* (no
out-of-order access), and the engine must call :meth:`observe` once per
round before ``graph_at`` — both engines do.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.dynamic import (
    BatchedPermutedDynamicGraph,
    DynamicGraph,
    epoch_of_round,
)
from repro.graphs.static import Graph

__all__ = [
    "AdaptiveDynamicGraph",
    "BatchedPackingAdversary",
    "PackingAdversary",
    "packing_order_for",
]


class AdaptiveDynamicGraph(DynamicGraph):
    """A dynamic graph that may observe algorithm state before each round.

    Engines call ``observe(r, observation)`` exactly once per round, in
    order, before requesting ``graph_at(r)``.  What the observation *is*
    comes from the algorithm's ``observable`` hook (vectorized engine) —
    ``None`` when the algorithm exposes nothing.
    """

    def observe(self, r: int, observation: object) -> None:
        """Receive the round-``r`` observation (default: ignore it)."""


def packing_order_for(base: Graph) -> np.ndarray:
    """A vertex ordering of ``base`` whose prefixes have tiny cut matchings.

    What throttles spread in the mobile telephone model is the maximum
    matching across the informed/uninformed cut, ``ν(B(S))`` (Lemma V.1),
    so the adversary wants every prefix of its packing order to have a
    small one.  The Fiedler (spectral) ordering delivers exactly that on
    elongated topologies: on a double star it reads "leaves of hub A,
    hub A, hub B, leaves of hub B" — every prefix's crossing edges share a
    single hub, pinning ``ν`` to 1.
    """
    from repro.analysis.expansion import _fiedler_order

    return np.asarray(_fiedler_order(base), dtype=np.int64)


class PackingAdversary(AdaptiveDynamicGraph):
    """Concentrates "informed" nodes behind a minimal boundary each epoch.

    Parameters
    ----------
    base
        Base topology; every round's graph is isomorphic to it (``α`` and
        ``Δ`` are preserved exactly).
    tau
        Stability factor: the relabeling is recomputed only at epoch
        boundaries, honouring the ``τ`` contract by construction.
    packing_order
        Ordering of base-vertex *roles*; informed nodes are packed into
        its prefix.  Defaults to :func:`packing_order_for`.

    The observation must be a boolean array over nodes (e.g. the informed
    mask of a rumor spreading algorithm, or "knows the minimum UID" for
    blind gossip).  ``None`` observations leave the current graph alone.
    """

    def __init__(
        self,
        base: Graph,
        tau: int = 1,
        *,
        packing_order: np.ndarray | None = None,
    ):
        if tau < 1:
            raise ValueError("tau must be >= 1")
        if not base.is_connected():
            raise ValueError("topology must be connected")
        self._base = base
        self.n = base.n
        self.tau = tau
        self.packing_order = (
            packing_order_for(base)
            if packing_order is None
            else np.asarray(packing_order, dtype=np.int64)
        )
        if sorted(self.packing_order.tolist()) != list(range(self.n)):
            raise ValueError("packing_order must be a permutation of 0..n-1")
        self._current = base
        self._current_epoch = -1
        self._last_round = 0

    def observe(self, r: int, observation: object) -> None:
        if r <= self._last_round:
            raise ValueError("adaptive adversary requires strictly forward rounds")
        self._last_round = r
        e = epoch_of_round(r, self.tau)
        if e == self._current_epoch:
            return  # mid-epoch: the topology must stay stable
        self._current_epoch = e
        if observation is None:
            return
        mask = np.asarray(observation, dtype=bool)
        if mask.shape != (self.n,):
            raise ValueError("observation must be a boolean mask over nodes")
        informed = np.flatnonzero(mask)
        uninformed = np.flatnonzero(~mask)
        nodes = np.concatenate([informed, uninformed])
        # Node nodes[j] takes the structural role order[j]: the relabel
        # permutation renames base vertex order[j] to nodes[j].
        perm = np.empty(self.n, dtype=np.int64)
        perm[self.packing_order] = nodes
        self._current = self._base.relabel(perm)

    def graph_at(self, r: int) -> Graph:
        return self._current

    def max_degree(self, horizon: int) -> int:
        return self._base.max_degree


class BatchedPackingAdversary(BatchedPermutedDynamicGraph):
    """The packing adversary for all ``T`` replicas of a batched run at once.

    Semantically ``T`` independent :class:`PackingAdversary` instances —
    each replica's informed nodes are packed into the prefix of the same
    packing order — but driven by the engine's full ``(T, n)`` observation:
    one stable argsort of the whole observation grid reproduces every
    replica's informed-then-uninformed ordering (``False < True`` on the
    negated mask, ties broken by ascending vertex index, exactly the
    ``flatnonzero`` concatenation the single adversary builds), so there is
    no per-replica Python loop anywhere in :meth:`observe`.

    As a :class:`~repro.graphs.dynamic.BatchedPermutedDynamicGraph` it
    never materializes relabeled ``Graph`` objects either: the engine picks
    through the ``(T, n)`` permutations against the one base CSR.
    """

    def __init__(
        self,
        base: Graph,
        tau: int = 1,
        *,
        replicas: int,
        packing_order: np.ndarray | None = None,
    ):
        if tau < 1:
            raise ValueError("tau must be >= 1")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if not base.is_connected():
            raise ValueError("topology must be connected")
        self.base = base
        self.n = base.n
        self.tau = tau
        self.replicas = replicas
        self.packing_order = (
            packing_order_for(base)
            if packing_order is None
            else np.asarray(packing_order, dtype=np.int64)
        )
        if sorted(self.packing_order.tolist()) != list(range(self.n)):
            raise ValueError("packing_order must be a permutation of 0..n-1")
        self._perms = np.tile(np.arange(self.n, dtype=np.int64), (replicas, 1))
        self._current_epoch = -1
        self._last_round = 0

    def observe(self, r: int, observation: np.ndarray | None) -> None:
        if r <= self._last_round:
            raise ValueError("adaptive adversary requires strictly forward rounds")
        self._last_round = r
        e = epoch_of_round(r, self.tau)
        if e == self._current_epoch:
            return  # mid-epoch: the topology must stay stable
        self._current_epoch = e
        if observation is None:
            return
        mask = np.asarray(observation, dtype=bool)
        if mask.shape != (self.replicas, self.n):
            raise ValueError("observation must be a (T, n) boolean mask")
        # Row t of ``nodes`` is replica t's informed vertices ascending,
        # then its uninformed vertices ascending.
        nodes = np.argsort(~mask, axis=1, kind="stable")
        # Node nodes[t, j] takes the structural role order[j]: the relabel
        # permutation renames base vertex order[j] to nodes[t, j].
        perms = np.empty_like(nodes)
        perms[:, self.packing_order] = nodes
        self._perms = perms  # fresh object: signals the change to the engine

    def permutations_at(self, r: int) -> np.ndarray:
        return self._perms
