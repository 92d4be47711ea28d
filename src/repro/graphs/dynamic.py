"""Dynamic graphs: round-indexed topology sequences with a stability contract.

Formally (paper Section II) a dynamic graph is a sequence ``G_1, G_2, …``
of static graphs over a fixed vertex set, where ``G_r`` is the topology in
round ``r`` (rounds are 1-indexed, as in the paper).  The *stability
factor* ``τ ≥ 1`` requires at least ``τ`` rounds between topology changes;
``τ = ∞`` (``math.inf``) means the graph never changes.

All implementations here are **deterministic functions of the round
number** (given their seed), so ``graph_at`` may be called out of order and
repeatedly — a property the engines, the validators, and the test suite all
rely on.

The paper's algorithms require *no advance knowledge of τ*; the ``tau``
attribute exists for generators and validators, never for algorithms.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Callable, Sequence

import numpy as np

from repro.graphs.static import Graph
from repro.util.rng import make_rng

__all__ = [
    "DynamicGraph",
    "StaticDynamicGraph",
    "ScheduleDynamicGraph",
    "PermutedDynamicGraph",
    "BatchedPermutedDynamicGraph",
    "PeriodicRelabelDynamicGraph",
    "ResampleDynamicGraph",
    "epoch_of_round",
    "first_round_of_epoch",
    "validate_tau",
]

#: Epoch caches hold at most this many entries before evicting (the
#: newest entry is retained so the in-use epoch never has to be rebuilt).
CACHE_LIMIT = 4096

#: Target element count of one generated permutation block (block length
#: is ``max(1, _PERM_BLOCK_ELEMENTS // n)`` epochs, ~256 KB of int64).
_PERM_BLOCK_ELEMENTS = 32768


def _evict_keep_newest(cache: dict, limit: int) -> None:
    """Clear ``cache`` down to its most recently inserted entry.

    Dropping everything would evict the entry the caller is still using
    (typically the current epoch), forcing an immediate rebuild; dicts
    preserve insertion order, so the last key is the newest.
    """
    if len(cache) < limit:
        return
    newest = next(reversed(cache))
    kept = cache[newest]
    cache.clear()
    cache[newest] = kept


def validate_tau(tau: float) -> int | float:
    """Normalize a stability factor to an ``int`` (or ``math.inf``).

    τ counts whole rounds between topology changes, so a finite τ must be
    an integer ≥ 1; integral floats (``3.0``) normalize to ``int``.
    Anything else — ``2.5``, ``nan``, ``0`` — raises rather than silently
    truncating (``int(2.5)`` would quietly run τ = 2, a different model).
    """
    if isinstance(tau, float):
        if math.isinf(tau) and tau > 0:
            return tau
        if not tau.is_integer():  # also rejects nan
            raise ValueError(
                f"tau must be a whole number of rounds (or inf), got {tau}"
            )
        tau = int(tau)
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    return int(tau)


def epoch_of_round(r: int, tau: float) -> int:
    """Epoch index (0-based) containing 1-indexed round ``r``.

    An epoch is a maximal stretch of rounds with the same topology; epoch
    ``e`` covers rounds ``e·τ + 1 … (e+1)·τ``.
    """
    if r < 1:
        raise ValueError(f"rounds are 1-indexed, got {r}")
    tau = validate_tau(tau)
    if math.isinf(tau):
        return 0
    return (r - 1) // tau


def first_round_of_epoch(e: int, tau: float) -> int:
    """First 1-indexed round of epoch ``e``."""
    tau = validate_tau(tau)
    if math.isinf(tau):
        if e != 0:
            raise ValueError("a static dynamic graph has a single epoch")
        return 1
    return e * tau + 1


class DynamicGraph(ABC):
    """Round-indexed sequence of connected static graphs on ``n`` vertices."""

    #: Declared minimum stability between changes (``math.inf`` if static).
    tau: float
    #: Number of vertices (constant over the whole sequence).
    n: int

    @abstractmethod
    def graph_at(self, r: int) -> Graph:
        """Topology of 1-indexed round ``r`` (deterministic in ``r``)."""

    def max_degree(self, horizon: int) -> int:
        """Maximum degree Δ over rounds ``1..horizon``.

        The default implementation inspects one round per epoch; subclasses
        with a known constant Δ override this.
        """
        if math.isinf(self.tau):
            return self.graph_at(1).max_degree
        step = int(self.tau)
        return max(
            self.graph_at(r).max_degree for r in range(1, horizon + 1, step)
        )

    def epochs_in(self, horizon: int) -> int:
        """Number of distinct epochs intersecting rounds ``1..horizon``."""
        if math.isinf(self.tau):
            return 1
        return epoch_of_round(horizon, self.tau) + 1


class StaticDynamicGraph(DynamicGraph):
    """A never-changing topology (``τ = ∞``)."""

    def __init__(self, graph: Graph):
        if not graph.is_connected():
            raise ValueError("topology must be connected")
        self._graph = graph
        self.n = graph.n
        self.tau = math.inf

    def graph_at(self, r: int) -> Graph:
        if r < 1:
            raise ValueError(f"rounds are 1-indexed, got {r}")
        return self._graph

    def max_degree(self, horizon: int) -> int:
        return self._graph.max_degree


class ScheduleDynamicGraph(DynamicGraph):
    """An explicit list of epoch graphs, each held for ``τ`` rounds.

    After the last scheduled epoch the sequence either cycles
    (``cycle=True``) or holds the final graph forever.
    """

    def __init__(self, graphs: Sequence[Graph], tau: int, *, cycle: bool = False):
        if not graphs:
            raise ValueError("need at least one graph")
        tau = validate_tau(tau)
        n = graphs[0].n
        for g in graphs:
            if g.n != n:
                raise ValueError("all graphs must share the vertex set")
            if not g.is_connected():
                raise ValueError("every topology must be connected")
        self._graphs = list(graphs)
        self._cycle = cycle
        self.n = n
        self.tau = tau

    def graph_at(self, r: int) -> Graph:
        e = epoch_of_round(r, self.tau)
        if self._cycle:
            return self._graphs[e % len(self._graphs)]
        return self._graphs[min(e, len(self._graphs) - 1)]


class PermutedDynamicGraph(DynamicGraph):
    """Dynamic graphs where every round is a *relabeling* of one base graph.

    Isomorphic churn never changes edge structure — only vertex labels — so
    a round's topology is fully described by ``(base, permutation)``.  The
    batched engine exploits this: when ``T`` replica graphs share one base
    object, it routes picks through the per-replica permutations against
    the single shared base CSR (see
    :func:`~repro.util.csrops.batched_permuted_pick`) and never builds a
    relabeled ``Graph`` or a stacked CSR at all.
    """

    #: The fixed base graph every round relabels.
    base: Graph

    def permutation_at(self, r: int) -> np.ndarray:
        """Relabel permutation ``p_r`` with ``graph_at(r) == base.relabel(p_r)``.

        ``p_r[u]`` is the round-``r`` label of base vertex ``u``.
        """
        return self.permutation_of_epoch(epoch_of_round(r, self.tau))

    def permutation_of_epoch(self, e: int) -> np.ndarray:
        """The relabel permutation of every round in epoch ``e``."""
        return self.permutations_from_epoch(e, 1)[0]

    @abstractmethod
    def permutations_from_epoch(self, e: int, k: int) -> np.ndarray:
        """Row ``i`` is the permutation of epoch ``e + i``; 1 to ``k`` rows."""


class BatchedPermutedDynamicGraph(ABC):
    """``T`` parallel permuted views of one base graph as a single object.

    The batched counterpart of handing the engine a list of ``T``
    :class:`PermutedDynamicGraph` instances: one object produces all
    replicas' permutations at once, so adaptive adversaries can react to
    the engine's full ``(T, n)`` observation without a per-replica Python
    loop.
    """

    #: The fixed base graph every replica's every round relabels.
    base: Graph
    #: Number of vertices.
    n: int
    #: Declared minimum stability between changes.
    tau: float
    #: Number of replicas ``T``.
    replicas: int

    def observe(self, r: int, observation: np.ndarray | None) -> None:
        """Receive the round-``r`` ``(T, n)`` observation (default: ignore)."""

    @abstractmethod
    def permutations_at(self, r: int) -> np.ndarray:
        """``(T, n)`` permutations; row ``t`` relabels replica ``t``'s base.

        Implementations must return a *new* array object whenever the
        permutations change (the engine caches the inverse permutations
        keyed on array identity).
        """


class _PermutationBlock:
    """One seeded block of relabel permutations, shuffled as it is read.

    ``rng.permuted(rows, axis=1)`` shuffles the rows in order off one
    stream, so shuffling them a few at a time yields the rows a shuffle of
    the whole block yields.  A run that stops after a few dozen epochs
    then pays for those rows only, not for all ``length`` of them.
    """

    __slots__ = ("rows", "filled", "rng")

    def __init__(self, rng: np.random.Generator, length: int, n: int):
        self.rng = rng
        self.rows = np.empty((length, n), dtype=np.int64)
        self.filled = 0

    def row(self, i: int) -> np.ndarray:
        if i >= self.filled:
            # Doubling keeps the shuffle calls per block logarithmic.
            stop = min(max(i + 1, 2 * self.filled, 8), self.rows.shape[0])
            n = self.rows.shape[1]
            self.rows[self.filled : stop] = self.rng.permuted(
                np.tile(np.arange(n, dtype=np.int64), (stop - self.filled, 1)), axis=1
            )
            self.filled = stop
        return self.rows[i]


class PeriodicRelabelDynamicGraph(PermutedDynamicGraph):
    """Adversarial isomorphic churn: relabel a base graph every ``τ`` rounds.

    Each epoch applies a fresh uniform permutation to the base graph's
    vertex labels.  This preserves ``α`` and ``Δ`` *exactly* (the theorems'
    parameters stay fixed) while scattering any algorithmic structure tied
    to vertex position — the harshest oblivious churn consistent with fixed
    ``(α, Δ)``.  With ``τ = 1`` this realizes the paper's "topology can
    change arbitrarily in every round" regime.

    Permutations are generated in seeded *blocks* of consecutive epochs
    (one generator constructed per block, one Fisher–Yates shuffle per
    row, rows shuffled as they are first read): at ``τ = 1`` a fresh
    permutation is needed every round, and per-epoch generator
    construction alone would cost more than the batched engine's whole
    pick phase.
    """

    def __init__(self, base: Graph, tau: int, seed: int | None = None):
        tau = validate_tau(tau)
        if not base.is_connected():
            raise ValueError("topology must be connected")
        self.base = base
        self._base = base
        if seed is None:
            # Draw a concrete root once so permutation blocks stay
            # consistent even after cache eviction.
            seed = int(make_rng(None, "relabel-root").integers(0, 2**31 - 1))
        self._seed = seed
        self.n = base.n
        self.tau = tau
        self._cache: dict[int, Graph] = {}
        self._cache_limit = CACHE_LIMIT
        self._block_len = max(1, _PERM_BLOCK_ELEMENTS // max(base.n, 1))
        self._perm_blocks: dict[int, _PermutationBlock] = {}

    def permutations_from_epoch(self, e: int, k: int) -> np.ndarray:
        b, i = divmod(e, self._block_len)
        block = self._perm_blocks.get(b)
        if block is None:
            _evict_keep_newest(self._perm_blocks, 8)
            block = self._perm_blocks[b] = _PermutationBlock(
                make_rng(self._seed, "relabel-epoch-block", b), self._block_len, self.n
            )
        stop = min(i + k, self._block_len)
        block.row(stop - 1)
        return block.rows[i:stop]

    def graph_at(self, r: int) -> Graph:
        e = epoch_of_round(r, self.tau)
        g = self._cache.get(e)
        if g is None:
            g = self.base.relabel(self.permutation_at(r))
            _evict_keep_newest(self._cache, self._cache_limit)
            self._cache[e] = g
        return g

    def max_degree(self, horizon: int) -> int:
        return self.base.max_degree

    # -- pickling ----------------------------------------------------------
    #
    # The epoch-graph cache never travels (cheap to rebuild, large to
    # ship), and permutation blocks are seed-deterministic, so dropping
    # them is always safe: they regenerate on first use.

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_cache"] = {}
        state["_perm_blocks"] = {}
        return state


class ResampleDynamicGraph(DynamicGraph):
    """Resample a fresh graph from a family each epoch.

    ``sampler(epoch_seed) -> Graph`` must return a connected graph on a
    fixed vertex count.  Unlike :class:`PeriodicRelabelDynamicGraph`, edge
    *structure* (not just labels) changes between epochs; ``α``/``Δ`` vary
    within the family's concentration.
    """

    def __init__(
        self,
        sampler: Callable[[int], Graph],
        tau: int,
        seed: int | None = None,
    ):
        tau = validate_tau(tau)
        self._sampler = sampler
        self._seed = seed
        self.tau = tau
        first = self._sample(0)
        self.n = first.n
        self._cache: dict[int, Graph] = {0: first}
        self._cache_limit = CACHE_LIMIT

    def _sample(self, e: int) -> Graph:
        epoch_seed = int(
            make_rng(self._seed, "resample-epoch", e).integers(0, 2**31 - 1)
        )
        g = self._sampler(epoch_seed)
        if not g.is_connected():
            raise ValueError("sampler returned a disconnected graph")
        return g

    def graph_at(self, r: int) -> Graph:
        e = epoch_of_round(r, self.tau)
        g = self._cache.get(e)
        if g is None:
            g = self._sample(e)
            if g.n != self.n:
                raise ValueError("sampler changed the vertex count")
            _evict_keep_newest(self._cache, self._cache_limit)
            self._cache[e] = g
        return g
