"""Chunked-over-``n`` engine for very large networks (``n = 10^5..10^6``).

The vectorized engine materializes every per-round intermediate at full
network width, so at ``n = 10^6`` each round streams a dozen
million-element temporaries through memory.  This engine executes the
same round semantics in **cache-friendly slabs of ``chunk_nodes``
vertices**:

1. *Pick pass* (per slab): draw the slab's sender coins via the
   algorithm's ``sparse_senders_flat`` hook and choose each sender's proposal
   target with :func:`~repro.util.csrops.segmented_random_pick_subset` —
   the working set per slab is O(``chunk_nodes``) beyond the CSR and the
   compact proposal list it appends to;
2. *Accept pass* (global, over the compact proposal list):
   :func:`~repro.core.batched.connect` applies the "a proposer cannot
   receive" rule through a persistent O(``n``) scratch mask and resolves
   acceptances; then the exchange is applied.

Both passes consume randomness per slab in slab order, so runs are
deterministic in ``(seed, chunk_nodes)``; different chunk sizes are
different (equally valid) samples of the same round distribution.

Once stabilization is near (most nodes done), rounds switch to the
2-hop :class:`~repro.core.batched.SparseFrontier` and the same sparse
round as :class:`~repro.core.vectorized.VectorizedEngine`, touching only
the undone set and its competition neighborhood — the endgame of a
``10^6``-node run costs the frontier, not the network.  Before that,
each round's probe rebuilds the undone set and stops at the first hop
of its closure that exceeds the limit; a probe that misses drops the
set, so dense rounds keep no frontier up to date.  Unlike the
vectorized engine there is no size floor and no ``REPRO_SPARSE`` switch:
a round is sparse whenever the closure covers at most a quarter of the
nodes.

Scope: what the engine runs is the ``"large-n"`` row of
:data:`~repro.core.capabilities.TIERS`, and it records no trace (use the
vectorized engine for instrumented runs — at ``10^6`` nodes a full trace
would dwarf the state anyway).  Like
:class:`~repro.core.vectorized.VectorizedEngine` it runs a
:class:`~repro.core.batched.BatchedAlgorithm` at one replica with trial
seed ``seed``, so a ``LargeNEngine(seed=s)`` starts bit-identical to a
``VectorizedEngine(seed=s)``; round randomness is an independent
``"largen-engine"`` stream.
"""

from __future__ import annotations

import numpy as np

from repro.core.batched import _SPARSE_MAX_FRACTION, BatchedAlgorithm, connect
from repro.core.capabilities import check_supported
from repro.core.trace import RunResult
from repro.core.vectorized import _SingleReplicaRounds, _trial_seed
from repro.graphs.dynamic import DynamicGraph
from repro.graphs.static import Graph
from repro.util.csrops import segmented_random_pick_subset
from repro.util.rng import make_rng

__all__ = ["LargeNEngine"]

#: Default slab width: 64k vertices keeps the per-slab working set
#: (a few int64/bool arrays of this length) inside L2/L3 on typical CPUs.
DEFAULT_CHUNK_NODES = 65536


class LargeNEngine(_SingleReplicaRounds):
    """Runs a ``sparse_compatible`` :class:`BatchedAlgorithm` in slabs, at one replica.

    Parameters
    ----------
    dynamic_graph
        Topology source (adaptive adversaries are rejected: their
        observation protocol assumes full-width rounds).
    algorithm
        Must declare ``sparse_compatible`` and ``tag_length == 0``.
    seed
        Trial seed of the one replica (``None``: fresh OS entropy); the
        initial state is the vectorized engine's, round randomness the
        ``"largen-engine"`` label.
    chunk_nodes
        Slab width of the pick pass (default
        :data:`DEFAULT_CHUNK_NODES`); results depend on it only as
        different samples of the same distribution.
    """

    def __init__(
        self,
        dynamic_graph: DynamicGraph,
        algorithm: BatchedAlgorithm,
        *,
        seed: int | None = None,
        chunk_nodes: int = DEFAULT_CHUNK_NODES,
    ):
        check_supported(
            "large-n", algorithm, graph=dynamic_graph, fault_plan=None, activation_rounds=None
        )
        if chunk_nodes < 1:
            raise ValueError(f"chunk_nodes must be >= 1, got {chunk_nodes}")
        self.dg = dynamic_graph
        self.algo = algorithm
        self.n = dynamic_graph.n
        self.chunk_nodes = int(chunk_nodes)
        seed = _trial_seed(seed)
        self._rng = make_rng(seed, "largen-engine")
        self.state = algorithm.init_state(self.n, np.array([seed], dtype=np.int64))
        #: Kept for engine-API parity; this engine never records traces.
        self.trace = None
        self.rounds_executed = 0
        #: Cumulative connections established (2 messages each); sparse
        #: endgame rounds undercount passive done–done connections.
        self.connections_made = 0
        self._proposed = np.zeros(self.n, dtype=bool)
        #: Undone-node set of the sparse endgame.
        self.frontier = self._make_frontier()

    # -- chunked round -------------------------------------------------------

    def step(self, r: int) -> None:
        """Execute global round ``r`` (1-indexed)."""
        if self._sparse_round(r, _SPARSE_MAX_FRACTION * self.n) is not None:
            return
        graph: Graph = self.dg.graph_at(r)
        indptr, indices = graph.indptr, graph.indices
        rng = self._rng
        n = self.n
        prop_parts: list[np.ndarray] = []
        targ_parts: list[np.ndarray] = []
        for lo in range(0, n, self.chunk_nodes):
            rows = np.arange(lo, min(lo + self.chunk_nodes, n), dtype=np.int64)
            coins = self.algo.sparse_senders_flat(self.state, rows, rng)
            senders = rows[coins]
            picks = segmented_random_pick_subset(indptr, indices, rng, senders)
            ok = picks >= 0
            prop_parts.append(senders[ok])
            targ_parts.append(picks[ok])
        acceptors, winners = connect(
            self._proposed, np.concatenate(prop_parts), np.concatenate(targ_parts), rng
        )
        self._exchange(winners, acceptors)

    # -- full runs -----------------------------------------------------------

    def run(self, max_rounds: int, *, check_every: int = 1) -> RunResult:
        """Run until the algorithm's convergence predicate or ``max_rounds``.

        Checking every ``check_every`` rounds quantizes the reported
        round count exactly as in the vectorized engine; for
        ``quiescent_when_done`` algorithms converged stretches between
        checkpoints are burned arithmetically (same round arithmetic as
        :meth:`VectorizedEngine.run`).
        """
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        fast_forward = self.algo.quiescent_when_done and check_every > 1
        for r in range(1, max_rounds + 1):
            self.step(r)
            self.rounds_executed = r
            converged = self._converged()
            if r % check_every == 0 and converged:
                return RunResult(
                    stabilized=True,
                    rounds=r,
                    rounds_after_last_activation=r,
                    trace=None,
                )
            if fast_forward and converged:
                rounds = min((r // check_every + 1) * check_every, max_rounds)
                self.rounds_executed = rounds
                return RunResult(
                    stabilized=True,
                    rounds=rounds,
                    rounds_after_last_activation=rounds,
                    trace=None,
                )
        return RunResult(
            stabilized=self._converged(),
            rounds=max_rounds,
            rounds_after_last_activation=max_rounds,
            trace=None,
        )
