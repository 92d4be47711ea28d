"""Batched multi-replica vectorized engine: T trials as one (T, n) computation.

Every measurement in the harness is a distributional summary over dozens
of independent seeded trials (the paper's guarantees are w.h.p., so the
q90-over-trials is the measurement unit).  :class:`~repro.core.vectorized.VectorizedEngine`
executes one trial per Python round-loop, so a T-trial sweep point pays
the per-round NumPy dispatch overhead T times — the dominant cost at the
small-to-mid ``n`` where most experiments live.

This engine instead executes **T independent replicas of one
configuration simultaneously**: every state array gains a leading replica
axis ``(T, n)``, and each round is a single batch of kernel calls:

1. the algorithm produces per-replica tags ``(T, n)`` and a sender mask;
2. :func:`~repro.util.csrops.batched_random_pick` chooses every sender's
   proposal target in every replica at once (shared CSR topology);
   replicas under *isomorphic churn* (per-replica relabelings of one
   shared base — :class:`~repro.graphs.dynamic.PermutedDynamicGraph`
   lists or a :class:`~repro.graphs.dynamic.BatchedPermutedDynamicGraph`)
   instead route through
   :func:`~repro.util.csrops.batched_permuted_pick`, which picks against
   the one base CSR through per-replica ``(T, n)`` permutations — no
   relabeled graph or stacked CSR is ever built; only genuinely
   structure-changing replicas fall back to
   :func:`~repro.util.csrops.segmented_random_pick` over a
   :func:`~repro.util.csrops.stack_csr` block-diagonal CSR, rebuilt
   incrementally (only the segments whose topology changed);
3. :func:`connect` drops proposals to nodes that themselves proposed and
   resolves all replicas' acceptances with one sort over flat ids;
4. the algorithm applies the exchange for the connected pairs, as flat
   ``t*n + v`` ids into its state arrays.

Replicas that satisfy their convergence predicate are *masked out* (their
senders go silent), so finished replicas stop contributing work while the
stragglers run on — the batch finishes when the slowest replica does.

Randomness: replica ``t``'s **initial state arrays** depend only on trial
seed ``seeds[t]``, and the single-replica engines call the same
:meth:`BatchedAlgorithm.init_state` with ``[seed]``, so initial states
are bit-for-bit identical to ``T`` separate :class:`VectorizedEngine`
runs.
Round randomness comes from one engine-wide stream (keyed off
``seeds[0]`` and the replica count); per-replica slices of that stream
are mutually independent, so replicas remain independent trials — the
engines are cross-validated distributionally, exactly like reference vs
vectorized.

This module also holds what every array engine shares: the sparse-mode
switch, :func:`connect`, and :class:`SparseFrontier`, the undone set that
lets blind gossip's endgame rounds touch only the stragglers' 2-hop
neighbourhood (:class:`~repro.core.vectorized.VectorizedEngine` uses it
at one replica).
"""

from __future__ import annotations

import math
import os
from abc import ABC, abstractmethod
from typing import Callable, Sequence

import numpy as np

from repro.core.capabilities import check_supported, unsupported
from repro.core.trace import BatchedRunResult, BatchedTrace
from repro.graphs.adversary import AdaptiveDynamicGraph
from repro.graphs.dynamic import (
    BatchedPermutedDynamicGraph,
    DynamicGraph,
    PermutedDynamicGraph,
    epoch_of_round,
)
from repro.graphs.static import Graph
from repro.util.csrops import (
    batched_permuted_pick,
    batched_random_pick,
    csr_degrees,
    distinct_ids,
    gather_rows,
    invert_permutations,
    segmented_random_pick,
    segmented_uniform_accept_pairs,
    stack_csr,
    unique_nodes,
)
from repro.util.rng import make_rng

__all__ = ["BatchedAlgorithm", "BatchedVectorizedEngine", "SparseFrontier", "connect"]

#: Permutation entries (``T·n`` per epoch) the churn fast path fetches at
#: once (at τ = 1, a fetch per replica per epoch was ~1/3 of a small batched
#: round); 32 epochs at ``T·n = 1024``, one epoch from ``T·n = 32768`` on.
_PERM_SLAB_ELEMENTS = 32768

#: Below this many (replica, vertex) pairs, sparse-activity rounds cannot
#: beat the dense kernels' fixed dispatch overhead; ``auto`` mode stays dense.
_SPARSE_MIN_N = 4096
#: ``auto`` mode runs a sparse round only while the 2-hop frontier covers
#: at most this fraction of the (replica, vertex) pairs.
_SPARSE_MAX_FRACTION = 0.25


def _resolve_sparse_mode(requested: str | None) -> str:
    """Sparse-round mode: explicit argument, else ``REPRO_SPARSE``, else auto.

    ``force`` engages sparse rounds wherever the algorithm is compatible
    (regardless of size thresholds — used by the conformance fuzzer to
    exercise the sparse path at tiny n); ``off`` disables them; ``auto``
    applies the density heuristics.
    """
    mode = requested if requested is not None else os.environ.get("REPRO_SPARSE", "auto")
    mode = mode.strip().lower() or "auto"
    if mode not in ("auto", "force", "off"):
        raise ValueError(f"sparse mode must be auto/force/off, got {mode!r}")
    return mode


def _frontier_limit(mode: str, total: int) -> float | None:
    """Largest frontier a sparse round may cover over ``total`` flat ids.

    Unbounded under ``force``; under ``auto`` a quarter of ``total``, or
    ``None`` (dense rounds only) below the :data:`_SPARSE_MIN_N` floor.
    """
    if mode == "off":
        return None
    if mode == "force":
        return math.inf
    return _SPARSE_MAX_FRACTION * total if total >= _SPARSE_MIN_N else None


def connect(
    proposed: np.ndarray,
    proposers: np.ndarray,
    targets: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve one round's proposals into ``(acceptors, winners)``.

    A node that issued a proposal cannot receive one: ``proposed`` is an
    all-False scratch mask over the id space, set at the proposers for
    the test and reset before returning.  Each remaining target accepts
    one of its proposals uniformly
    (:func:`~repro.util.csrops.segmented_uniform_accept_pairs`);
    acceptors come back ascending.
    """
    proposed[proposers] = True
    keep = np.flatnonzero(~proposed[targets])
    proposed[proposers] = False
    return segmented_uniform_accept_pairs(proposers.take(keep), targets.take(keep), rng)


def _live_eligibility(
    sender: np.ndarray, recv: np.ndarray | None, active: np.ndarray, all_active: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """A round's sender mask and per-vertex target mask, limited to ``active``.

    ``sender`` and the algorithm's ``recv`` (``None``: no receiver mask)
    are ``(n,)`` or ``(T, n)``; ``active`` is the shared ``(n,)`` mask.
    When every node is active both pass through, so an algorithm without
    a receiver mask takes the unmasked pick.
    """
    if all_active:
        return sender, recv
    nb_mask = np.broadcast_to(active, sender.shape) if recv is None else recv & active
    return sender & active, nb_mask


class SparseFrontier:
    """The undone set of a sparse-compatible run, in flat ``t*n + v`` ids.

    Sparse-compatible algorithms have absorbing per-node doneness that
    changes only through exchanges, and an exchange between two done
    nodes changes nothing.  Every state-changing exchange therefore has
    an endpoint in the undone set ``U``; its receiver lies in
    ``U ∪ N(U)``, and every rival proposer of that receiver is one of its
    neighbours.  A round that draws sender coins only for
    ``S = U ∪ N(U) ∪ N²(U)``, keeps all of their proposals and accepts
    uniformly among them has the dense round's exact distribution over
    state trajectories.  Proposals between passive nodes outside ``S`` are
    skipped, so ``connections_made`` undercounts those no-op exchanges.

    Replica ``t``'s copy of vertex ``v`` neighbours replica ``t``'s copies
    of ``v``'s neighbours, so at ``T`` replicas of one shared topology the
    flat adjacency is the CSR shifted by each id's replica base ``t*n``;
    at one replica flat ids are vertex ids.

    ``node_done()`` returns the ``(n,)`` or ``(T, n)`` doneness (or
    ``None`` when the algorithm has no per-node form) and
    ``node_done_subset(ids)`` the doneness of the given flat ids.
    """

    def __init__(
        self,
        n: int,
        replicas: int,
        node_done: Callable[[], np.ndarray | None],
        node_done_subset: Callable[[np.ndarray], np.ndarray],
    ):
        self.n = n
        self.replicas = replicas
        self._node_done = node_done
        self._node_done_subset = node_done_subset
        #: ``(T*n,)`` undone mask; ``None`` outside a run of sparse rounds.
        self.undone: np.ndarray | None = None
        #: Ascending flat ids of the undone set (``None`` with ``undone``).
        self.idx: np.ndarray | None = None
        #: ``(T*n,)`` all-False scratch for :func:`distinct_ids`.
        self._mark = np.zeros(n * replicas, dtype=bool)

    def build(self) -> bool:
        """Build the undone set from ``node_done`` unless it is built.

        False when the algorithm has no per-node doneness.
        """
        if self.undone is None:
            done = self._node_done()
            if done is None:
                return False
            self.undone = ~np.asarray(done, dtype=bool).reshape(-1)
            self.idx = np.flatnonzero(self.undone)
        return True

    def closure(
        self, dg: DynamicGraph, r: int, limit: float
    ) -> tuple[Graph, np.ndarray] | None:
        """Round ``r``'s graph and the ascending flat ids of ``S``.

        ``None`` means run a dense round: the algorithm has no per-node
        doneness, or ``U``, ``U ∪ N(U)`` or ``S`` holds more than
        ``limit`` ids.  ``S ⊇ U ∪ N(U)``, so an oversized first hop
        rejects before the second is built.  The dense round's exchanges
        would leave ``U`` stale, so a miss drops it and the next probe
        rebuilds it from ``node_done``; ``U`` is kept only across sparse
        rounds.
        """
        if not self.build():
            return None
        u = self.idx
        if u.size <= limit:
            graph = dg.graph_at(r)
            reach = self._hop(graph, u, limit)
            rows = None if reach is None else self._hop(graph, reach, limit)
            if rows is not None:
                return graph, rows
        self.undone = self.idx = None
        return None

    def _hop(self, graph: Graph, ids: np.ndarray, limit: float) -> np.ndarray | None:
        """Ascending flat ids of ``ids`` and their neighbours, or ``None``
        when they are more than ``limit``."""
        if self.replicas == 1:
            nbrs = gather_rows(graph.indptr, graph.indices, ids)
        else:
            verts = ids % self.n
            nbrs = gather_rows(graph.indptr, graph.indices, verts)
            nbrs += np.repeat(ids - verts, graph.indptr[verts + 1] - graph.indptr[verts])
        return distinct_ids(np.concatenate([ids, nbrs]), self._mark, limit)

    def absorb(self, winners: np.ndarray, acceptors: np.ndarray) -> None:
        """Drop this round's exchange endpoints that have become done.

        Only exchange endpoints can have left the undone set, so
        rechecking them keeps it exact at O(connections) per round.  A
        no-op while the set is unbuilt, as it is in every dense round a
        closure miss led to.
        """
        mask = self.undone
        if mask is None:
            return
        parts = np.concatenate([winners, acceptors])
        cand = unique_nodes(parts[mask[parts]])
        if cand.size == 0:
            return
        fin = cand[self._node_done_subset(cand)]
        if fin.size:
            mask[fin] = False
            self.idx = self.idx[mask[self.idx]]


class BatchedAlgorithm(ABC):
    """Array-kernel form of an algorithm, batched over ``T`` replicas.

    State is an algorithm-owned object of ``(T, n)`` NumPy arrays; the
    engine threads it through the hooks below.  Every array engine runs
    this one interface: :class:`BatchedVectorizedEngine` at ``T`` trials,
    :class:`~repro.core.vectorized.VectorizedEngine` at ``T = 1``.  Target
    eligibility is expressed per *vertex* (:meth:`receiver_mask`), which
    batches over distinct replica topologies for free, or per CSR entry
    (:meth:`eligible_flat`) when it depends on the (sender, target) pair.
    """

    #: Advertising tag length ``b`` this algorithm requires.
    tag_length: int = 0

    #: True when the engine may run *sparse-activity rounds* for this
    #: algorithm.  The contract: doneness is absorbing and per-node
    #: (:meth:`node_done` decomposes), state changes only through
    #: :meth:`exchange` (``end_round`` is a no-op), an exchange between two
    #: done nodes changes nothing, ``b = 0`` with no receiver mask, and the
    #: ``sparse_senders_flat`` / ``node_done_subset_flat`` hooks are
    #: implemented.
    sparse_compatible: bool = False

    #: True when a converged state makes every further round a no-op, so
    #: single-replica engines may count rounds burned toward a fixed
    #: horizon arithmetically instead of simulating them (see
    #: :meth:`~repro.core.vectorized.VectorizedEngine.run`).
    quiescent_when_done: bool = False

    @abstractmethod
    def init_state(self, n: int, seeds: np.ndarray) -> object:
        """Initial ``(T, n)`` state for ``T = len(seeds)`` replicas.

        ``seeds[t]`` is replica ``t``'s trial seed; replica ``t``'s
        state arrays must not depend on the other seeds, so they equal
        those of a one-replica run with seed ``seeds[t]``.
        """

    def tags(
        self,
        state: object,
        local_rounds: np.ndarray,
        active: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray | None:
        """``(T, n)`` advertised tags (ignored entries for inactive nodes).

        The default ``None`` means "no advertising" (``b = 0``
        algorithms); the engine then skips tag materialization entirely.
        """
        return None

    @abstractmethod
    def senders(
        self,
        state: object,
        tags: np.ndarray,
        local_rounds: np.ndarray,
        active: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """``(T, n)`` boolean mask of nodes attempting to send a proposal."""

    def receiver_mask(self, state: object, tags: np.ndarray) -> np.ndarray | None:
        """Optional ``(T, n)`` per-vertex eligibility of proposal targets.

        ``None`` means senders choose uniformly among all (active)
        neighbors.
        """
        return None

    def eligible_flat(
        self, state: object, tags: np.ndarray, graph: Graph
    ) -> np.ndarray | None:
        """Optional ``(T, nnz)`` per-CSR-entry eligibility of proposal targets.

        Entry ``[t, i]`` covers CSR entry ``graph.indices[i]`` in the row
        of its source vertex, in replica ``t``; it is combined (AND) with
        :meth:`receiver_mask`.  Use it when eligibility depends on the
        (sender, target) pair.  It indexes one CSR, so
        :class:`BatchedVectorizedEngine` rejects algorithms that override
        it on per-replica or permuted topologies.
        """
        return None

    @abstractmethod
    def exchange(
        self, state: object, proposers: np.ndarray, acceptors: np.ndarray
    ) -> None:
        """Apply the exchange for connected pairs across all replicas.

        ``proposers[i]`` connected to ``acceptors[i]``, both as flat
        ``t*n + v`` ids of one replica ``t`` — indices into each state
        array's ``reshape(-1)`` view, so at ``T = 1`` they are vertex ids.
        """

    def end_round(
        self,
        state: object,
        round_index: int,
        local_rounds: np.ndarray,
        active: np.ndarray,
        live: np.ndarray,
    ) -> None:
        """Hook after connections (phase-boundary state transitions)."""

    @abstractmethod
    def converged(self, state: object) -> np.ndarray:
        """``(T,)`` absorbing stabilization predicate per replica."""

    def node_done(self, state: object) -> np.ndarray | None:
        """Optional ``(T, n)`` per-node form of :meth:`converged`.

        ``converged()`` must equal ``node_done().all(axis=1)``.  The
        engine uses the per-node form to exclude permanently crashed
        nodes from stabilization (their state is frozen forever).
        ``None`` (the default) falls back to the whole-network predicate.
        """
        return None

    def sparse_senders_flat(
        self, state: object, flat_rows: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Sender coins for the flat ``t*n + v`` ids in ``flat_rows`` only.

        Must be distribution-equivalent to :meth:`senders` restricted to
        those (replica, vertex) pairs (bit-equivalence with the dense
        path is *not* required — the sparse path consumes the engine
        stream differently by design).  Required when
        ``sparse_compatible`` is true.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement sparse sender coins"
        )

    def node_done_subset_flat(
        self, state: object, flat_rows: np.ndarray, n: int
    ) -> np.ndarray:
        """Doneness of the flat ``t*n + v`` ids in ``flat_rows`` only.

        Default derives from :meth:`node_done`; override with an O(|flat_rows|)
        gather to keep sparse rounds free of (T, n) scans.
        """
        done = self.node_done(state)
        if done is None:
            raise NotImplementedError(
                f"{type(self).__name__} has no per-node doneness; sparse "
                "rounds require node_done or node_done_subset_flat"
            )
        return np.asarray(done, dtype=bool).reshape(-1)[flat_rows]

    def observable(self, state: object) -> np.ndarray | None:
        """``(T, n)`` per-replica adaptive-adversary observation, or ``None``."""
        return None

    # -- fault hooks (repro.faults) ----------------------------------------

    def corrupt_state(
        self, state: object, victims: np.ndarray, rng: np.random.Generator
    ) -> None:
        """Overwrite per-replica ``victims`` (``(T, k)``) with arbitrary values.

        Engine hook for :class:`~repro.faults.plan.StateCorruptionEvent`:
        row ``t`` of ``victims`` lists the ``k`` corrupted vertices of
        replica ``t``.  Implementations replace the victims' state with
        values drawn from ``rng`` (replica by replica, in row order) and
        recompute any convergence target over the corrupted state.  The
        default raises so unsupported fault plans fail loudly.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement state corruption"
        )

    def reset_nodes(
        self, state: object, nodes: np.ndarray, rng: np.random.Generator
    ) -> None:
        """Restore ``nodes`` to their initial state in *every* replica.

        Engine hook for :class:`~repro.faults.plan.CrashWindow` rejoins
        with ``reset_on_rejoin`` — the crash schedule is deterministic
        plan data shared by all replicas (like ``activation_rounds``), so
        the same vertices reset batch-wide.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement crash/rejoin reset"
        )


class BatchedVectorizedEngine:
    """Runs a :class:`BatchedAlgorithm` over T replicas of one configuration.

    Parameters
    ----------
    dynamic_graph
        One :class:`~repro.graphs.dynamic.DynamicGraph` shared by every
        replica (static-topology experiments: one CSR serves the whole
        batch), a sequence of ``T`` per-replica dynamic graphs, or one
        :class:`~repro.graphs.dynamic.BatchedPermutedDynamicGraph`
        (e.g. the batched packing adversary).  A sequence whose members
        are all :class:`~repro.graphs.dynamic.PermutedDynamicGraph`
        instances over the *same base object* with equal ``τ`` takes the
        permutation-native fast path; other sequences are stacked into a
        block-diagonal CSR per round.
    algorithm
        The batched algorithm kernel.
    seeds
        Per-replica trial seeds (the same integers
        :func:`~repro.harness.runner.run_trials` would hand to ``T``
        separate engines).
    activation_rounds
        1-indexed activation round per node, shared by all replicas.
    fault_plan
        Optional :class:`~repro.faults.plan.FaultPlan` applied at the
        standard hook points in every replica (crash schedules are
        shared plan data; probabilistic faults draw per replica from a
        dedicated batch-wide fault stream).  An empty plan is normalized
        away and costs nothing.
    """

    def __init__(
        self,
        dynamic_graph: DynamicGraph | Sequence[DynamicGraph],
        algorithm: BatchedAlgorithm,
        *,
        seeds: Sequence[int] | np.ndarray,
        activation_rounds: Sequence[int] | np.ndarray | None = None,
        fault_plan=None,
        collect_trace: bool = False,
        sparse: str | None = None,
    ):
        self.seeds = np.asarray(seeds, dtype=np.int64)
        if self.seeds.ndim != 1 or self.seeds.size == 0:
            raise ValueError("seeds must be a non-empty 1-D sequence")
        self.replicas = int(self.seeds.size)

        self.bdg: BatchedPermutedDynamicGraph | None = None
        self.dg: DynamicGraph | None = None
        self.dgs: list[DynamicGraph] | None = None
        #: Shared base graph of the permutation-native churn fast path
        #: (set for both the batched object and the permuted-list forms).
        self._perm_base: Graph | None = None
        if isinstance(dynamic_graph, BatchedPermutedDynamicGraph):
            if dynamic_graph.replicas != self.replicas:
                raise ValueError(
                    f"batched dynamic graph covers {dynamic_graph.replicas} "
                    f"replicas but {self.replicas} seeds were given"
                )
            self.bdg = dynamic_graph
            self._perm_base = dynamic_graph.base
            self.n = dynamic_graph.n
        elif isinstance(dynamic_graph, DynamicGraph):
            if isinstance(dynamic_graph, AdaptiveDynamicGraph):
                raise ValueError(
                    "an adaptive dynamic graph cannot be shared across "
                    "replicas (observations differ per replica); pass one "
                    "adversary instance per replica"
                )
            self.dg = dynamic_graph
            self.n = dynamic_graph.n
        else:
            dgs = list(dynamic_graph)
            if len(dgs) != self.replicas:
                raise ValueError(
                    f"need one dynamic graph per replica: got {len(dgs)} "
                    f"graphs for {self.replicas} seeds"
                )
            if len({dg.n for dg in dgs}) != 1:
                raise ValueError("all replica graphs must share the vertex count")
            self.dgs = dgs
            self.n = dgs[0].n
            # Permutation-native fast path: every replica relabels the
            # *same base object* on the same epoch schedule, so round
            # topologies are (one shared CSR, T permutations).
            if all(isinstance(dg, PermutedDynamicGraph) for dg in dgs) and all(
                dg.base is dgs[0].base and dg.tau == dgs[0].tau for dg in dgs
            ):
                self._perm_base = dgs[0].base

        #: Some per-replica graph is an adversary that observes state.
        self._adaptive = self.dgs is not None and any(
            isinstance(dg, AdaptiveDynamicGraph) for dg in self.dgs
        )
        self.algo = algorithm
        entry_masks = type(algorithm).eligible_flat is not BatchedAlgorithm.eligible_flat
        if entry_masks and self.dg is None:
            raise ValueError(
                f"{type(algorithm).__name__} restricts targets per CSR entry "
                "(eligible_flat), which needs one shared dynamic graph; "
                "per-replica and permuted topologies are unsupported"
            )
        if activation_rounds is None:
            self.activation = np.ones(self.n, dtype=np.int64)
        else:
            self.activation = np.asarray(activation_rounds, dtype=np.int64)
            if self.activation.shape != (self.n,) or self.activation.min() < 1:
                raise ValueError("activation_rounds must be n 1-indexed rounds")
        self._rng = make_rng(int(self.seeds[0]), "batched-engine", self.replicas)
        config = dict(
            graph=dynamic_graph, fault_plan=fault_plan, activation_rounds=activation_rounds
        )
        fault_plan = check_supported("batched", algorithm, **config)
        if fault_plan is not None:
            from repro.faults.apply import BatchedFaultState

            self._faults: BatchedFaultState | None = BatchedFaultState(
                fault_plan,
                self.n,
                self.replicas,
                make_rng(int(self.seeds[0]), "batched-faults", self.replicas),
                tag_length=algorithm.tag_length,
            )
        else:
            self._faults = None
        self.state = self.algo.init_state(self.n, self.seeds)
        #: Optional batched trace; :meth:`BatchedTrace.replica` recovers a
        #: per-replica view in the single-engine record format.
        self.trace = BatchedTrace(self.replicas, self.n) if collect_trace else None
        #: Replicas still running (convergence masking).
        self.live = np.ones(self.replicas, dtype=bool)
        self.rounds_executed = 0
        #: Shared (n,) live/active mask of the most recent round (``None``
        #: before the first).  Open-world monitors read it after ``step``.
        self.last_active: np.ndarray | None = None
        self._all_active: np.ndarray | None = None
        #: Cumulative connections established per replica (2 messages each).
        self.connections_made = np.zeros(self.replicas, dtype=np.int64)
        # Stacked-CSR cache: strong refs to the graphs backing the current
        # stack (identity comparison against *held* objects is sound even
        # if a dynamic graph's epoch cache evicts and ids get reused).
        self._stack_graphs: list[Graph] | None = None
        self._stack: tuple[np.ndarray, np.ndarray] | None = None
        self._stack_nnz_off: np.ndarray | None = None
        self._deg_graph: Graph | None = None
        self._deg: np.ndarray | None = None
        # Permutation cache for the churn fast path: current (T, n)
        # permutations and their inverses, refreshed per epoch (list form)
        # or when the batched object emits a new array (adaptive form).
        self._P: np.ndarray | None = None
        self._Pinv: np.ndarray | None = None
        self._perm_epoch = -1
        self._P_src: np.ndarray | None = None
        # List form: the (k, T, n) permutations of k epochs from
        # _slab_epoch on, and their inverses, fetched k epochs at a time.
        self._slab = self._slab_inv = np.empty((0, self.replicas, self.n), dtype=np.int64)
        self._slab_epoch = 0
        # All-False scratch mask for connect()'s "a proposer cannot
        # receive" rule.
        self._proposed = np.zeros(self.replicas * self.n, dtype=bool)
        # Flat id -> local vertex lookup (a gather beats an integer modulo
        # on the hot path).
        self._row_of = np.tile(np.arange(self.n, dtype=np.int64), self.replicas)
        # Sparse-activity rounds (as in VectorizedEngine): eligible only
        # on the shared-single-dynamic-graph path of a run the ``"sparse"``
        # row of TIERS admits.  Finished replicas drop out of the frontier
        # automatically because every one of their nodes is done.
        sparse_ok = self.dg is not None and not unsupported("sparse", algorithm, **config)
        mode = _resolve_sparse_mode(sparse)
        #: Frontier-size limit of a sparse round; ``None`` = dense only.
        self._sparse_limit = (
            _frontier_limit(mode, self.replicas * self.n) if sparse_ok else None
        )
        algo, state, n = algorithm, self.state, self.n
        #: Undone (replica, vertex) set of the sparse endgame.
        self.frontier = SparseFrontier(
            n,
            self.replicas,
            lambda: algo.node_done(state),
            lambda ids: algo.node_done_subset_flat(state, ids, n),
        )

    # -- topology ------------------------------------------------------------

    def _stacked_csr(self, graphs: list[Graph]) -> tuple[np.ndarray, np.ndarray]:
        """Block-diagonal CSR of this round's replica topologies (cached).

        The engine holds strong references to the graphs backing the
        current stack, so ``is`` against them is a sound "unchanged since
        last round" test (an ``id()``-only key could alias a freed graph
        whose id was reused after a dynamic graph's cache eviction).
        Between rounds only the replicas whose epoch actually changed are
        rewritten — an in-place segment patch when the edge count is
        unchanged (always true for isomorphic churn, usually true for
        resampling within a family), a full restack only when a segment's
        edge count changes.
        """
        n = self.n
        prev = self._stack_graphs
        if prev is not None and len(prev) == len(graphs):
            changed = [t for t, g in enumerate(graphs) if g is not prev[t]]
            if not changed:
                assert self._stack is not None
                return self._stack
            off = self._stack_nnz_off
            assert off is not None and self._stack is not None
            if all(
                graphs[t].indptr[-1] == off[t + 1] - off[t] for t in changed
            ):
                indptr_s, indices_s = self._stack
                for t in changed:
                    g = graphs[t]
                    indices_s[off[t] : off[t + 1]] = g.indices + t * n
                    indptr_s[t * n + 1 : (t + 1) * n + 1] = g.indptr[1:] + off[t]
                self._stack_graphs = list(graphs)
                return self._stack
        self._stack = stack_csr([(g.indptr, g.indices) for g in graphs], self.n)
        nnz_off = np.zeros(len(graphs) + 1, dtype=np.int64)
        for t, g in enumerate(graphs):
            nnz_off[t + 1] = nnz_off[t] + g.indptr[-1]
        self._stack_nnz_off = nnz_off
        self._stack_graphs = list(graphs)
        return self._stack

    def _degrees(self, graph: Graph) -> np.ndarray:
        """Vertex degrees of the current shared topology (cached).

        A strong reference to the graph makes the identity test immune to
        id reuse after the dynamic graph's epoch cache evicts.
        """
        if graph is not self._deg_graph:
            self._deg = csr_degrees(graph.indptr)
            self._deg_graph = graph
        assert self._deg is not None
        return self._deg

    def _permutations(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Current ``(T, n)`` relabel permutations and their inverses.

        Refreshed once per epoch on the permuted-list path, from a slab of
        epochs that one ``permutations_from_epoch`` call per replica
        fetches, or when the batched dynamic graph hands back a new array
        object (adaptive adversaries emit one only at epoch boundaries with
        a changed observation).
        """
        if self.bdg is not None:
            P = self.bdg.permutations_at(r)
            if P is not self._P_src:
                self._P_src = P
                self._P = np.ascontiguousarray(P, dtype=np.int64)
                self._Pinv = invert_permutations(self._P)
        else:
            assert self.dgs is not None
            e = epoch_of_round(r, self.dgs[0].tau)
            if e != self._perm_epoch:
                j = e - self._slab_epoch
                if not 0 <= j < len(self._slab):
                    # Replicas share n and τ, so their runs end at one block end.
                    k = max(1, _PERM_SLAB_ELEMENTS // (self.replicas * self.n))
                    rows = [dg.permutations_from_epoch(e, k) for dg in self.dgs]
                    self._slab = np.stack(rows, axis=1)
                    inv = invert_permutations(self._slab.reshape(-1, self.n))
                    self._slab_inv = inv.reshape(self._slab.shape)
                    self._slab_epoch, j = e, 0
                self._P, self._Pinv = self._slab[j], self._slab_inv[j]
                self._perm_epoch = e
        assert self._P is not None and self._Pinv is not None
        return self._P, self._Pinv

    # -- round pieces ----------------------------------------------------------

    def _pick_shared(
        self, graph: Graph, sflat: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Unmasked picks on the shared CSR: ``(senders, targets)`` flat ids.

        Gathers each sender's degree and draws its neighbour offset
        directly — no pick grid at all.  Senders without neighbours drop.
        """
        rows = self._row_of[sflat]
        d = self._degrees(graph)[rows]
        ok = d > 0
        if not ok.all():
            sflat, rows, d = sflat[ok], rows[ok], d[ok]
        if not sflat.size:
            return sflat, sflat
        # floor(u * d) for u ~ U[0, 1): uniform over [0, d) up to an
        # O(d / 2^53) rounding bias — immaterial here, and roughly half
        # the cost of a per-element bounded integer draw.
        offsets = (self._rng.random(d.size) * d).astype(np.int64)
        return sflat, (sflat - rows) + graph.indices[graph.indptr[rows] + offsets]

    def _exchange(self, win_flat: np.ndarray, acc_flat: np.ndarray) -> None:
        """Apply the exchange for the connected flat pairs."""
        if acc_flat.size:
            self.connections_made += np.bincount(
                acc_flat // self.n, minlength=self.replicas
            )
            self.algo.exchange(self.state, win_flat, acc_flat)
            self.frontier.absorb(win_flat, acc_flat)

    def _sparse_step(self, r: int) -> bool:
        """Run round ``r`` on the frontier's 2-hop closure if it fits.

        The closure holds the full acceptance competition of every node
        that can change state (see :class:`SparseFrontier`), so this is
        distribution-equivalent to a dense round.
        """
        hit = self.frontier.closure(self.dg, r, self._sparse_limit)
        if hit is None:
            return False
        graph, rows = hit
        if self._all_active is None:
            self._all_active = np.ones(self.n, dtype=bool)
            # Shared by every sparse round: read-only, so a consumer that
            # writes into ``last_active`` raises instead of corrupting it.
            self._all_active.setflags(write=False)
        # Sparse preconditions (sync activation, no faults) mean every
        # node is live this round.
        self.last_active = self._all_active
        rng = self._rng
        coins = self.algo.sparse_senders_flat(self.state, rows, rng)
        sflat, tflat = self._pick_shared(graph, rows[coins])
        acc_flat, win_flat = connect(self._proposed, sflat, tflat, rng)
        self._exchange(win_flat, acc_flat)
        # end_round is a contractual no-op for sparse-compatible algorithms.
        if self.trace is not None:
            self.trace.append_round(
                r, sflat, tflat, win_flat, acc_flat, None, self.activation <= r
            )
        return True

    # -- single round --------------------------------------------------------

    def step(self, r: int) -> None:
        """Execute global round ``r`` (1-indexed) in every live replica."""
        if self._sparse_limit is not None and self._sparse_step(r):
            return

        T, n = self.replicas, self.n
        active = self.activation <= r
        local_rounds = np.maximum(r - self.activation + 1, 0)
        rng = self._rng

        faults = self._faults
        if faults is not None:
            # Start-of-round fault events: rejoin resets, then corruption.
            nodes = faults.rejoin_resets(r)
            if nodes.size:
                self.algo.reset_nodes(self.state, nodes, faults.rng)
            for victims in faults.corruption_victims(r):
                self.algo.corrupt_state(self.state, victims, faults.rng)
            up = faults.up_mask(r)
            if up is not None:
                # Crash/membership schedules are shared (n,) plan data, so
                # the mask folds into `active` before the all-active fast
                # path test.
                active = active & up
        else:
            up = None
        #: Final shared live/active mask of this round (monitors read it).
        self.last_active = active

        def _masked_obs():
            obs = self.algo.observable(self.state)
            if obs is not None and up is not None:
                # Dead slots are invisible: the adversary may not react
                # to state frozen in a crashed/departed slot.
                obs = np.asarray(obs) & up[None, :]
            return obs

        if self.bdg is not None:
            self.bdg.observe(r, _masked_obs())
        elif self._adaptive:
            obs = _masked_obs()
            for t, dg in enumerate(self.dgs):
                if isinstance(dg, AdaptiveDynamicGraph):
                    dg.observe(r, None if obs is None else obs[t])

        tags = self.algo.tags(self.state, local_rounds, active, rng)
        sender = self.algo.senders(self.state, tags, local_rounds, active, rng)
        if faults is not None and tags is not None:
            # Corrupt at the advertiser's radio: the sender decision used
            # the intended tag; receiver eligibility sees the corrupted one.
            tags = faults.corrupt_tags(tags, active)
        sender, nb_mask = _live_eligibility(
            sender & self.live[:, None],
            self.algo.receiver_mask(self.state, tags),
            active,
            bool(active.all()),
        )

        # The hot path works on compact flat (replica, vertex) ids
        # (flat id = t*n + v): one flatnonzero pass over the batch instead
        # of dense (T, n) intermediates re-scanned at every stage.
        if self._perm_base is not None:
            # Isomorphic churn: pick through per-replica permutations
            # against the one shared base CSR.
            P, Pinv = self._permutations(r)
            base = self._perm_base
            sflat, tflat = batched_permuted_pick(
                base.indptr,
                base.indices,
                rng,
                P,
                sender,
                neighbor_mask=nb_mask,
                perm_inv=Pinv,
            )
        elif self.dg is not None:
            graph = self.dg.graph_at(r)
            entry = self.algo.eligible_flat(self.state, tags, graph)
            if nb_mask is None and entry is None:
                sflat, tflat = self._pick_shared(graph, np.flatnonzero(sender))
            else:
                picks = batched_random_pick(
                    graph.indptr,
                    graph.indices,
                    rng,
                    sender,
                    neighbor_mask=nb_mask,
                    flat_mask=entry,
                )
                pf = picks.reshape(T * n)
                sflat = np.flatnonzero(pf >= 0)
                tflat = (sflat - self._row_of[sflat]) + pf[sflat]
        else:
            assert self.dgs is not None
            indptr_s, indices_s = self._stacked_csr(
                [dg.graph_at(r) for dg in self.dgs]
            )
            flat_nb = None if nb_mask is None else np.ascontiguousarray(nb_mask).reshape(T * n)
            flat_picks = segmented_random_pick(
                indptr_s,
                indices_s,
                rng,
                active=np.ascontiguousarray(sender).reshape(T * n),
                neighbor_mask=flat_nb,
            )
            # Stacked vertex ids are already flat t*n + v ids.
            sflat = np.flatnonzero(flat_picks >= 0)
            tflat = flat_picks[sflat]

        acc_flat, win_flat = connect(self._proposed, sflat, tflat, rng)
        if faults is not None and acc_flat.size:
            # Established connections drop before the payload exchange;
            # connections_made counts only survivors.
            keepc = faults.connection_keep(acc_flat.size)
            if keepc is not None:
                acc_flat, win_flat = acc_flat[keepc], win_flat[keepc]
        self._exchange(win_flat, acc_flat)

        self.algo.end_round(self.state, r, local_rounds, active, self.live)

        if self.trace is not None:
            self.trace.append_round(r, sflat, tflat, win_flat, acc_flat, tags, active)

    # -- full runs -----------------------------------------------------------

    def run(self, max_rounds: int, *, check_every: int = 1) -> BatchedRunResult:
        """Run until every replica's convergence predicate or ``max_rounds``.

        With a fault plan, convergence checks are suppressed until the
        plan's quiesce round (see
        :meth:`repro.faults.plan.FaultPlan.quiesce_round`): transient
        events can make an absorbing predicate momentarily
        true-then-false, so only post-quiesce agreement certifies
        stabilization.
        """
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        T = self.replicas
        last_activation = int(self.activation.max())
        gate = self._faults.gate if self._faults is not None else 0
        perma = self._faults.perma_down if self._faults is not None else None
        if perma is None:
            converged = lambda: np.asarray(  # noqa: E731
                self.algo.converged(self.state), dtype=bool
            )
        else:
            # Permanently crashed nodes are frozen forever; stabilization
            # is agreement among the nodes that can still change state.
            live_nodes = ~perma

            def converged() -> np.ndarray:
                done = self.algo.node_done(self.state)
                if done is None:
                    return np.asarray(self.algo.converged(self.state), dtype=bool)
                return np.asarray(done, dtype=bool)[:, live_nodes].all(axis=1)

        rounds = np.full(T, max_rounds, dtype=np.int64)
        stabilized = np.zeros(T, dtype=bool)
        for r in range(1, max_rounds + 1):
            self.step(r)
            self.rounds_executed = r
            if r % check_every == 0 and r >= gate:
                conv = converged()
                newly = self.live & conv
                if newly.any():
                    rounds[newly] = r
                    stabilized[newly] = True
                    self.live = self.live & ~conv
                    if not self.live.any():
                        break
        if self.live.any() and max_rounds >= gate:
            # Horizon reached: replicas converging on the final round
            # outside the check stride still count, as in the single engine.
            conv = converged()
            stabilized[self.live & conv] = True
        return BatchedRunResult(
            stabilized=stabilized,
            rounds=rounds,
            rounds_after_last_activation=np.maximum(
                0, rounds - last_activation + 1
            ),
            trace=self.trace,
        )
