"""Vectorized round engine for parameter sweeps.

Semantically identical to :class:`~repro.core.engine.ReferenceEngine` but
the round is executed as a handful of NumPy array operations (the
profiling-guided optimization of the per-node loops):

1. the algorithm produces per-node tags and a sender mask;
2. :func:`~repro.util.csrops.segmented_random_pick` chooses each sender's
   proposal target uniformly among its eligible neighbors and returns
   compact ``(proposers, targets)`` pairs (a sparse round picks with
   :func:`~repro.util.csrops.segmented_random_pick_subset`, in the same
   form);
3. :func:`~repro.core.batched.connect` drops proposals to nodes that
   themselves proposed — a proposer cannot receive — and has each
   remaining target accept one proposal uniformly at random;
4. the algorithm applies the state exchange for the connected pairs.

Algorithms plug in via :class:`~repro.core.batched.BatchedAlgorithm`,
the one array-kernel interface every array engine runs; this engine runs
it at one replica, so every state array carries a length-1 replica axis.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.core.batched import (
    BatchedAlgorithm,
    SparseFrontier,
    _frontier_limit,
    _live_eligibility,
    _resolve_sparse_mode,
    connect,
)
from repro.core.capabilities import check_supported, unsupported
from repro.core.trace import RoundRecord, RunResult, Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.faults.plan import FaultPlan
from repro.graphs.adversary import AdaptiveDynamicGraph
from repro.graphs.dynamic import DynamicGraph
from repro.util.csrops import segmented_random_pick, segmented_random_pick_subset
from repro.util.rng import make_rng

__all__ = ["VectorizedEngine"]


class VectorizedEngine:
    """Runs a :class:`~repro.core.batched.BatchedAlgorithm` at one replica.

    ``seed`` is the replica's trial seed: ``init_state`` receives
    ``[seed]``, round randomness is the ``"vec-engine"`` stream and fault
    randomness the ``"faults"`` stream off it.  ``None`` draws a fresh
    seed from OS entropy.
    """

    def __init__(
        self,
        dynamic_graph: DynamicGraph,
        algorithm: BatchedAlgorithm,
        *,
        seed: int | None = None,
        activation_rounds: Sequence[int] | np.ndarray | None = None,
        fault_plan: "FaultPlan | None" = None,
        collect_trace: bool = False,
        sparse: str | None = None,
    ):
        self.dg = dynamic_graph
        self.algo = algorithm
        self.n = dynamic_graph.n
        if activation_rounds is None:
            self.activation = np.ones(self.n, dtype=np.int64)
        else:
            self.activation = np.asarray(activation_rounds, dtype=np.int64)
            if self.activation.shape != (self.n,) or self.activation.min() < 1:
                raise ValueError("activation_rounds must be n 1-indexed rounds")
        seed = int(make_rng(None).integers(2**62)) if seed is None else int(seed)
        self._rng = make_rng(seed, "vec-engine")
        config = dict(
            graph=dynamic_graph, fault_plan=fault_plan, activation_rounds=activation_rounds
        )
        fault_plan = check_supported("vectorized", algorithm, **config)
        if fault_plan is not None:
            from repro.faults.apply import SingleFaultState

            self._faults: SingleFaultState | None = SingleFaultState(
                fault_plan,
                self.n,
                make_rng(seed, "faults"),
                tag_length=algorithm.tag_length,
            )
        else:
            self._faults = None
        self.state = self.algo.init_state(self.n, np.array([seed], dtype=np.int64))
        self._live = np.ones(1, dtype=bool)
        #: Optional full trace, in the reference engine's record format.
        self.trace = Trace() if collect_trace else None
        self.rounds_executed = 0
        #: Cumulative connections established (2 messages each; the
        #: model's communication-cost unit for experiments like E15).
        self.connections_made = 0
        # Per-round connection callback, used by instrumented experiments
        # (e.g. counting cut-crossing connections in the PPUSH experiment).
        self.on_connections: Callable[[int, np.ndarray, np.ndarray], None] | None = None
        # -- sparse-activity rounds (large-n path) -------------------------
        # Only engaged when the run asks nothing the frontier bookkeeping
        # cannot track: the ``"sparse"`` row of TIERS.  Sparse rounds are
        # distribution-equivalent to dense rounds over state trajectories;
        # the decision never depends on whether a trace is collected, so
        # traced and untraced runs of one seed stay identical.
        sparse_ok = not unsupported("sparse", algorithm, **config)
        mode = _resolve_sparse_mode(sparse)
        #: Frontier-size limit of a sparse round; ``None`` = dense only.
        self._sparse_limit = _frontier_limit(mode, self.n) if sparse_ok else None
        #: Undone-node set of the sparse endgame (at one replica flat
        #: ``t*n + v`` ids are vertex ids).
        algo, state, n = self.algo, self.state, self.n
        self.frontier = SparseFrontier(
            n,
            1,
            lambda: algo.node_done(state),
            lambda ids: algo.node_done_subset_flat(state, ids, n),
        )
        self._proposed = np.zeros(self.n, dtype=bool)
        self._adaptive = isinstance(dynamic_graph, AdaptiveDynamicGraph)
        #: First round in which every node has activated.
        self._all_activated_by = int(self.activation.max())
        #: ``active`` of every round in which all nodes are activated and
        #: up: one shared all-True mask, read-only so no consumer can
        #: corrupt a later round through it.
        self._all_active = np.ones(self.n, dtype=bool)
        self._all_active.setflags(write=False)
        #: Live/active mask of the most recent round (``None`` before the
        #: first).  Open-world monitors read it after each ``step``.
        self.last_active: np.ndarray | None = None

    def _converged(self) -> bool:
        return bool(self.algo.converged(self.state)[0])

    def _exchange(self, winners: np.ndarray, acceptors: np.ndarray) -> None:
        """Apply the exchange for the connected pairs."""
        if acceptors.size:
            self.connections_made += int(acceptors.size)
            self.algo.exchange(self.state, winners, acceptors)
            self.frontier.absorb(winners, acceptors)

    def _try_sparse_step(self, r: int) -> bool:
        """Run round ``r`` on the frontier's 2-hop closure when it fits the
        sparse limit; ``False`` when the round must run dense instead.

        Instrumented runs (``on_connections``) stay dense: the callback
        must see the passive done–done connections the frontier skips.
        """
        if self.on_connections is not None:
            return False
        hit = self.frontier.closure(self.dg, r, self._sparse_limit)
        if hit is None:
            return False
        graph, rows = hit
        rng = self._rng
        coins = self.algo.sparse_senders_flat(self.state, rows, rng)
        proposers, targets = segmented_random_pick_subset(
            graph.indptr, graph.indices, rng, rows[coins]
        )
        acceptors, winners = connect(self._proposed, proposers, targets, rng)
        self._exchange(winners, acceptors)
        # Sparse preconditions (sync activation, no faults) mean every
        # node is live this round.
        self.last_active = self._all_active
        if self.trace is not None:
            # tag_length == 0 and all-sync activation are preconditions of
            # the sparse path, so tags are all zeros and everyone is
            # active — same records the dense round would produce.
            self.trace.append(
                RoundRecord(
                    round_index=r,
                    proposals=np.column_stack([proposers, targets]).reshape(-1, 2),
                    connections=np.column_stack([winners, acceptors]).reshape(-1, 2),
                    tags=np.zeros(self.n, dtype=np.int64),
                    active=np.ones(self.n, dtype=bool),
                )
            )
        return True

    def step(self, r: int) -> None:
        """Execute global round ``r`` (1-indexed)."""
        if self._sparse_limit is not None and self._try_sparse_step(r):
            return
        faults = self._faults
        if self._adaptive:
            obs = self.algo.observable(self.state)
            if obs is not None:
                obs = obs[0]  # the one replica's (n,) observation
                up = faults.up_mask(r) if faults is not None else None
                if up is not None:
                    # Dead slots are invisible: the adversary may not react
                    # to state frozen in a crashed/departed slot.
                    obs = obs & up
            self.dg.observe(r, obs)
        graph = self.dg.graph_at(r)
        if r >= self._all_activated_by:
            active = self._all_active
        else:
            active = self.activation <= r
        if self._all_activated_by == 1:
            local_rounds = np.full(self.n, r, dtype=np.int64)
        else:
            local_rounds = np.maximum(r - self.activation + 1, 0)
        rng = self._rng

        if faults is not None:
            # Start-of-round fault events: rejoin resets, then corruption.
            nodes = faults.rejoin_resets(r)
            if nodes.size:
                self.algo.reset_nodes(self.state, nodes, faults.rng)
            for victims in faults.corruption_victims(r):
                self.algo.corrupt_state(self.state, victims[None], faults.rng)
            up = faults.up_mask(r)
            if up is not None:
                active = active & up
        #: Final live/active mask of this round (monitors read it).
        self.last_active = active

        tags = self.algo.tags(self.state, local_rounds, active, rng)
        sender_mask = self.algo.senders(self.state, tags, local_rounds, active, rng)[0]
        if faults is not None and tags is not None:
            # Corrupt at the advertiser's radio: the sender decision used
            # the intended tag; eligibility below sees the corrupted one.
            tags = faults.corrupt_tags(tags, active)

        # Eligibility: target must be active; algorithms may restrict
        # further.  With every node active and no algorithm mask the pick
        # is unmasked: its draw over the degrees is the masked kernel's
        # draw over an all-True mask, so both paths consume the same RNG.
        recv = self.algo.receiver_mask(self.state, tags)
        entry = self.algo.eligible_flat(self.state, tags, graph)
        sender_mask, nb_mask = _live_eligibility(
            sender_mask,
            None if recv is None else recv[0],
            active,
            active is self._all_active,
        )
        # Senders that issued a proposal, ascending, and their targets.
        proposers, targets = segmented_random_pick(
            graph.indptr,
            graph.indices,
            rng,
            active=sender_mask,
            neighbor_mask=nb_mask,
            flat_mask=None if entry is None else entry[0],
        )
        acceptors, winners = connect(self._proposed, proposers, targets, rng)

        if faults is not None and acceptors.size:
            # Established connections drop before the payload exchange;
            # connections_made counts only survivors.
            keep = faults.connection_keep(acceptors.size)
            if keep is not None:
                acceptors, winners = acceptors[keep], winners[keep]

        self._exchange(winners, acceptors)
        if self.on_connections is not None:
            self.on_connections(r, winners, acceptors)

        self.algo.end_round(self.state, r, local_rounds, active, self._live)

        if self.trace is not None:
            self.trace.append(
                RoundRecord(
                    round_index=r,
                    # All issued proposals, ascending by proposer — before
                    # the proposer-cannot-receive filter, as the reference.
                    proposals=np.column_stack([proposers, targets]).reshape(-1, 2),
                    connections=np.column_stack([winners, acceptors]).reshape(-1, 2),
                    tags=np.where(active, 0 if tags is None else tags[0], -1).astype(
                        np.int64
                    ),
                    active=active.copy(),
                )
            )

    def run(self, max_rounds: int, *, check_every: int = 1) -> RunResult:
        """Run until the algorithm's convergence predicate or ``max_rounds``.

        With a fault plan, convergence checks are suppressed until the
        plan's quiesce round (the last scheduled crash edge or corruption
        event): transient events can make an absorbing predicate
        momentarily true-then-false, so only post-quiesce agreement
        certifies stabilization.
        """
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        last_activation = int(self.activation.max())
        gate = self._faults.gate if self._faults is not None else 0
        perma = self._faults.perma_down if self._faults is not None else None
        if perma is None:
            converged = self._converged
        else:
            # Permanently crashed nodes are frozen forever; stabilization
            # is agreement among the nodes that can still change state.
            live = ~perma

            def converged() -> bool:
                done = self.algo.node_done(self.state)
                if done is None:
                    return self._converged()
                return bool(done[0, live].all())

        # Quiet-round fast-forward: once every node is done and the
        # algorithm certifies further rounds are no-ops, rounds burned
        # toward the next checkpoint (e.g. fixed-horizon runs with
        # check_every > max_rounds) are counted arithmetically instead of
        # simulated.  The reported round is exactly the one the plain loop
        # would report — the next checkpoint, capped at the horizon —
        # so round-count semantics are unchanged.  Suppressed under fault
        # plans (events could still fire) and while tracing (the skipped
        # rounds' records would be missing).
        fast_forward = (
            self.algo.quiescent_when_done
            and check_every > 1
            and self._faults is None
            and self.trace is None
        )
        for r in range(1, max_rounds + 1):
            self.step(r)
            self.rounds_executed = r
            if r % check_every == 0 and r >= gate and converged():
                return RunResult(
                    stabilized=True,
                    rounds=r,
                    rounds_after_last_activation=max(0, r - last_activation + 1),
                    trace=self.trace,
                )
            if fast_forward and converged():
                rounds = min((r // check_every + 1) * check_every, max_rounds)
                self.rounds_executed = rounds
                return RunResult(
                    stabilized=True,
                    rounds=rounds,
                    rounds_after_last_activation=max(0, rounds - last_activation + 1),
                    trace=self.trace,
                )
        return RunResult(
            stabilized=converged(),
            rounds=max_rounds,
            rounds_after_last_activation=max(0, max_rounds - last_activation + 1),
            trace=self.trace,
        )
