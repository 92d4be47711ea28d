"""Seeded event-queue simulator for the bounded-delay asynchronous model.

:class:`EventSimEngine` is the fourth engine tier.  Virtual time
advances in integer ticks; a priority queue of events, ordered by
``(tick, class, sequence)``, replaces the synchronous round loop.  Three
event kinds carry the protocol:

* **timer** — a node's local step: it refreshes its advertised tag,
  scans its up neighbors, and may issue a connection attempt; the node's
  next timer is then scheduled ``1..Δ`` ticks out (so every node takes a
  local step at least every ``Δ`` ticks — the bounded-delay guarantee);
* **connect** — a connection attempt arrives at its target ``1..Δ``
  ticks after being issued.  It establishes a connection iff the edge
  still exists, the target is up, and the target is *free*;
* **deliver** — one direction of an established connection's symmetric
  payload exchange arrives, again ``1..Δ`` ticks out.

**Connection reservation** enforces the mobile telephone model's
one-connection-at-a-time rule without rounds: a node is reserved from
the moment it issues an attempt until the attempt fails or both
payloads of the resulting connection have been delivered; reserved
nodes reject incoming attempts and cannot initiate.  Releases take
effect at the *end* of a tick, so within any single tick a node joins
at most one connection and never both proposes and accepts — which is
what lets the synchronous per-round invariants audit async traces.

**Trace bucketing**: with ``collect_trace=True`` the engine emits one
shared-format :class:`~repro.core.trace.RoundRecord` per tick (the
virtual-time bucket): proposals are connect-attempt *arrivals*,
connections are establishments, tags/active are the end-of-tick state.
``conformance.invariants.check_async_trace`` checks the applicable rule
subset plus scheduler fairness over the recorded event log.

**Faults** route through the same queue as scheduler-visible events:
crash-window edges and state-corruption events are queued at their
scheduled ticks (class 0 — they precede ordinary events of the same
tick, matching the synchronous start-of-round hook order); a crash
tears down the victim's connection and kills its timer chain, a rejoin
re-seeds the local clock (first step within ``Δ``); connection drops
fire at establishment; tag corruption flips the bits a scanner
*observes* (per scan, the per-tick analogue of the per-round radio
model).  Plan rounds are read as ticks.

Determinism: every stochastic choice draws from a stream derived from
``(seed, label)`` and the queue order is a deterministic function of
those draws, so identical ``(seed, Δ, scheduler)`` reproduces a
bit-identical event order, trace, and final state — across runs and
across worker processes.
"""

from __future__ import annotations

import heapq
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.asyncsim.node import AsyncNode, EventView
from repro.asyncsim.scheduler import Scheduler, make_scheduler
from repro.core.capabilities import check_supported
from repro.core.engine import ModelViolation
from repro.core.payload import Message, PayloadBudget
from repro.core.trace import RoundRecord, RunResult, Trace
from repro.graphs.dynamic import DynamicGraph
from repro.util.rng import make_rng, spawn_rngs

__all__ = ["EventSimEngine", "EventRecord"]

# Event kind codes (heap payload compactness; names are the public face).
_TIMER, _CONNECT, _DELIVER, _FAULT_EDGE, _CORRUPT = 0, 1, 2, 3, 4
_KIND_NAMES = ("timer", "connect", "deliver", "fault-edge", "corrupt")

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_PAIRS = np.empty((0, 2), dtype=np.int64)


class EventRecord(NamedTuple):
    """One scheduled event in the engine's event log.

    ``deliver - pending`` is the scheduler-chosen delay; the
    ``scheduler-fairness`` invariant asserts it lies in ``[1, Δ]`` for
    every record.  The log is also the object the determinism tests
    compare bit-for-bit.
    """

    kind: str
    node: int
    peer: int | None
    pending: int
    deliver: int


class EventSimEngine:
    """Executes :class:`AsyncNode` handlers under a bounded-delay scheduler.

    Parameters
    ----------
    dynamic_graph
        Topology source; queried at event-processing ticks (``τ`` is
        read in ticks).  Adaptive adversarial graphs are rejected — the
        event tier's adversary is the scheduler.
    nodes
        One :class:`AsyncNode` per vertex, index-aligned.
    seed
        Root seed; node, scheduler, and fault streams derive from it.
    delta
        Bounded-delay parameter ``Δ ≥ 1``.
    scheduler
        ``"random"``, ``"adversarial"``, or a :class:`Scheduler`
        instance (bound by the engine to ``Δ`` and a seeded stream).
    activation_rounds
        1-indexed activation tick per node (Section VIII staggered
        starts); a node's first timer fires exactly at activation.
    budget
        Per-connection payload budget (default: Section IV for ``N=n``).
    collect_trace
        Record one :class:`RoundRecord` per tick (implies the event log).
    collect_events
        Record the :class:`EventRecord` log without a full trace.
    fault_plan
        Optional :class:`~repro.faults.plan.FaultPlan`, rounds read as
        ticks; an empty plan is normalized away.
    stop_when
        Stabilization predicate over the (live) nodes; stored so
        :meth:`run` satisfies the harness ``EngineLike`` protocol.
    progress
        Optional ``nodes -> (n,) bool`` mask fed to observation-hungry
        schedulers (the adversarial targeting signal).
    """

    def __init__(
        self,
        dynamic_graph: DynamicGraph,
        nodes: Sequence[AsyncNode],
        *,
        seed: int | None = None,
        delta: int = 1,
        scheduler: Scheduler | str = "random",
        activation_rounds: Sequence[int] | None = None,
        budget: PayloadBudget | None = None,
        collect_trace: bool = False,
        collect_events: bool = False,
        fault_plan=None,
        stop_when: Callable[[Sequence[AsyncNode]], bool] | None = None,
        progress: Callable[[Sequence[AsyncNode]], np.ndarray] | None = None,
    ):
        n = dynamic_graph.n
        if len(nodes) != n:
            raise ValueError(f"need {n} nodes, got {len(nodes)}")
        if delta < 1:
            raise ValueError(f"delta must be >= 1, got {delta}")
        self.dg = dynamic_graph
        self.nodes = list(nodes)
        self.n = n
        self.delta = int(delta)
        self.budget = budget or PayloadBudget(n_upper=max(n, 2))
        if activation_rounds is None:
            self.activation = np.ones(n, dtype=np.int64)
        else:
            self.activation = np.asarray(activation_rounds, dtype=np.int64)
            if self.activation.shape != (n,) or self.activation.min() < 1:
                raise ValueError("activation_rounds must be n 1-indexed ticks")
        self._node_rngs = spawn_rngs(seed, n, "node")
        self.scheduler = (
            make_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
        )
        self.scheduler.bind(self.delta, make_rng(seed, "scheduler"))
        self._stop_when = stop_when
        self._progress = progress
        self._tag_lengths = [int(nd.tag_length) for nd in self.nodes]

        # -- mutable run state ------------------------------------------------
        self._heap: list = []
        self._seq = 0
        self._busy = np.zeros(n, dtype=bool)
        self._down = np.zeros(n, dtype=bool)
        self._tags = np.zeros(n, dtype=np.int64)
        self._timer_gen = np.zeros(n, dtype=np.int64)
        self._attempt_id = np.full(n, -1, dtype=np.int64)
        self._next_attempt = 0
        self._conn: dict[int, list] = {}
        self._next_conn = 0
        self._released: list[int] = []
        self._props: list[tuple[int, int]] = []
        self._conns: list[tuple[int, int]] = []
        self._emitted = 0
        self.trace = Trace() if collect_trace else None
        self.event_log: list[EventRecord] | None = (
            [] if (collect_events or collect_trace) else None
        )
        #: Events dispatched (timer/connect/deliver) — the bench unit.
        self.events_processed = 0
        #: Surviving established connections (2 payloads each).
        self.connections_made = 0
        #: Last completed tick (``rounds`` analogue for parity).
        self.rounds_executed = 0

        # -- fault plan (rounds read as ticks) --------------------------------
        fault_plan = check_supported(
            "async", self.nodes, graph=dynamic_graph, fault_plan=fault_plan,
            activation_rounds=activation_rounds,
        )
        self._plan = fault_plan
        self._crashes = None
        self._rejoins: dict[int, tuple[int, ...]] = {}
        self._drop_p: float | None = None
        self._flip_q: float | None = None
        self._gate = 0
        self._perma: np.ndarray | None = None
        self._fault_rng: np.random.Generator | None = None
        if fault_plan is not None:
            fault_plan.validate_for(n)
            self._fault_rng = make_rng(seed, "faults")
            self._gate = fault_plan.quiesce_round
            cr = fault_plan.crashes
            if cr is not None:
                self._crashes = cr
                self._rejoins = cr.rejoin_resets()
                perma = np.zeros(n, dtype=bool)
                for w in cr.windows:
                    if w.end is None:
                        perma[w.node] = True
                self._perma = perma if perma.any() else None
            drop = fault_plan.connection_drop
            if drop is not None:
                self._drop_p = drop.p
            flips = fault_plan.tag_corruption
            if flips is not None:
                self._flip_q = flips.q

        # -- seed the queue ---------------------------------------------------
        # Fault events are class 0: within a tick they precede ordinary
        # events, matching the synchronous start-of-round hook order
        # (crash edges and rejoin resets, then corruption, then steps).
        if self._crashes is not None:
            for t in sorted(self._crashes.transition_rounds()):
                self._push(t, 0, _FAULT_EDGE, -1, -1, None)
        if fault_plan is not None:
            for e in fault_plan.state_corruption:
                self._push(e.round, 0, _CORRUPT, -1, -1, e)
        # A node's first timer fires exactly at its activation tick.
        for v in range(n):
            self._push(int(self.activation[v]), 1, _TIMER, v, -1, 0)

    # -- queue plumbing -------------------------------------------------------

    def _push(self, tick: int, cls: int, kind: int, a: int, b: int, payload) -> None:
        heapq.heappush(self._heap, (tick, cls, self._seq, kind, a, b, payload))
        self._seq += 1

    def _schedule(self, kind: int, a: int, b: int, tick: int, payload) -> None:
        """Scheduler-delayed event: pends at ``tick``, delivers in ``[1, Δ]``."""
        name = _KIND_NAMES[kind]
        d = self.scheduler.delay(name, a, None if b < 0 else b, tick)
        d = int(d)
        if not 1 <= d <= self.delta:
            raise ModelViolation(
                f"scheduler {self.scheduler.name!r} returned delay {d} "
                f"outside [1, {self.delta}]"
            )
        self._push(tick + d, 1, kind, a, b, payload)
        if self.event_log is not None:
            self.event_log.append(
                EventRecord(name, a, None if b < 0 else b, tick, tick + d)
            )

    # -- event handlers -------------------------------------------------------

    def _tag_width_ok(self, v: int, tag: int) -> bool:
        b = self._tag_lengths[v]
        if b == 0:
            return tag == 0
        return 0 <= tag < (1 << b)

    def _participating(self, tick: int) -> np.ndarray:
        return (self.activation <= tick) & ~self._down

    def _corrupt_observed(self, tags: np.ndarray, bits: int) -> np.ndarray:
        """Flip each observed tag bit with probability ``q`` (per scan)."""
        for bit in range(bits):
            flip = self._fault_rng.random(tags.shape) < self._flip_q
            np.bitwise_xor(tags, 1 << bit, out=tags, where=flip)
        return tags

    def _on_timer(self, tick: int, v: int, gen: int) -> None:
        if gen != self._timer_gen[v] or self._down[v]:
            return  # stale clock chain (the node crashed since scheduling)
        self.events_processed += 1
        nd = self.nodes[v]
        rng = self._node_rngs[v]
        busy = bool(self._busy[v])
        if busy:
            nbrs = _EMPTY_IDS
            view = EventView(tick, nbrs, _EMPTY_IDS, rng, True)
        else:
            graph = self.dg.graph_at(tick)
            nbrs = graph.indices_intp[graph.indptr[v] : graph.indptr[v + 1]]
            nbrs = nbrs[self._participating(tick)[nbrs]]
            ntags = self._tags[nbrs]
            if self._flip_q is not None and nbrs.size:
                bits = max(self._tag_lengths)
                if bits:
                    ntags = self._corrupt_observed(ntags.copy(), bits)
            view = EventView(tick, nbrs, ntags, rng, False)
        target = nd.on_timer(view)
        tag = int(nd.tag)
        if not self._tag_width_ok(v, tag):
            raise ModelViolation(
                f"node {v} advertised tag {tag} outside {self._tag_lengths[v]} bits"
            )
        self._tags[v] = tag
        if target is not None:
            if busy:
                raise ModelViolation(f"node {v} proposed while occupied")
            target = int(target)
            pos = int(np.searchsorted(nbrs, target))
            if pos == nbrs.size or int(nbrs[pos]) != target:
                raise ModelViolation(
                    f"node {v} proposed to {target}, not an up neighbor at tick {tick}"
                )
            self._busy[v] = True
            aid = self._next_attempt
            self._next_attempt += 1
            self._attempt_id[v] = aid
            self._schedule(_CONNECT, v, target, tick, aid)
        self._schedule(_TIMER, v, -1, tick, gen)

    def _on_connect(self, tick: int, u: int, t: int, aid: int) -> None:
        self.events_processed += 1
        if aid != self._attempt_id[u]:
            return  # the proposer crashed while the attempt was in flight
        self._attempt_id[u] = -1
        graph = self.dg.graph_at(tick)
        row = graph.neighbors(u)
        pos = int(np.searchsorted(row, t))
        edge = pos < row.size and int(row[pos]) == t
        if not edge or self._down[t] or self.activation[t] > tick:
            # The link (or the target) vanished in flight: the radio
            # handshake never happened — no proposal materializes.
            self._released.append(u)
            return
        self._props.append((u, t))
        if self._busy[t]:
            self._released.append(u)  # reserved target: attempt rejected
            return
        self._busy[t] = True
        if self._drop_p is not None and self._fault_rng.random() < self._drop_p:
            # Handshake succeeded, transfer did not (ConnectionDropModel);
            # both endpoints stay reserved to the end of the tick.
            self._released.append(u)
            self._released.append(t)
            return
        msg_u = self.nodes[u].on_connect(t)
        msg_t = self.nodes[t].on_connect(u)
        for m, owner in ((msg_u, u), (msg_t, t)):
            if not isinstance(m, Message):
                raise ModelViolation(f"node {owner} composed a non-Message")
            self.budget.validate(m)
        cid = self._next_conn
        self._next_conn += 1
        self._conn[cid] = [u, t, 2]
        self._conns.append((u, t))
        self.connections_made += 1
        self._schedule(_DELIVER, t, u, tick, (cid, msg_u))
        self._schedule(_DELIVER, u, t, tick, (cid, msg_t))

    def _on_deliver(self, tick: int, v: int, peer: int, payload) -> None:
        self.events_processed += 1
        cid, msg = payload
        conn = self._conn.get(cid)
        if conn is None:
            return  # connection torn down by a crash while in flight
        self.nodes[v].on_deliver(peer, msg)
        conn[2] -= 1
        if conn[2] == 0:
            del self._conn[cid]
            self._released.append(conn[0])
            self._released.append(conn[1])

    def _on_fault_edge(self, tick: int) -> None:
        down = self._crashes.down_at(tick, self.n)
        newly_down = down & ~self._down
        newly_up = ~down & self._down
        self._down = down
        for v in np.flatnonzero(newly_down):
            v = int(v)
            self._busy[v] = False
            self._attempt_id[v] = -1
            self._timer_gen[v] += 1  # kill the in-flight clock chain
            dead = [c for c, cc in self._conn.items() if v in (cc[0], cc[1])]
            for cid in dead:
                u0, t0, _ = self._conn.pop(cid)
                other = t0 if u0 == v else u0
                if not self._down[other]:
                    self._busy[other] = False  # the link died; peer is free
        for v in self._rejoins.get(tick, ()):
            nd = self.nodes[v]
            nd.reset()
            self._tags[v] = int(nd.tag)
        for v in np.flatnonzero(newly_up):
            # Re-seed the local clock: first step within Δ of rejoining.
            self._schedule(_TIMER, int(v), -1, tick, int(self._timer_gen[v]))

    def _on_corrupt(self, tick: int, event) -> None:
        victims = self._fault_rng.choice(
            self.n, size=event.victim_count(self.n), replace=False
        )
        for v in victims:
            self.nodes[int(v)].corrupt(self._fault_rng, self.n)

    def _dispatch(self, tick: int, kind: int, a: int, b: int, payload) -> None:
        if kind == _TIMER:
            self._on_timer(tick, a, payload)
        elif kind == _CONNECT:
            self._on_connect(tick, a, b, payload)
        elif kind == _DELIVER:
            self._on_deliver(tick, a, b, payload)
        elif kind == _FAULT_EDGE:
            self._on_fault_edge(tick)
        else:
            self._on_corrupt(tick, payload)

    # -- trace emission -------------------------------------------------------

    def _emit_gap_records(self, tick: int) -> None:
        """Records for event-free ticks in ``(emitted, tick)`` (state is
        frozen there — every state change is an event)."""
        for g in range(self._emitted + 1, tick):
            part = self._participating(g)
            self.trace.append(
                RoundRecord(
                    round_index=g,
                    proposals=_EMPTY_PAIRS,
                    connections=_EMPTY_PAIRS,
                    tags=np.where(part, self._tags, -1),
                    active=part,
                )
            )
        self._emitted = max(self._emitted, tick - 1)

    def _emit_record(self, tick: int) -> None:
        part = self._participating(tick)
        self.trace.append(
            RoundRecord(
                round_index=tick,
                proposals=np.asarray(self._props, dtype=np.int64).reshape(-1, 2),
                connections=np.asarray(self._conns, dtype=np.int64).reshape(-1, 2),
                tags=np.where(part, self._tags, -1),
                active=part,
            )
        )
        self._emitted = tick
        self._props.clear()
        self._conns.clear()

    # -- runs -----------------------------------------------------------------

    def run_until(
        self,
        max_ticks: int,
        stop_when: Callable[[Sequence[AsyncNode]], bool],
        *,
        check_every: int = 1,
    ) -> RunResult:
        """Run until ``stop_when`` holds at a tick boundary or ``max_ticks``.

        The predicate is evaluated at the first event tick of each
        ``check_every``-tick window (state only changes at events), is
        gated until the fault plan's quiesce tick, and quantifies over
        the live nodes only — permanently crashed nodes are excluded,
        exactly as in the synchronous tiers.  ``RunResult.rounds`` is
        the final tick.
        """
        if max_ticks < 1:
            raise ValueError("max_ticks must be >= 1")
        check_every = max(1, int(check_every))
        last_activation = int(self.activation.max())
        if self._perma is not None:
            observed = [self.nodes[v] for v in np.flatnonzero(~self._perma)]
        else:
            observed = self.nodes
        heap = self._heap
        wants_obs = self.scheduler.wants_observation
        next_check = check_every
        while heap and heap[0][0] <= max_ticks:
            tick = heap[0][0]
            if self.trace is not None:
                self._emit_gap_records(tick)
            while heap and heap[0][0] == tick:
                _, _, _, kind, a, b, payload = heapq.heappop(heap)
                self._dispatch(tick, kind, a, b, payload)
            # Releases take effect at end of tick: one connection per
            # node per virtual-time bucket.
            for v in self._released:
                if not self._down[v]:
                    self._busy[v] = False
            self._released.clear()
            if self.trace is not None:
                self._emit_record(tick)
            else:
                self._props.clear()
                self._conns.clear()
            self.rounds_executed = tick
            if wants_obs:
                prog = None if self._progress is None else self._progress(self.nodes)
                self.scheduler.observe(tick, prog)
            if tick >= next_check:
                next_check = (tick // check_every + 1) * check_every
                if tick >= self._gate and stop_when(observed):
                    return RunResult(
                        stabilized=True,
                        rounds=tick,
                        rounds_after_last_activation=max(0, tick - last_activation + 1),
                        trace=self.trace,
                    )
        if self.trace is not None:
            self._emit_gap_records(max_ticks + 1)
        self.rounds_executed = max_ticks
        stabilized = max_ticks >= self._gate and stop_when(observed)
        return RunResult(
            stabilized=stabilized,
            rounds=max_ticks,
            rounds_after_last_activation=max(0, max_ticks - last_activation + 1),
            trace=self.trace,
        )

    def run(self, max_rounds: int, *, check_every: int = 1) -> RunResult:
        """Harness ``EngineLike`` entry point (``max_rounds`` = max ticks)."""
        if self._stop_when is None:
            raise ValueError(
                "EventSimEngine.run requires stop_when at construction "
                "(or call run_until)"
            )
        return self.run_until(max_rounds, self._stop_when, check_every=check_every)
