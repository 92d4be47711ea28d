"""Reference round engine for the mobile telephone model.

This engine executes :class:`~repro.core.protocol.NodeProtocol` instances
with straightforward per-node Python loops, implementing the model of
paper Section III *literally*:

* the topology of round ``r`` comes from a dynamic graph honouring ``τ``;
* every active node advertises a ``b``-bit tag, scans (learning active
  neighbors and their tags), then proposes to one neighbor or listens;
* a node that proposed cannot accept; a listening node with incoming
  proposals accepts exactly one chosen uniformly at random;
* each connected pair exchanges one budget-checked message per direction;
* nodes may activate at different rounds (Section VIII); inactive nodes
  are invisible to the scan and cannot be proposed to.

The engine is the semantic ground truth: the vectorized engine
(:mod:`repro.core.vectorized`) is cross-validated against it.  Use this
one for clarity and invariants, the vectorized one for parameter sweeps.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.capabilities import check_supported
from repro.core.payload import Message, PayloadBudget
from repro.core.protocol import NodeProtocol, RoundView
from repro.core.trace import RoundRecord, RunResult, Trace
from repro.graphs.dynamic import DynamicGraph
from repro.util.rng import make_rng, spawn_rngs

__all__ = ["ReferenceEngine", "ModelViolation"]


class ModelViolation(RuntimeError):
    """A protocol broke a rule of the mobile telephone model."""


class ReferenceEngine:
    """Executes node protocols over a dynamic graph, round by round.

    Parameters
    ----------
    dynamic_graph
        Topology source (must stay connected; ``τ`` contract assumed).
    protocols
        One protocol per vertex, index-aligned.
    seed
        Root seed; node and engine streams are derived from it.
    activation_rounds
        1-indexed activation round per node (default: all activate in
        round 1).  A node participates from its activation round onward.
    budget
        Per-connection payload budget (default: the Section IV budget for
        ``N = n``).
    collect_trace
        Record a full :class:`~repro.core.trace.Trace` (slower).
    fault_plan
        Optional :class:`~repro.faults.plan.FaultPlan` applied at the
        standard hook points (see :mod:`repro.faults.plan`); an empty
        plan is normalized away and costs nothing.
    """

    def __init__(
        self,
        dynamic_graph: DynamicGraph,
        protocols: Sequence[NodeProtocol],
        *,
        seed: int | None = None,
        activation_rounds: Sequence[int] | None = None,
        budget: PayloadBudget | None = None,
        collect_trace: bool = False,
        fault_plan=None,
    ):
        n = dynamic_graph.n
        if len(protocols) != n:
            raise ValueError(f"need {n} protocols, got {len(protocols)}")
        self.dg = dynamic_graph
        self.protocols = list(protocols)
        self.n = n
        self.budget = budget or PayloadBudget(n_upper=max(n, 2))
        if activation_rounds is None:
            self.activation = np.ones(n, dtype=np.int64)
        else:
            self.activation = np.asarray(activation_rounds, dtype=np.int64)
            if self.activation.shape != (n,) or self.activation.min() < 1:
                raise ValueError("activation_rounds must be n 1-indexed rounds")
        self._node_rngs = spawn_rngs(seed, n, "node")
        self._engine_rng = make_rng(seed, "engine")
        fault_plan = check_supported(
            "reference", self.protocols, graph=dynamic_graph, fault_plan=fault_plan,
            activation_rounds=activation_rounds,
        )
        if fault_plan is not None:
            from repro.faults.apply import SingleFaultState

            self._faults = SingleFaultState(
                fault_plan,
                n,
                make_rng(seed, "faults"),
                tag_length=max(p.tag_length for p in self.protocols),
            )
        else:
            self._faults = None
        self.trace = Trace() if collect_trace else None
        self.rounds_executed = 0
        #: Cumulative connections established (2 messages each).
        self.connections_made = 0
        #: Live/active mask of the most recent round (``None`` before the
        #: first).  Open-world monitors read it after each ``step``.
        self.last_active: np.ndarray | None = None

    # -- single round -------------------------------------------------------

    def _tag_width_ok(self, proto: NodeProtocol, tag: int) -> bool:
        if proto.tag_length == 0:
            return tag == 0
        return 0 <= tag < (1 << proto.tag_length)

    def step(self, r: int) -> None:
        """Execute global round ``r`` (1-indexed)."""
        from repro.core.protocol import RumorProtocol
        from repro.graphs.adversary import AdaptiveDynamicGraph

        faults = self._faults
        if isinstance(self.dg, AdaptiveDynamicGraph):
            # The reference engine exposes the informed mask for rumor
            # protocols; other protocols expose nothing.
            obs = None
            if all(isinstance(p, RumorProtocol) for p in self.protocols):
                obs = np.array([p.informed for p in self.protocols], dtype=bool)
                if faults is not None:
                    # Dead slots are invisible: the adversary may not
                    # react to state frozen in a crashed/departed slot.
                    up = faults.up_mask(r)
                    if up is not None:
                        obs = obs & up
            self.dg.observe(r, obs)
        graph = self.dg.graph_at(r)
        active = self.activation <= r
        if faults is not None:
            # Start-of-round fault events: rejoin resets, then corruption.
            for v in faults.rejoin_resets(r):
                self.protocols[v].reset()
            for victims in faults.corruption_victims(r):
                for v in victims:
                    self.protocols[v].corrupt(faults.rng, self.n)
            up = faults.up_mask(r)
            if up is not None:
                active = active & up
        #: Final live/active mask of this round (monitors read it).
        self.last_active = active
        tags = np.full(self.n, -1, dtype=np.int64)

        # 1. Tag selection happens before the scan (paper Section III).
        for u in np.flatnonzero(active):
            proto = self.protocols[u]
            local_round = int(r - self.activation[u] + 1)
            tag = proto.choose_tag(local_round, self._node_rngs[u])
            if not self._tag_width_ok(proto, tag):
                raise ModelViolation(
                    f"node {u} advertised tag {tag} outside {proto.tag_length} bits"
                )
            tags[u] = tag

        if faults is not None:
            # Corrupt at the advertiser's radio: the node chose its tag
            # normally; every scanner observes the corrupted value.
            tags = faults.corrupt_tags(tags, active)

        # 2-3. Scan and decide.
        proposals: list[tuple[int, int]] = []
        proposed = np.zeros(self.n, dtype=bool)
        indptr, indices = graph.indptr, graph.indices_intp
        for u in np.flatnonzero(active):
            proto = self.protocols[u]
            nbrs = indices[indptr[u] : indptr[u + 1]]
            nbrs = nbrs[active[nbrs]]
            view = RoundView(
                local_round=int(r - self.activation[u] + 1),
                neighbors=nbrs,
                neighbor_tags=tags[nbrs],
                rng=self._node_rngs[u],
            )
            target = proto.decide(view)
            if target is None:
                continue
            target = int(target)
            # nbrs is sorted (CSR adjacency, order preserved by the
            # active filter), so membership is a binary search.
            pos = int(np.searchsorted(nbrs, target))
            if pos == nbrs.size or int(nbrs[pos]) != target:
                raise ModelViolation(
                    f"node {u} proposed to {target}, not an active neighbor in round {r}"
                )
            proposals.append((int(u), target))
            proposed[u] = True

        # 4. Acceptance: a proposer cannot receive; listeners accept one
        #    incoming proposal uniformly at random.
        incoming: dict[int, list[int]] = {}
        for s, t in proposals:
            if not proposed[t]:
                incoming.setdefault(t, []).append(s)
        connections: list[tuple[int, int]] = []
        for t in sorted(incoming):
            senders = incoming[t]
            pick = senders[int(self._engine_rng.integers(0, len(senders)))]
            connections.append((pick, t))

        if faults is not None and connections:
            # Established connections drop before the payload exchange;
            # connections_made counts only survivors.
            keep = faults.connection_keep(len(connections))
            if keep is not None:
                connections = [c for c, k in zip(connections, keep) if k]

        # 5. Bounded symmetric exchange per connection.
        self.connections_made += len(connections)
        for s, t in connections:
            msg_s = self.protocols[s].compose(t)
            msg_t = self.protocols[t].compose(s)
            for m, owner in ((msg_s, s), (msg_t, t)):
                if not isinstance(m, Message):
                    raise ModelViolation(f"node {owner} composed a non-Message")
                self.budget.validate(m)
            self.protocols[s].deliver(t, msg_t)
            self.protocols[t].deliver(s, msg_s)

        # 6. Round end hooks.
        for u in np.flatnonzero(active):
            self.protocols[u].end_round()

        if self.trace is not None:
            self.trace.append(
                RoundRecord(
                    round_index=r,
                    proposals=np.asarray(proposals, dtype=np.int64).reshape(-1, 2),
                    connections=np.asarray(connections, dtype=np.int64).reshape(-1, 2),
                    tags=tags.copy(),
                    active=active.copy(),
                )
            )

    # -- full runs ------------------------------------------------------------

    def run(
        self,
        max_rounds: int,
        stop_when: Callable[[list[NodeProtocol]], bool],
        *,
        check_every: int = 1,
        quiescent_stop: bool = False,
    ) -> RunResult:
        """Run until ``stop_when(protocols)`` or ``max_rounds``.

        The predicate must describe an *absorbing* condition of the
        algorithm (e.g. every node holds the eventual leader) so that
        checking it every ``check_every`` rounds cannot miss stabilization
        permanently — it only quantizes the reported round count.

        ``quiescent_stop=True`` additionally asserts that once the
        predicate holds, every later round is a global no-op (the system
        is at a state fixed point — true for e.g. blind gossip, where all
        further exchanges trade identical minima).  The engine then
        checks the predicate every round and, on success between
        checkpoints, *burns the remaining rounds arithmetically* instead
        of executing them: the reported round count is exactly what the
        plain loop would report (the next ``check_every`` checkpoint,
        capped at ``max_rounds``), but the skipped no-op rounds cost
        nothing.  Engine RNG state afterwards differs from a plain run
        (the skipped rounds' draws never happen), which is unobservable
        within this run.  Ignored (plain loop) with a fault plan or an
        active trace, which must see every round.

        With a fault plan, checks are suppressed until the plan's quiesce
        round (the last scheduled crash edge or corruption event):
        transient events can make an absorbing predicate momentarily
        true-then-false, so only post-quiesce agreement certifies
        stabilization.  Permanently crashed nodes (``end=None`` windows)
        are excluded from the predicate: their state is frozen forever,
        so counting them would make stabilization unreachable for every
        run in which the winner spreads after the crash.
        """
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        last_activation = int(self.activation.max())
        gate = self._faults.gate if self._faults is not None else 0
        perma = self._faults.perma_down if self._faults is not None else None
        if perma is None:
            observed = self.protocols
        else:
            observed = [self.protocols[v] for v in np.flatnonzero(~perma)]
        fast_forward = (
            quiescent_stop
            and check_every > 1
            and self._faults is None
            and self.trace is None
        )
        for r in range(1, max_rounds + 1):
            self.step(r)
            self.rounds_executed = r
            if r % check_every == 0 and r >= gate and stop_when(observed):
                return RunResult(
                    stabilized=True,
                    rounds=r,
                    rounds_after_last_activation=max(0, r - last_activation + 1),
                    trace=self.trace,
                )
            if fast_forward and stop_when(observed):
                # Quiescent: burn the rounds to the next checkpoint without
                # executing them (they are no-ops by the caller's assertion).
                rounds = min((r // check_every + 1) * check_every, max_rounds)
                self.rounds_executed = rounds
                return RunResult(
                    stabilized=True,
                    rounds=rounds,
                    rounds_after_last_activation=max(0, rounds - last_activation + 1),
                    trace=self.trace,
                )
        stabilized = stop_when(observed)
        return RunResult(
            stabilized=stabilized,
            rounds=max_rounds,
            rounds_after_last_activation=max(0, max_rounds - last_activation + 1),
            trace=self.trace,
        )
