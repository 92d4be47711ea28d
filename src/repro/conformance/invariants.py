"""Model-invariant checkers for execution traces.

Each checker validates one hard constraint of the mobile telephone model
(paper Section III) against a recorded :class:`~repro.core.trace.Trace`
— the same record format for all three engine tiers, so one suite audits
the reference, vectorized, and batched engines alike:

================================  =============================================
rule slug                         paper constraint
================================  =============================================
``connection-exclusivity``        a node joins at most one connection per round
``send-xor-receive``              a proposer cannot accept; an acceptor cannot
                                  have proposed; every connection pairs an
                                  actual proposer with its proposed target
``proposals-on-edges``            proposals go only along edges of ``G_r``,
                                  between distinct active nodes
``tag-width``                     advertised tags fit in ``b`` bits; inactive
                                  nodes advertise nothing (recorded as ``-1``)
``tau-stability``                 the topology is constant within each
                                  ``τ``-round epoch
``activation-consistency``        the per-round active mask equals
                                  "activated and not crashed" under the
                                  attached :class:`~repro.faults.plan.FaultPlan`
``uniform-acceptance``            a listener with ``k`` incoming proposals
                                  accepts each with probability ``1/k``
                                  (pooled z-test over the whole trace)
``scheduler-fairness``            (async tier) every scheduled event is
                                  delivered within ``[1, Δ]`` ticks of
                                  becoming pending
``membership-silence``            (open world) an absent slot neither
                                  proposes, accepts, nor advertises a tag
``membership-cap``                (open world) the live population stays in
                                  ``[1, max_live]`` every recorded round
``join-state-freshness``          (open world) every join / clean departure
                                  is covered by the engines' reset stream
================================  =============================================

The asynchronous event tier (:mod:`repro.asyncsim`) buckets its trace by
virtual-time tick — one :class:`~repro.core.trace.RoundRecord` per tick —
and :func:`check_async_trace` runs the structural rules unchanged over
those buckets.  Two rules change meaning there: uniform-acceptance is
*not* checked (connection attempts are accepted first-come first-served,
an order bias that is a feature of the async model, not a bug of the
engine), and send-xor-receive drops its "listener must accept" half
(attempts that reach a reserved node are legitimately rejected), exactly
as it does for sync traces with a connection-drop fault model.

Checkers return :class:`Violation` records rather than raising, so the
differential fuzzer can collect every problem of a run and shrink the
configuration that produced it.

The uniform-acceptance rule is statistical: one trace rarely holds enough
multi-proposal rounds to power a test, so :class:`AcceptanceStats` pools
samples across traces and only flags at ``N ≥ 200`` samples with
``|z| > 5`` — vanishingly unlikely under the null, persistent under any
real bias (e.g. always accepting the lowest sender id).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.trace import BatchedTrace, Trace
from repro.graphs.dynamic import DynamicGraph, epoch_of_round
from repro.util.csrops import all_distinct

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.faults.plan import FaultPlan

__all__ = [
    "Violation",
    "AcceptanceStats",
    "check_trace",
    "check_async_trace",
    "check_batched_trace",
    "check_join_freshness",
    "check_membership_round",
    "check_scheduler_fairness",
    "check_tau_stability",
]

#: Pooled-sample floor below which the uniform-acceptance test stays silent.
ACCEPTANCE_MIN_SAMPLES = 200
#: |z| threshold for flagging acceptance bias (~2.9e-7 false-positive rate).
ACCEPTANCE_Z_THRESHOLD = 5.0


@dataclass(frozen=True)
class Violation:
    """One broken model rule, attributable to a round of a trace."""

    rule: str
    round_index: int | None
    detail: str

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        where = f"round {self.round_index}" if self.round_index else "trace"
        return f"[{self.rule}] {where}: {self.detail}"


class AcceptanceStats:
    """Pooled z-test for uniform acceptance among incoming proposals.

    For a connection whose receiver had ``k ≥ 2`` incoming proposals, the
    accepted sender's rank ``i`` (0-based, among senders in ascending
    id order) yields the sample ``(i + 0.5) / k`` with mean ``1/2`` and
    variance ``(k² − 1) / (12 k²)`` under the uniform-acceptance null.
    Summing over samples gives ``z = (S − N/2) / sqrt(Σ var)``; any
    systematic preference (lowest id, highest id, first proposer…)
    drives ``|z|`` without bound as samples accumulate.
    """

    def __init__(self) -> None:
        self.count = 0
        self._sum = 0.0
        self._var = 0.0

    def add_sample(self, rank: int, k: int) -> None:
        if k < 2:
            return  # k = 1 is forced, carries no information
        self.count += 1
        self._sum += (rank + 0.5) / k
        self._var += (k * k - 1.0) / (12.0 * k * k)

    def add_trace(self, trace: Trace) -> None:
        for rec in trace.rounds:
            add_acceptance_samples(self, rec.proposals, rec.connections)

    def z(self) -> float:
        if self._var <= 0.0:
            return 0.0
        return (self._sum - 0.5 * self.count) / math.sqrt(self._var)

    def violation(self) -> Violation | None:
        """A violation if the pooled evidence rejects uniformity."""
        if self.count < ACCEPTANCE_MIN_SAMPLES:
            return None
        z = self.z()
        if abs(z) > ACCEPTANCE_Z_THRESHOLD:
            return Violation(
                rule="uniform-acceptance",
                round_index=None,
                detail=(
                    f"acceptance rank bias z={z:.2f} over {self.count} "
                    f"multi-proposal connections (|z| > "
                    f"{ACCEPTANCE_Z_THRESHOLD} rejects uniform acceptance)"
                ),
            )
        return None


def add_acceptance_samples(
    stats: AcceptanceStats, proposals: np.ndarray, connections: np.ndarray
) -> None:
    """Feed one round's acceptance ranks into ``stats``.

    A receiver's incoming proposals are those targeting it from the
    round's proposal list (proposers never receive, so proposals to
    proposers are excluded); the accepted sender's rank is its position
    among those senders in ascending id order.
    """
    if connections.size == 0:
        return
    proposed = set(int(s) for s in proposals[:, 0])
    incoming: dict[int, list[int]] = {}
    for s, t in proposals:
        if int(t) not in proposed:
            incoming.setdefault(int(t), []).append(int(s))
    for s, t in connections:
        senders = incoming.get(int(t))
        if senders is None or len(senders) < 2:
            continue
        # Proposals are recorded in ascending proposer order, so the
        # per-receiver sender lists are already sorted.
        stats.add_sample(senders.index(int(s)), len(senders))


# -- per-round checkers -------------------------------------------------------


def _check_round(
    rec,
    graph,
    tag_length: int,
    expected_active: np.ndarray | None,
    has_drop_model: bool,
    out: list[Violation],
) -> None:
    r = rec.round_index
    proposals = rec.proposals
    connections = rec.connections
    active = rec.active

    # activation-consistency: the recorded mask must match the expected
    # "activated and not crashed" mask reconstructed from the run config.
    if expected_active is not None and not np.array_equal(active, expected_active):
        diff = np.flatnonzero(active != expected_active)
        out.append(
            Violation(
                rule="activation-consistency",
                round_index=r,
                detail=(
                    f"active mask disagrees with activation schedule + fault "
                    f"plan at nodes {diff.tolist()[:8]}"
                ),
            )
        )

    # tag-width: active nodes advertise within b bits, inactive nodes -1.
    tags = rec.tags
    hi = 1 << tag_length
    bad = np.flatnonzero(active & ((tags < 0) | (tags >= hi)))
    if bad.size:
        out.append(
            Violation(
                rule="tag-width",
                round_index=r,
                detail=(
                    f"node {int(bad[0])} advertised tag {int(tags[bad[0]])} "
                    f"outside {tag_length} bits ({bad.size} node(s) total)"
                ),
            )
        )
    bad = np.flatnonzero(~active & (tags != -1))
    if bad.size:
        out.append(
            Violation(
                rule="tag-width",
                round_index=r,
                detail=f"inactive node {int(bad[0])} advertised tag "
                f"{int(tags[bad[0]])} (must be recorded as -1)",
            )
        )

    # proposals-on-edges: distinct active endpoints joined by an edge of G_r.
    for s, t in proposals:
        s, t = int(s), int(t)
        if s == t:
            out.append(
                Violation(
                    rule="proposals-on-edges",
                    round_index=r,
                    detail=f"node {s} proposed to itself",
                )
            )
            continue
        if not active[s] or not active[t]:
            out.append(
                Violation(
                    rule="proposals-on-edges",
                    round_index=r,
                    detail=f"proposal {s}->{t} involves an inactive node",
                )
            )
            continue
        row = graph.indices[graph.indptr[s] : graph.indptr[s + 1]]
        pos = int(np.searchsorted(row, t))
        if pos == row.size or int(row[pos]) != t:
            out.append(
                Violation(
                    rule="proposals-on-edges",
                    round_index=r,
                    detail=f"proposal {s}->{t} is not an edge of G_{r}",
                )
            )

    # A node proposes at most once per round.
    if proposals.size:
        senders = proposals[:, 0]
        if not all_distinct(senders):
            out.append(
                Violation(
                    rule="proposals-on-edges",
                    round_index=r,
                    detail="a node issued more than one proposal",
                )
            )

    # connection-exclusivity: each node in at most one connection.
    if connections.size:
        flat = connections.ravel()
        if not all_distinct(flat):
            out.append(
                Violation(
                    rule="connection-exclusivity",
                    round_index=r,
                    detail="a node participates in more than one connection",
                )
            )

    # send-xor-receive: every connection pairs a recorded proposer with its
    # proposed target, the receiver must not itself have proposed, and —
    # absent a connection-drop fault model — every listener with incoming
    # proposals must accept exactly one.
    proposed = set((int(s), int(t)) for s, t in proposals)
    proposers = set(int(s) for s in proposals[:, 0]) if proposals.size else set()
    receivers = set(int(t) for t in connections[:, 1]) if connections.size else set()
    for s, t in connections:
        s, t = int(s), int(t)
        if (s, t) not in proposed:
            out.append(
                Violation(
                    rule="send-xor-receive",
                    round_index=r,
                    detail=f"connection {s}->{t} without a matching proposal",
                )
            )
        if t in proposers:
            out.append(
                Violation(
                    rule="send-xor-receive",
                    round_index=r,
                    detail=f"node {t} both proposed and accepted",
                )
            )
    if not has_drop_model:
        listeners = set(int(t) for _, t in proposed if int(t) not in proposers)
        missed = listeners - receivers
        if missed:
            out.append(
                Violation(
                    rule="send-xor-receive",
                    round_index=r,
                    detail=(
                        f"listener {min(missed)} had incoming proposals but "
                        f"accepted none ({len(missed)} listener(s) total)"
                    ),
                )
            )


# -- trace-level entry points -------------------------------------------------


def check_tau_stability(
    dg: DynamicGraph, horizon: int, out: list[Violation] | None = None
) -> list[Violation]:
    """Verify ``dg`` holds its topology constant within each τ-epoch.

    Walks rounds ``1..horizon`` comparing consecutive topologies; a
    change between two rounds of the same epoch breaks the stability
    contract the algorithms' guarantees are conditioned on.
    """
    violations = out if out is not None else []
    tau = dg.tau
    prev = dg.graph_at(1)
    for r in range(2, horizon + 1):
        g = dg.graph_at(r)
        same_epoch = (
            math.isinf(tau) or epoch_of_round(r, tau) == epoch_of_round(r - 1, tau)
        )
        if same_epoch and g != prev:
            violations.append(
                Violation(
                    rule="tau-stability",
                    round_index=r,
                    detail=(
                        f"topology changed between rounds {r - 1} and {r} "
                        f"inside one tau={tau} epoch"
                    ),
                )
            )
        prev = g
    return violations


def _expected_active(
    r: int,
    n: int,
    activation: np.ndarray | None,
    fault_plan: "FaultPlan | None",
) -> np.ndarray | None:
    if activation is None and fault_plan is None:
        return None
    base = (
        np.ones(n, dtype=bool)
        if activation is None
        else (np.asarray(activation, dtype=np.int64) <= r)
    )
    if fault_plan is not None and fault_plan.crashes is not None:
        base = base & ~fault_plan.crashes.down_at(r, n)
    if fault_plan is not None and fault_plan.membership is not None:
        base = base & ~fault_plan.membership.down_at(r, n)
    return base


def _plan_membership(fault_plan: "FaultPlan | None"):
    if fault_plan is None or fault_plan.membership is None:
        return None
    return None if fault_plan.membership.is_empty() else fault_plan.membership


def check_membership_round(
    rec, membership, n: int, out: list[Violation]
) -> None:
    """Audit one round record against an open-world membership schedule.

    ``membership-silence``: a slot the schedule marks absent in round
    ``r`` must be invisible — no proposal endpoint, no connection
    endpoint, tag recorded as ``-1``.  ``membership-cap``: the live
    population (present slots) stays within ``[1, max_live or n]``, and
    the recorded active mask never exceeds the schedule's presence.
    """
    r = rec.round_index
    down = membership.down_at(r, n)
    if not down.any():
        live = n
    else:
        live = int(n - down.sum())
        for arr, what in ((rec.proposals, "proposal"), (rec.connections, "connection")):
            if arr.size == 0:
                continue
            bad = down[arr.ravel()]
            if bad.any():
                slot = int(arr.ravel()[np.flatnonzero(bad)[0]])
                out.append(
                    Violation(
                        rule="membership-silence",
                        round_index=r,
                        detail=f"absent slot {slot} appears in a {what}",
                    )
                )
        bad_tags = np.flatnonzero(down & (rec.tags != -1))
        if bad_tags.size:
            out.append(
                Violation(
                    rule="membership-silence",
                    round_index=r,
                    detail=(
                        f"absent slot {int(bad_tags[0])} advertised tag "
                        f"{int(rec.tags[bad_tags[0]])} (must be -1)"
                    ),
                )
            )
        active_on_down = np.flatnonzero(rec.active & down)
        if active_on_down.size:
            out.append(
                Violation(
                    rule="membership-silence",
                    round_index=r,
                    detail=(
                        f"absent slot {int(active_on_down[0])} recorded as "
                        f"active ({active_on_down.size} slot(s) total)"
                    ),
                )
            )
    cap = membership.max_live if membership.max_live is not None else n
    if not 1 <= live <= cap:
        out.append(
            Violation(
                rule="membership-cap",
                round_index=r,
                detail=f"live population {live} outside [1, {cap}]",
            )
        )
    recorded = int(np.count_nonzero(rec.active))
    if recorded > cap:
        out.append(
            Violation(
                rule="membership-cap",
                round_index=r,
                detail=f"{recorded} active slots exceed the declared cap {cap}",
            )
        )


def check_join_freshness(
    fault_plan: "FaultPlan", n: int, out: list[Violation] | None = None
) -> list[Violation]:
    """Every join / clean departure must reset the slot's protocol state.

    Audits the fault-state plumbing the engines actually consume
    (rule ``join-state-freshness``): the merged ``rejoin_resets`` stream
    of :class:`~repro.faults.apply.SingleFaultState` must cover every
    ``join`` and ``depart_clean`` event of the plan's membership
    schedule, so a returning slot can never carry state from a previous
    incarnation.
    """
    from repro.faults.apply import SingleFaultState
    from repro.util.rng import make_rng

    violations = out if out is not None else []
    membership = _plan_membership(fault_plan)
    if membership is None:
        return violations
    state = SingleFaultState(fault_plan, n, make_rng(0, "conformance-freshness"))
    for ev in membership.events:
        if ev.kind == "depart":
            continue  # crash-like: state freezes, by design
        if ev.slot not in state.rejoin_resets(ev.round):
            violations.append(
                Violation(
                    rule="join-state-freshness",
                    round_index=ev.round,
                    detail=(
                        f"slot {ev.slot} {ev.kind}s at round {ev.round} "
                        "without a state reset in the fault stream"
                    ),
                )
            )
    return violations


def check_trace(
    trace: Trace,
    dynamic_graph: DynamicGraph,
    *,
    tag_length: int = 0,
    activation_rounds: Sequence[int] | np.ndarray | None = None,
    fault_plan: "FaultPlan | None" = None,
    acceptance_stats: AcceptanceStats | None = None,
    check_topology_stability: bool = True,
) -> list[Violation]:
    """Validate one trace against every model rule.

    Parameters mirror the engine construction that produced the trace;
    the checkers reconstruct what the model *allows* from them
    (``G_r`` via ``dynamic_graph.graph_at``, the legal active mask via
    ``activation_rounds`` + the plan's crash schedule) and compare.

    ``acceptance_stats`` pools uniform-acceptance samples across calls
    (the fuzzer's use); when omitted, a per-trace pool is used and its
    verdict — usually silent for short traces — is included directly.
    """
    violations: list[Violation] = []
    n = dynamic_graph.n
    activation = (
        None
        if activation_rounds is None
        else np.asarray(activation_rounds, dtype=np.int64)
    )
    has_drop = (
        fault_plan is not None
        and fault_plan.connection_drop is not None
        and not fault_plan.connection_drop.is_empty()
    )
    local_stats = acceptance_stats if acceptance_stats is not None else AcceptanceStats()

    membership = _plan_membership(fault_plan)
    for rec in trace.rounds:
        r = rec.round_index
        graph = dynamic_graph.graph_at(r)
        expected = _expected_active(r, n, activation, fault_plan)
        _check_round(rec, graph, tag_length, expected, has_drop, violations)
        if membership is not None:
            check_membership_round(rec, membership, n, violations)
        add_acceptance_samples(local_stats, rec.proposals, rec.connections)

    if check_topology_stability and trace.rounds:
        check_tau_stability(
            dynamic_graph, trace.rounds[-1].round_index, violations
        )
    if membership is not None:
        check_join_freshness(fault_plan, n, violations)

    if acceptance_stats is None:
        v = local_stats.violation()
        if v is not None:
            violations.append(v)
    return violations


def check_scheduler_fairness(
    events: Sequence,
    delta: int,
    out: list[Violation] | None = None,
) -> list[Violation]:
    """Audit an async event log against the bounded-delay guarantee.

    ``events`` is the engine's recorded log of scheduled events
    (:class:`~repro.asyncsim.engine.EventRecord`); each must have been
    delivered within ``[1, Δ]`` ticks of becoming pending.  This checks
    the *scheduler* (including user-supplied ones) the way the other
    rules check the engines: an adversary may be arbitrarily mean inside
    the band, never outside it.
    """
    violations = out if out is not None else []
    for ev in events:
        d = ev.deliver - ev.pending
        if d < 1 or d > delta:
            violations.append(
                Violation(
                    rule="scheduler-fairness",
                    round_index=int(ev.deliver),
                    detail=(
                        f"{ev.kind} event for node {ev.node} pended "
                        f"{d} tick(s), outside [1, {delta}]"
                    ),
                )
            )
    return violations


def check_async_trace(
    trace: Trace,
    dynamic_graph: DynamicGraph,
    *,
    tag_length: int = 0,
    activation_rounds: Sequence[int] | np.ndarray | None = None,
    fault_plan: "FaultPlan | None" = None,
    delta: int = 1,
    events: Sequence | None = None,
    check_topology_stability: bool = True,
) -> list[Violation]:
    """Validate a tick-bucketed trace from the asynchronous event tier.

    The structural rules (connection-exclusivity, proposals-on-edges,
    tag-width, activation-consistency, tau-stability) apply per tick
    bucket exactly as they do per round.  Send-xor-receive runs in its
    drop-model form — a reserved node legitimately rejects attempts — and
    uniform-acceptance is skipped entirely: first-come acceptance is the
    async model's semantics, so rank bias is expected, not a violation.
    When the engine's event log is supplied, the bounded-delay guarantee
    is audited via :func:`check_scheduler_fairness`.

    ``activation_rounds`` and the fault plan's windows are interpreted in
    ticks, matching how :class:`~repro.asyncsim.engine.EventSimEngine`
    consumes them.
    """
    violations: list[Violation] = []
    n = dynamic_graph.n
    activation = (
        None
        if activation_rounds is None
        else np.asarray(activation_rounds, dtype=np.int64)
    )
    for rec in trace.rounds:
        r = rec.round_index
        graph = dynamic_graph.graph_at(r)
        expected = _expected_active(r, n, activation, fault_plan)
        _check_round(rec, graph, tag_length, expected, True, violations)

    if check_topology_stability and trace.rounds:
        check_tau_stability(
            dynamic_graph, trace.rounds[-1].round_index, violations
        )
    if events is not None:
        check_scheduler_fairness(events, delta, violations)
    return violations


def check_batched_trace(
    btrace: BatchedTrace,
    dynamic_graph: DynamicGraph | Sequence[DynamicGraph],
    *,
    tag_length: int = 0,
    activation_rounds: Sequence[int] | np.ndarray | None = None,
    fault_plan: "FaultPlan | None" = None,
    acceptance_stats: AcceptanceStats | None = None,
) -> list[Violation]:
    """Validate every replica of a batched trace.

    ``dynamic_graph`` is either the one graph shared by all replicas or a
    per-replica sequence, exactly as the batched engine accepts it.
    Violations are tagged with their replica in the detail text.
    """
    if isinstance(dynamic_graph, DynamicGraph):
        dgs: list[DynamicGraph] = [dynamic_graph] * btrace.replicas
        stability_targets = [(0, dynamic_graph)]
    else:
        dgs = list(dynamic_graph)
        if len(dgs) != btrace.replicas:
            raise ValueError(
                f"need one dynamic graph per replica: got {len(dgs)} "
                f"for {btrace.replicas} replicas"
            )
        stability_targets = list(enumerate(dgs))

    violations: list[Violation] = []
    for t in range(btrace.replicas):
        per = check_trace(
            btrace.replica(t),
            dgs[t],
            tag_length=tag_length,
            activation_rounds=activation_rounds,
            fault_plan=fault_plan,
            acceptance_stats=acceptance_stats
            if acceptance_stats is not None
            else AcceptanceStats(),
            check_topology_stability=False,
        )
        violations.extend(
            Violation(v.rule, v.round_index, f"replica {t}: {v.detail}")
            for v in per
        )
    if len(btrace):
        horizon = btrace.round_indices[-1]
        for t, dg in stability_targets:
            per2: list[Violation] = []
            check_tau_stability(dg, horizon, per2)
            violations.extend(
                Violation(v.rule, v.round_index, f"replica {t}: {v.detail}")
                for v in per2
            )
    return violations
