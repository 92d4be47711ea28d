"""Orchestrating a live localhost run end to end.

:func:`run_live` builds the network (graph family → static peer table),
wires every node as an asyncio task with real sockets, drives the
barrier coordinator to completion, and returns the familiar
:class:`~repro.core.trace.RunResult` plus the shared ``Trace`` — the
same result shape every simulator tier produces, so the conformance
invariants and cross-checks consume live runs unmodified.

The run is a deterministic function of ``(config, seed)``: node streams
are ``spawn_rngs(seed, n, "node")`` exactly like the reference engine,
acceptance draws come from a dedicated per-node ``"live-accept"``
stream over the *sorted* proposer list, and drop verdicts are shared
seed-derived functions — so two live runs with one seed produce
bit-identical traces even though socket scheduling differs.
:func:`reference_result` runs the same wiring through
``ReferenceEngine`` for statistical cross-checks (the two tiers draw
acceptance from different streams, so equality is distributional, not
per-trace).
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from repro.core.engine import ReferenceEngine
from repro.core.monitor import all_leaders_are, rumor_complete
from repro.core.payload import PayloadBudget, UIDSpace
from repro.core.protocol import NodeProtocol
from repro.core.trace import RunResult, Trace
from repro.faults.plan import FaultPlan
from repro.graphs.dynamic import (
    PeriodicRelabelDynamicGraph,
    StaticDynamicGraph,
    validate_tau,
)
from repro.graphs.families import clique, path, random_regular, ring, star, wheel
from repro.graphs.static import Graph
from repro.live.coordinator import RoundCoordinator
from repro.live.faults import LiveFaultModel
from repro.live.node import LiveNode
from repro.util.rng import make_rng, spawn_rngs

__all__ = [
    "LIVE_ALGORITHMS",
    "LIVE_FAMILIES",
    "LiveRunConfig",
    "LiveRunReport",
    "build_graph",
    "build_bundle",
    "run_live",
    "reference_result",
    "trial_config",
]

LIVE_ALGORITHMS = ("blind_gossip", "push_pull", "ppush", "bit_convergence")
LIVE_FAMILIES = ("clique", "ring", "path", "star", "wheel", "random_regular")


@dataclass(frozen=True)
class LiveRunConfig:
    """Everything that determines a live run (and its reference twin)."""

    algorithm: str = "blind_gossip"
    family: str = "clique"
    n: int = 16
    degree: int = 8  # random_regular only
    tau: float = math.inf
    seed: int | None = 0
    max_rounds: int = 10_000
    #: Run exactly this many rounds, ignoring stabilization (bench mode).
    fixed_rounds: int | None = None
    fault_plan: FaultPlan | None = None
    collect_trace: bool = True
    check_every: int = 1
    host: str = "127.0.0.1"
    #: Hard wall-clock bound on the whole run (None = unbounded).
    wall_clock_limit: float | None = None


@dataclass
class LiveRunReport:
    """A live run's result plus transport-level statistics."""

    result: RunResult
    trace: Trace | None
    rounds_per_sec: float
    connections_made: int
    frames_sent: int
    elapsed: float


@dataclass
class _Bundle:
    protocols: list[NodeProtocol]
    stop_when: Callable[[Sequence[NodeProtocol]], bool]
    tag_length: int
    uids: UIDSpace


def build_graph(cfg: LiveRunConfig) -> Graph:
    """Build the run's topology from its graph-family config."""
    if cfg.family == "clique":
        return clique(cfg.n)
    if cfg.family == "ring":
        return ring(cfg.n)
    if cfg.family == "path":
        return path(cfg.n)
    if cfg.family == "star":
        return star(cfg.n)
    if cfg.family == "wheel":
        return wheel(cfg.n)
    if cfg.family == "random_regular":
        return random_regular(cfg.n, cfg.degree, seed=cfg.seed)
    raise ValueError(
        f"unknown live family {cfg.family!r} (choose from {LIVE_FAMILIES})"
    )


def build_bundle(cfg: LiveRunConfig, graph: Graph) -> _Bundle:
    """Fresh protocol instances + stop predicate for one run.

    Mirrors the differential fuzzer's per-algorithm wiring so live runs
    and reference runs elect over identical UID spaces and sources.
    """
    from repro.algorithms.bit_convergence import (
        BitConvergenceConfig,
        BitConvergenceNode,
        draw_id_tags,
    )
    from repro.algorithms.blind_gossip import make_blind_gossip_nodes
    from repro.algorithms.ppush import make_ppush_nodes
    from repro.algorithms.push_pull import make_push_pull_nodes

    n = cfg.n
    uids = UIDSpace(n, seed=cfg.seed)
    if cfg.algorithm == "blind_gossip":
        return _Bundle(
            protocols=make_blind_gossip_nodes(uids),
            stop_when=all_leaders_are(uids.min_uid()),
            tag_length=0,
            uids=uids,
        )
    if cfg.algorithm == "push_pull":
        return _Bundle(
            protocols=make_push_pull_nodes(uids, sources={0}),
            stop_when=rumor_complete,
            tag_length=0,
            uids=uids,
        )
    if cfg.algorithm == "ppush":
        return _Bundle(
            protocols=make_ppush_nodes(uids, sources={0}),
            stop_when=rumor_complete,
            tag_length=1,
            uids=uids,
        )
    if cfg.algorithm == "bit_convergence":
        bc_cfg = BitConvergenceConfig(
            n_upper=max(n, 2), delta_bound=graph.max_degree, beta=1.0
        )
        tag_seed = int(make_rng(cfg.seed, "live-tags").integers(0, 2**31 - 1))
        tags = draw_id_tags(n, bc_cfg, tag_seed, unique=True)
        nodes = [
            BitConvergenceNode(v, uids.uid_of(v), int(tags[v]), bc_cfg)
            for v in range(n)
        ]
        winner = min(nodes, key=lambda nd: nd.committed_pair).uid
        return _Bundle(
            protocols=nodes,
            stop_when=all_leaders_are(winner),
            tag_length=1,
            uids=uids,
        )
    raise ValueError(
        f"unknown live algorithm {cfg.algorithm!r} "
        f"(choose from {LIVE_ALGORITHMS})"
    )


def _dynamic_graph(cfg: LiveRunConfig, graph: Graph):
    tau = validate_tau(cfg.tau)
    if math.isinf(tau):
        return StaticDynamicGraph(graph)
    return PeriodicRelabelDynamicGraph(graph, tau, seed=cfg.seed)


def _observed(
    protocols: list[NodeProtocol], faults: LiveFaultModel
) -> list[NodeProtocol]:
    """Predicate population: everyone except permanently crashed nodes."""
    if faults.perma_down is None:
        return protocols
    return [protocols[v] for v in np.flatnonzero(~faults.perma_down)]


def _unwrap(exc: BaseException) -> BaseException:
    """First real (non-cancellation) leaf of a TaskGroup exception tree."""
    if isinstance(exc, BaseExceptionGroup):
        for sub in exc.exceptions:
            leaf = _unwrap(sub)
            if not isinstance(leaf, asyncio.CancelledError):
                return leaf
        return exc.exceptions[0]
    return exc


def run_live(cfg: LiveRunConfig) -> LiveRunReport:
    """Execute one live localhost run; see the module docstring."""
    if cfg.n < 2:
        raise ValueError("a live network needs at least 2 nodes")
    if cfg.max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    graph = build_graph(cfg)
    bundle = build_bundle(cfg, graph)
    dg = _dynamic_graph(cfg, graph)
    faults = LiveFaultModel(cfg.fault_plan, bundle.protocols, dg, cfg.seed)
    budget = PayloadBudget(n_upper=max(cfg.n, 2))
    node_rngs = spawn_rngs(cfg.seed, cfg.n, "node")
    accept_rngs = spawn_rngs(cfg.seed, cfg.n, "live-accept")
    observed = _observed(bundle.protocols, faults)
    gate = faults.gate

    def on_round(r: int, record) -> bool:
        if cfg.fixed_rounds is not None:
            return r >= cfg.fixed_rounds
        if r % cfg.check_every != 0 or r < gate:
            return False
        return bool(bundle.stop_when(observed))

    coordinator = RoundCoordinator(
        dynamic_graph=dg,
        tau=validate_tau(cfg.tau),
        faults=faults,
        tag_length=bundle.tag_length,
        host=cfg.host,
        collect_trace=cfg.collect_trace,
        on_round=on_round,
    )
    max_rounds = cfg.fixed_rounds if cfg.fixed_rounds is not None else cfg.max_rounds

    async def _main() -> None:
        await coordinator.start()
        nodes = [
            LiveNode(
                v,
                bundle.protocols[v],
                seed=cfg.seed,
                host=cfg.host,
                coordinator_port=coordinator.port,
                rng=node_rngs[v],
                accept_rng=accept_rngs[v],
                budget=budget,
                drop_p=faults.drop_p,
            )
            for v in range(cfg.n)
        ]
        try:
            async with asyncio.TaskGroup() as tg:
                for node in nodes:
                    tg.create_task(node.run())
                await coordinator.run_rounds(max_rounds)
        finally:
            await coordinator.shutdown()
        coordinator.frames_sent += sum(node.frames_sent for node in nodes)

    async def _bounded() -> None:
        if cfg.wall_clock_limit is None:
            await _main()
        else:
            await asyncio.wait_for(_main(), timeout=cfg.wall_clock_limit)

    started = time.perf_counter()
    try:
        asyncio.run(_bounded())
    except BaseExceptionGroup as group:
        raise _unwrap(group) from None
    elapsed = time.perf_counter() - started

    rounds = coordinator.rounds_executed
    stabilized = cfg.fixed_rounds is None and bool(bundle.stop_when(observed))
    result = RunResult(
        stabilized=stabilized,
        rounds=rounds,
        rounds_after_last_activation=rounds,
        trace=coordinator.trace,
    )
    return LiveRunReport(
        result=result,
        trace=coordinator.trace,
        rounds_per_sec=rounds / elapsed if elapsed > 0 else float(rounds),
        connections_made=coordinator.connections_made,
        frames_sent=coordinator.frames_sent,
        elapsed=elapsed,
    )


def reference_result(cfg: LiveRunConfig, *, collect_trace: bool = False) -> RunResult:
    """Run the identical configuration through ``ReferenceEngine``.

    Same graph, UID space, protocols, fault plan, and node streams —
    only the transport differs — so live-vs-reference stabilization
    comparisons are apples to apples.
    """
    graph = build_graph(cfg)
    bundle = build_bundle(cfg, graph)
    dg = _dynamic_graph(cfg, graph)
    engine = ReferenceEngine(
        dg,
        bundle.protocols,
        seed=cfg.seed,
        collect_trace=collect_trace,
        fault_plan=cfg.fault_plan,
    )
    return engine.run(cfg.max_rounds, bundle.stop_when, check_every=cfg.check_every)


def trial_config(cfg: LiveRunConfig, index: int) -> LiveRunConfig:
    """Derive the ``index``-th trial of a comparison batch from ``cfg``."""
    seed = int(make_rng(cfg.seed, "live-trial", index).integers(0, 2**31 - 1))
    return replace(cfg, seed=seed)
