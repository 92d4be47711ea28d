"""Differential fuzzing across the engine tiers.

The fuzzer samples small configurations — graph family × ``n`` ×
algorithm × τ × fault plan × activation schedule — and runs each through
the reference, vectorized, and batched engines with full trace capture,
checking:

* **invariants** — every trace passes the model-rule checkers of
  :mod:`repro.conformance.invariants` (uniform-acceptance evidence is
  pooled across the whole fuzz session);
* **bit-exactness** — traced runs are bit-identical to untraced runs of
  the same engine and seed; traced reruns reproduce the identical trace;
  on forced-dynamics configurations (PPUSH over a path: every proposal
  and acceptance is forced) the reference and vectorized traces must
  match *bit for bit*, the strongest cross-engine statement their
  disjoint RNG streams allow;
* **cross-tier agreement** — per configuration, the tiers must agree on
  whether runs stabilize, and the vectorized-vs-batched median rounds
  must agree within a generous factor; across the session, the pooled
  reference-vs-vectorized log-median-ratio must stay near zero (the
  engines cannot be compared trace-for-trace on random dynamics — their
  RNG consumption orders differ — so the distributional check is the
  cross-tier ground truth, as in ``tests/test_cross_validation.py``).

A slice of the sampled configurations additionally exercise the
**asynchronous event tier** (``engine="async"``): the event simulator
runs the configuration under a sampled scheduler × delay bound Δ, its
virtual-time trace must pass :func:`check_async_trace` (including the
scheduler-fairness rule on the raw event log), identical
``(seed, Δ, scheduler)`` must reproduce a bit-identical event schedule
and trace, and the tick count must stay within a Δ-scaled band of the
synchronous vectorized tier's round count.

Every failing configuration is **shrunk**: the fuzzer greedily retries
simpler variants (fall back to the synchronous engine, drop the fault
plan, make the topology static, reduce ``n``, simplify the family,
Δ → 1, adversarial → random) while the failure persists, and reports
the minimal still-failing configuration as replayable JSON
(``repro conformance replay FILE``).  Shrinking is deterministic — the
whole fuzz session is a pure function of ``(budget, seed)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.asyncsim.algorithms import blind_gossip_setup, push_pull_setup
from repro.asyncsim.engine import EventSimEngine
from repro.asyncsim.scheduler import SCHEDULER_NAMES
from repro.conformance.invariants import AcceptanceStats, Violation, check_async_trace, check_trace
from repro.core.batched import BatchedVectorizedEngine
from repro.core.engine import ReferenceEngine
from repro.core.monitor import all_leaders_are, rumor_complete
from repro.core.payload import UIDSpace
from repro.core.trace import traces_equal
from repro.core.vectorized import VectorizedEngine
from repro.faults.plan import (
    CrashSchedule,
    CrashWindow,
    ConnectionDropModel,
    FaultPlan,
    TagCorruptionModel,
    leader_assassin_schedule,
    random_membership_schedule,
)
from repro.graphs import families
from repro.graphs.dynamic import PeriodicRelabelDynamicGraph, StaticDynamicGraph
from repro.harness.runner import trial_seeds_for
from repro.util.rng import make_rng

__all__ = ["FuzzConfig", "ConfigReport", "FuzzSummary", "run_config", "fuzz", "shrink", "replay_file"]

#: Vectorized trials / batched replicas per configuration.
TRIALS = 6
#: Reference trials per configuration (the slow tier).
REF_TRIALS = 2
#: Traces fully invariant-checked per tier per configuration (the rest
#: still feed the pooled acceptance statistics).
CHECKED_TRACES = 2
#: Simpler-first family order; shrinking moves left.
FAMILY_ORDER = ("clique", "star", "wheel", "ring", "path")
#: Per-algorithm run horizon (generous: every sampled configuration
#: stabilizes w.h.p. well inside it).
HORIZONS = {
    "blind_gossip": 6000,
    "push_pull": 4000,
    "ppush": 4000,
    "bit_convergence": 60000,
}
#: Families slow-spreading blind gossip is allowed on (low-expansion
#: families would need far larger horizons).
BLIND_GOSSIP_FAMILIES = ("clique", "star", "wheel")
#: |mean log(ref/vec median-rounds ratio)| ceiling for the pooled
#: cross-tier distributional check (factor 2 overall).
POOLED_LOG_RATIO_MAX = math.log(2.0)
#: Per-config batched-vs-vectorized median-rounds ratio band.
TIER_RATIO_BAND = (0.25, 4.0)
#: Algorithms with an event-tier form (native async node classes).
ASYNC_ALGORITHMS = ("blind_gossip", "push_pull")
#: Event-tier trials per async configuration (each trial replays the
#: whole event schedule, so fewer than the vectorized tier).
ASYNC_TRIALS = 4
#: Async median-ticks vs sync median-rounds band: the ratio must lie in
#: ``(lo, hi_per_delta * delta)`` — at Δ=1 the tiers are near lock-step,
#: and maximal dilation stretches virtual time by at most ~Δ.
ASYNC_SYNC_RATIO_LO = 0.2
ASYNC_SYNC_RATIO_HI_PER_DELTA = 8.0


@dataclass(frozen=True)
class FuzzConfig:
    """One sampled configuration (pure data, JSON round-trippable).

    ``fault`` is an abstract spec (kind + parameters), materialized into
    a concrete :class:`~repro.faults.plan.FaultPlan` inside
    :func:`run_config` — deterministically from the config — so repro
    files stay small and replay exactly.
    """

    family: str
    n: int
    algorithm: str
    tau: int | None  # None = static topology
    fault: dict | None
    activation: str  # "sync" | "staggered"
    seed: int
    engine: str = "sync"  # "sync" | "async" (event tier)
    delta: int = 1  # async delay bound Δ (ignored for engine="sync")
    scheduler: str = "random"  # async scheduler name

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "algorithm": self.algorithm,
            "tau": self.tau,
            "fault": self.fault,
            "activation": self.activation,
            "seed": self.seed,
            "engine": self.engine,
            "delta": self.delta,
            "scheduler": self.scheduler,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzConfig":
        return cls(
            family=str(data["family"]),
            n=int(data["n"]),
            algorithm=str(data["algorithm"]),
            tau=None if data.get("tau") is None else int(data["tau"]),
            fault=data.get("fault"),
            activation=str(data.get("activation", "sync")),
            seed=int(data["seed"]),
            engine=str(data.get("engine", "sync")),
            delta=int(data.get("delta", 1)),
            scheduler=str(data.get("scheduler", "random")),
        )


@dataclass
class ConfigReport:
    """Everything one configuration run produced."""

    config: FuzzConfig
    violations: list[Violation] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)
    #: log(ref median / vec median), when both tiers fully stabilized.
    log_ratio: float | None = None

    @property
    def failed(self) -> bool:
        return bool(self.violations or self.mismatches)

    def failure_lines(self) -> list[str]:
        return [str(v) for v in self.violations] + list(self.mismatches)


@dataclass
class FuzzSummary:
    configs: int
    failures: list[ConfigReport]
    acceptance: AcceptanceStats
    pooled_log_ratio: float
    pooled_samples: int

    @property
    def ok(self) -> bool:
        return not self.failures


# -- configuration materialization -------------------------------------------


def _build_graph(cfg: FuzzConfig):
    builders = {
        "clique": families.clique,
        "star": families.star,
        "wheel": families.wheel,
        "ring": families.ring,
        "path": families.path,
    }
    return builders[cfg.family](cfg.n)


def _build_fault_plan(cfg: FuzzConfig, protected: set[int]) -> FaultPlan | None:
    """Materialize the abstract fault spec for a concrete network.

    Permanent crashes take a *rank* rather than a node id: the victim is
    the ``rank``-th node outside ``protected`` (the rumor source or the
    eventual winner — crashing those before they spread makes the
    stabilization target itself unreachable, which is a property of the
    configuration, not an engine bug).
    """
    spec = cfg.fault
    if spec is None:
        return None
    kind = spec["kind"]
    if kind == "drop":
        return FaultPlan(connection_drop=ConnectionDropModel(p=float(spec["p"])))
    if kind == "tagflip":
        return FaultPlan(tag_corruption=TagCorruptionModel(q=float(spec["q"])))
    reset = bool(spec.get("reset", True))
    if kind == "crash":
        windows = tuple(
            CrashWindow(node=int(v) % cfg.n, start=int(s), end=int(e), reset_on_rejoin=reset)
            for v, s, e in spec["windows"]
        )
        return FaultPlan(crashes=CrashSchedule(windows))
    if kind == "perma":
        eligible = [v for v in range(cfg.n) if v not in protected]
        victim = eligible[int(spec["rank"]) % len(eligible)]
        return FaultPlan(
            crashes=CrashSchedule(
                (CrashWindow(node=victim, start=int(spec["start"]), end=None),)
            )
        )
    if kind == "mixed":
        windows = tuple(
            CrashWindow(node=int(v) % cfg.n, start=int(s), end=int(e), reset_on_rejoin=reset)
            for v, s, e in spec["windows"]
        )
        return FaultPlan(
            crashes=CrashSchedule(windows),
            connection_drop=ConnectionDropModel(p=float(spec["p"])),
        )
    if kind == "membership":
        # Open-world churn.  Protected slots (the rumor source / eventual
        # winner) are pinned live: their permanent departure would make
        # the stabilization target unreachable by construction.
        schedule = random_membership_schedule(
            cfg.n,
            int(spec["events"]),
            first_round=2,
            last_round=int(spec["last"]),
            seed=cfg.seed,
            initial_absent=int(spec.get("absent", 0)),
            clean_fraction=float(spec.get("clean", 0.5)),
            min_live=2,
            protect=tuple(sorted(protected)),
        )
        return FaultPlan(membership=schedule, n=cfg.n)
    if kind == "assassin":
        # Keys are recomputed exactly as _AlgoBundle derives them, so the
        # schedule targets the same UIDs the algorithms run with.  Every
        # victim rejoins after one period (finite down_for), keeping the
        # closed-world convergence targets reachable after quiesce.
        uids = UIDSpace(cfg.n, seed=cfg.seed)
        keys = np.array([uids.uid_of(v)._key for v in range(cfg.n)], dtype=np.int64)
        period = int(spec["period"])
        schedule = leader_assassin_schedule(
            keys,
            period=period,
            kills=int(spec["kills"]),
            first_round=3,
            down_for=period,
        )
        return FaultPlan(membership=schedule, n=cfg.n)
    raise ValueError(f"unknown fault kind {kind!r}")


def _activation_rounds(cfg: FuzzConfig) -> np.ndarray | None:
    if cfg.activation == "sync":
        return None
    rng = make_rng(cfg.seed, "conformance-activation")
    return rng.integers(1, 6, size=cfg.n).astype(np.int64)


class _AlgoBundle:
    """The per-node and array forms of one algorithm for one configuration.

    ``make_algo()`` builds the one array kernel every array tier runs;
    seeded state (bit convergence's ID tags) comes from each replica's
    trial seed.
    """

    def __init__(self, cfg: FuzzConfig):
        from repro.algorithms.bit_convergence import (
            BitConvergenceBatched,
            BitConvergenceConfig,
            BitConvergenceNode,
            draw_id_tags,
        )
        from repro.algorithms.blind_gossip import (
            BlindGossipBatched,
            make_blind_gossip_nodes,
        )
        from repro.algorithms.ppush import PPushBatched, make_ppush_nodes
        from repro.algorithms.push_pull import (
            PushPullBatched,
            make_push_pull_nodes,
        )

        n = cfg.n
        uids = UIDSpace(n, seed=cfg.seed)
        keys = np.array([uids.uid_of(v)._key for v in range(n)], dtype=np.int64)
        self.uids = uids
        self.keys = keys
        g = _build_graph(cfg)
        self.graph = g
        src = np.array([0])

        if cfg.algorithm == "blind_gossip":
            self.tag_length = 0
            self.protected = {int(np.argmin(keys))}
            self.make_algo = lambda: BlindGossipBatched(keys)
            self.make_protocols = lambda: make_blind_gossip_nodes(uids)
            self.stop_when = all_leaders_are(uids.min_uid())
        elif cfg.algorithm == "push_pull":
            self.tag_length = 0
            self.protected = {0}
            self.make_algo = lambda: PushPullBatched(src)
            self.make_protocols = lambda: make_push_pull_nodes(uids, sources={0})
            self.stop_when = rumor_complete
        elif cfg.algorithm == "ppush":
            self.tag_length = 1
            self.protected = {0}
            self.make_algo = lambda: PPushBatched(src)
            self.make_protocols = lambda: make_ppush_nodes(uids, sources={0})
            self.stop_when = rumor_complete
        elif cfg.algorithm == "bit_convergence":
            bc_cfg = BitConvergenceConfig(
                n_upper=max(n, 2), delta_bound=g.max_degree, beta=1.0
            )
            self.tag_length = 1
            self.protected = set()
            self.make_algo = lambda: BitConvergenceBatched(
                keys, bc_cfg, unique_tags=True
            )

            def protocols_for(ts: int):
                tags = draw_id_tags(n, bc_cfg, ts, unique=True)
                return [
                    BitConvergenceNode(v, uids.uid_of(v), int(tags[v]), bc_cfg)
                    for v in range(n)
                ]

            self.make_protocols_seeded = protocols_for
            self.stop_when = None  # per-seed winner, computed at run time
        else:
            raise ValueError(f"unknown algorithm {cfg.algorithm!r}")

    def protocols(self, ts: int):
        if hasattr(self, "make_protocols_seeded"):
            return self.make_protocols_seeded(ts)
        return self.make_protocols()

    def stop_for(self, protocols):
        if self.stop_when is not None:
            return self.stop_when
        # Bit convergence: the winner is the minimum committed (tag, key)
        # pair of this seed's initial state.
        winner = min(protocols, key=lambda nd: nd.committed_pair).uid
        return all_leaders_are(winner)


def _int_seed(seed: int, *labels: str | int) -> int:
    """A deterministic integer seed for ``(seed, *labels)``."""
    return int(make_rng(seed, *labels).integers(0, 2**31 - 1))


def _dg_for(cfg: FuzzConfig, graph, label: int):
    """The dynamic graph of one trial (``label`` keeps seeds distinct)."""
    if cfg.tau is None:
        return StaticDynamicGraph(graph)
    return PeriodicRelabelDynamicGraph(
        graph, cfg.tau, seed=_int_seed(cfg.seed, "conformance-churn", label)
    )


# -- single-configuration runner ----------------------------------------------


def run_config(
    cfg: FuzzConfig, acceptance: AcceptanceStats | None = None
) -> ConfigReport:
    """Run one configuration through all tiers and collect every problem."""
    report = ConfigReport(config=cfg)
    try:
        _run_config_inner(cfg, report, acceptance)
    except Exception as exc:  # noqa: BLE001 - a crash is a finding, not an abort
        report.mismatches.append(f"exception: {type(exc).__name__}: {exc}")
    return report


def _async_setup_for(cfg: FuzzConfig, uids: UIDSpace):
    """Fresh event-tier nodes + stop predicate for one trial."""
    if cfg.algorithm == "blind_gossip":
        return blind_gossip_setup(uids)
    if cfg.algorithm == "push_pull":
        return push_pull_setup(uids, sources={0})
    raise ValueError(f"algorithm {cfg.algorithm!r} has no event-tier form")


def _run_async_config(cfg: FuzzConfig, report: ConfigReport) -> None:
    """Event-tier leg: invariants, fairness, determinism, sync anchor."""
    if cfg.delta < 1:
        raise ValueError("delta must be >= 1")
    bundle = _AlgoBundle(cfg)
    plan = _build_fault_plan(cfg, bundle.protected)
    activation = _activation_rounds(cfg)
    # Virtual time dilates by at most Δ; faults push the quiesce gate.
    horizon = HORIZONS[cfg.algorithm] * cfg.delta
    if plan is not None:
        horizon += plan.quiesce_round
    seeds = trial_seeds_for(cfg.seed, ASYNC_TRIALS)
    graph = bundle.graph

    def one_run(trial: int, ts: int):
        dg = _dg_for(cfg, graph, trial)
        setup = _async_setup_for(cfg, bundle.uids)
        eng = EventSimEngine(
            dg,
            setup.nodes,
            seed=ts,
            delta=cfg.delta,
            scheduler=cfg.scheduler,
            activation_rounds=activation,
            fault_plan=plan,
            collect_trace=True,
            collect_events=True,
        )
        return eng, dg, setup, eng.run_until(horizon, setup.stop_when, check_every=4)

    results = []
    for i, ts in enumerate(seeds):
        eng, dg, setup, res = one_run(i, int(ts))
        results.append(res)
        if i < CHECKED_TRACES:
            for v in check_async_trace(
                res.trace,
                dg,
                tag_length=setup.tag_length,
                activation_rounds=activation,
                fault_plan=plan,
                delta=cfg.delta,
                events=eng.event_log,
            ):
                report.violations.append(
                    Violation(v.rule, v.round_index, f"async seed {ts}: {v.detail}")
                )
        if i == 0:
            eng2, _, _, res2 = one_run(i, int(ts))
            if (res.stabilized, res.rounds) != (res2.stabilized, res2.rounds):
                report.mismatches.append(
                    f"async rerun outcome differs for seed {ts}: "
                    f"{(res.stabilized, res.rounds)} vs {(res2.stabilized, res2.rounds)}"
                )
            if eng.event_log != eng2.event_log:
                report.mismatches.append(
                    f"async event schedule not deterministic for seed {ts}"
                )
            if not traces_equal(res.trace, res2.trace):
                report.mismatches.append(
                    f"async trace not deterministic for seed {ts}"
                )

    oks = [r.stabilized for r in results]
    if not all(oks):
        report.mismatches.append(
            f"async tier failed to stabilize within {horizon} ticks "
            f"({sum(oks)}/{len(oks)} trials, delta={cfg.delta}, "
            f"scheduler={cfg.scheduler})"
        )
        return

    # Sync anchor: the vectorized tier on the same configuration.  Tick
    # counts and round counts are only comparable up to the Δ dilation,
    # so the band scales with Δ.
    sync_horizon = HORIZONS[cfg.algorithm]
    if plan is not None:
        sync_horizon += plan.quiesce_round
    vec_results = []
    for i, ts in enumerate(seeds):
        dg = _dg_for(cfg, graph, i)
        vec_results.append(
            VectorizedEngine(
                dg,
                bundle.make_algo(),
                seed=int(ts),
                activation_rounds=activation,
                fault_plan=plan,
            ).run(sync_horizon)
        )
    if all(r.stabilized for r in vec_results):
        amed = float(np.median([r.rounds for r in results]))
        vmed = float(np.median([r.rounds for r in vec_results]))
        ratio = amed / max(vmed, 1e-9)
        lo, hi = ASYNC_SYNC_RATIO_LO, ASYNC_SYNC_RATIO_HI_PER_DELTA * cfg.delta
        if not lo < ratio < hi:
            report.mismatches.append(
                f"async/sync median ratio {ratio:.2f} outside ({lo}, {hi}): "
                f"async ticks={amed}, sync rounds={vmed}, delta={cfg.delta}"
            )


def _run_config_inner(
    cfg: FuzzConfig, report: ConfigReport, acceptance: AcceptanceStats | None
) -> None:
    if cfg.engine == "async":
        _run_async_config(cfg, report)
        return
    if cfg.engine != "sync":
        raise ValueError(f"unknown engine {cfg.engine!r}")
    bundle = _AlgoBundle(cfg)
    plan = _build_fault_plan(cfg, bundle.protected)
    activation = _activation_rounds(cfg)
    horizon = HORIZONS[cfg.algorithm]
    if plan is not None:
        horizon += plan.quiesce_round
    seeds = trial_seeds_for(cfg.seed, TRIALS)
    graph = bundle.graph

    def check(trace, dg, label: str) -> None:
        for v in check_trace(
            trace,
            dg,
            tag_length=bundle.tag_length,
            activation_rounds=activation,
            fault_plan=plan,
            acceptance_stats=acceptance,
        ):
            report.violations.append(
                Violation(v.rule, v.round_index, f"{label}: {v.detail}")
            )

    # -- vectorized tier: traced == untraced, deterministic, invariant-clean
    vec_results = []
    vec_dgs = []
    for i, ts in enumerate(seeds):
        dg = _dg_for(cfg, graph, i)
        vec_dgs.append(dg)
        kw = dict(seed=int(ts), activation_rounds=activation, fault_plan=plan)
        traced = VectorizedEngine(dg, bundle.make_algo(), collect_trace=True, **kw).run(horizon)
        plain = VectorizedEngine(dg, bundle.make_algo(), **kw).run(horizon)
        if (traced.stabilized, traced.rounds) != (plain.stabilized, plain.rounds):
            report.mismatches.append(
                f"vectorized traced != untraced for seed {ts}: "
                f"{(traced.stabilized, traced.rounds)} vs "
                f"{(plain.stabilized, plain.rounds)}"
            )
        vec_results.append(traced)
        if i < CHECKED_TRACES:
            check(traced.trace, dg, f"vectorized seed {ts}")
        elif acceptance is not None:
            acceptance.add_trace(traced.trace)
        if i == 0:
            again = VectorizedEngine(
                dg, bundle.make_algo(), collect_trace=True, **kw
            ).run(horizon)
            if not traces_equal(traced.trace, again.trace):
                report.mismatches.append(
                    f"vectorized trace not deterministic for seed {ts}"
                )

    # -- batched tier: traced == untraced, per-replica invariant-clean
    if cfg.tau is None:
        bdg = StaticDynamicGraph(graph)
        batched_dgs = bdg
    else:
        # All replicas relabel the same base object, so the batched
        # engine's permutation-native fast path engages.
        batched_dgs = [_dg_for(cfg, graph, i) for i in range(TRIALS)]
        bdg = batched_dgs
    kw = dict(seeds=seeds, activation_rounds=activation, fault_plan=plan)
    btraced = BatchedVectorizedEngine(
        bdg, bundle.make_algo(), collect_trace=True, **kw
    ).run(horizon)
    bplain = BatchedVectorizedEngine(bdg, bundle.make_algo(), **kw).run(horizon)
    if not (
        np.array_equal(btraced.stabilized, bplain.stabilized)
        and np.array_equal(btraced.rounds, bplain.rounds)
    ):
        report.mismatches.append("batched traced != untraced run")
    for t in range(min(CHECKED_TRACES, TRIALS)):
        dg_t = batched_dgs if isinstance(batched_dgs, StaticDynamicGraph) else batched_dgs[t]
        check(btraced.trace.replica(t), dg_t, f"batched replica {t}")

    # -- reference tier: invariant-clean, distributional anchor
    ref_results = []
    for i, ts in enumerate(seeds[:REF_TRIALS]):
        dg = vec_dgs[i]
        protocols = bundle.protocols(int(ts))
        stop = bundle.stop_for(protocols)
        eng = ReferenceEngine(
            dg,
            protocols,
            seed=int(ts),
            activation_rounds=activation,
            fault_plan=plan,
            collect_trace=True,
        )
        res = eng.run(horizon, stop)
        ref_results.append(res)
        check(res.trace, dg, f"reference seed {ts}")
        # Forced dynamics: PPUSH on a static path with no faults has one
        # possible proposal set and acceptance per round, so the reference
        # and vectorized traces must agree bit for bit.
        if (
            cfg.algorithm == "ppush"
            and cfg.family == "path"
            and cfg.tau is None
            and plan is None
            and cfg.activation == "sync"
        ):
            if not traces_equal(res.trace, vec_results[i].trace):
                report.mismatches.append(
                    f"reference vs vectorized PPUSH/path trace differs for seed {ts}"
                )

    # -- cross-tier agreement --------------------------------------------------
    vec_ok = [r.stabilized for r in vec_results]
    ref_ok = [r.stabilized for r in ref_results]
    vmed = float(np.median([r.rounds for r in vec_results]))
    lo, hi = TIER_RATIO_BAND
    for name, oks, rounds in (
        ("vectorized", vec_ok, []),
        ("batched", btraced.stabilized.tolist(), btraced.rounds),
        ("reference", ref_ok, []),
    ):
        if not all(oks):
            report.mismatches.append(
                f"{name} tier failed to stabilize within {horizon} rounds "
                f"({sum(oks)}/{len(oks)} trials)"
            )
        elif len(rounds) and all(vec_ok):
            med = float(np.median(rounds))
            ratio = med / max(vmed, 1e-9)
            if not lo < ratio < hi:
                report.mismatches.append(
                    f"{name}/vectorized median-rounds ratio {ratio:.2f} "
                    f"outside ({lo}, {hi}): vec={vmed}, {name}={med}"
                )
    if all(vec_ok) and all(ref_ok):
        rmed = float(np.median([r.rounds for r in ref_results]))
        report.log_ratio = math.log(max(rmed, 1.0) / max(vmed, 1.0))


# -- sampling ------------------------------------------------------------------


def sample_config(seed: int, index: int) -> FuzzConfig:
    """Deterministically sample the ``index``-th configuration."""
    rng = make_rng(seed, "conformance-fuzz", index)
    algorithm = ["blind_gossip", "push_pull", "ppush", "bit_convergence"][
        int(rng.integers(0, 4))
    ]
    if algorithm == "blind_gossip":
        family = BLIND_GOSSIP_FAMILIES[int(rng.integers(0, len(BLIND_GOSSIP_FAMILIES)))]
        n = int(rng.integers(8, 21))
    elif algorithm == "bit_convergence":
        family = FAMILY_ORDER[int(rng.integers(0, len(FAMILY_ORDER)))]
        n = int(rng.integers(8, 17))
    else:
        family = FAMILY_ORDER[int(rng.integers(0, len(FAMILY_ORDER)))]
        n = int(rng.integers(8, 25))
    tau = [None, None, 1, 2, 3, 5][int(rng.integers(0, 6))]

    roll = rng.random()
    fault: dict | None
    if roll < 0.30:
        fault = None
    elif roll < 0.40:
        # Open-world membership: never for bit convergence (no tier
        # implements a reset hook, and a join must bring fresh state).
        if algorithm == "bit_convergence":
            fault = None
        elif rng.random() < 0.5:
            fault = {
                "kind": "membership",
                "events": int(rng.integers(3, 9)),
                "last": int(rng.integers(8, 25)),
                "absent": int(rng.integers(0, max(1, n // 6) + 1)),
                "clean": 0.5,
            }
        else:
            fault = {
                "kind": "assassin",
                "period": int(rng.integers(4, 9)),
                "kills": int(rng.integers(1, 3)),
            }
    elif roll < 0.55:
        fault = {"kind": "drop", "p": float([0.1, 0.3][int(rng.integers(0, 2))])}
    elif roll < 0.65:
        if algorithm in ("ppush", "bit_convergence"):
            fault = {"kind": "tagflip", "q": 0.05}
        else:
            fault = None  # b = 0 algorithms advertise nothing to corrupt
    elif roll < 0.80:
        count = int(rng.integers(1, 3))
        windows = []
        start = int(rng.integers(2, 10))
        for _ in range(count):
            end = start + int(rng.integers(1, 8))
            windows.append([int(rng.integers(0, 8)), start, end])
            # Keep windows disjoint in time: two draws may land on the same
            # node (ids are folded mod n downstream), and overlapping
            # windows for one node are rejected at plan construction.
            start = end + 1 + int(rng.integers(0, 3))
        fault = {"kind": "crash", "windows": windows}
        if algorithm == "bit_convergence":
            # No tier implements a bit-convergence reset hook; rejoin with
            # frozen state instead (safe: the algorithm is monotone).
            fault["reset"] = False
    elif roll < 0.90:
        if algorithm == "bit_convergence":
            # The convergence target is per-seed state a permanently
            # crashed node may hold exclusively; skip.
            fault = None
        else:
            fault = {
                "kind": "perma",
                "rank": int(rng.integers(0, 6)),
                "start": int(rng.integers(2, 7)),
            }
    else:
        start = int(rng.integers(2, 8))
        fault = {
            "kind": "mixed",
            "windows": [[int(rng.integers(0, 8)), start, start + int(rng.integers(2, 6))]],
            "p": 0.1,
        }
        if algorithm == "bit_convergence":
            fault["reset"] = False

    activation = "staggered" if fault is None and rng.random() < 0.25 else "sync"

    engine, delta, scheduler = "sync", 1, "random"
    open_world = fault is not None and fault["kind"] in ("membership", "assassin")
    # The event tier rejects membership plans by contract; keep
    # open-world configurations on the synchronous tiers.
    if algorithm in ASYNC_ALGORITHMS and not open_world and rng.random() < 0.30:
        engine = "async"
        delta = int([1, 2, 4, 8][int(rng.integers(0, 4))])
        scheduler = SCHEDULER_NAMES[int(rng.integers(0, len(SCHEDULER_NAMES)))]
        n = min(n, 16)  # event replays are per-node-per-tick; keep them small

    return FuzzConfig(
        family=family,
        n=n,
        algorithm=algorithm,
        tau=tau,
        fault=fault,
        activation=activation,
        seed=_int_seed(seed, "conformance-config", index),
        engine=engine,
        delta=delta,
        scheduler=scheduler,
    )


# -- shrinking -----------------------------------------------------------------


def _shrink_candidates(cfg: FuzzConfig) -> list[FuzzConfig]:
    """Simpler variants of ``cfg``, most aggressive first."""
    out: list[FuzzConfig] = []

    def variant(**kw) -> None:
        out.append(FuzzConfig(**{**cfg.to_dict(), **kw}))

    if cfg.engine == "async":
        variant(engine="sync", delta=1, scheduler="random")
        if cfg.delta > 1:
            variant(delta=1)
        if cfg.scheduler != "random":
            variant(scheduler="random")
    if cfg.fault is not None:
        variant(fault=None)
        if cfg.fault.get("kind") == "mixed":
            variant(fault={"kind": "drop", "p": cfg.fault["p"]})
            variant(fault={"kind": "crash", "windows": cfg.fault["windows"]})
        if cfg.fault.get("kind") == "crash" and len(cfg.fault["windows"]) > 1:
            variant(fault={"kind": "crash", "windows": cfg.fault["windows"][:1]})
        # Shrink toward the closed world: fewer membership events, no
        # initially absent slots, a single-victim assassin.
        if cfg.fault.get("kind") == "membership":
            if int(cfg.fault.get("absent", 0)) > 0:
                variant(fault={**cfg.fault, "absent": 0})
            if int(cfg.fault["events"]) > 1:
                variant(fault={**cfg.fault, "events": max(1, int(cfg.fault["events"]) // 2)})
        if cfg.fault.get("kind") == "assassin" and int(cfg.fault["kills"]) > 1:
            variant(fault={**cfg.fault, "kills": 1})
    if cfg.tau is not None:
        variant(tau=None)
    if cfg.activation != "sync":
        variant(activation="sync")
    if cfg.n > 8:
        variant(n=8)
        if cfg.n > 12:
            variant(n=max(8, cfg.n // 2))
    fams = (
        BLIND_GOSSIP_FAMILIES if cfg.algorithm == "blind_gossip" else FAMILY_ORDER
    )
    idx = fams.index(cfg.family) if cfg.family in fams else 0
    for simpler in fams[:idx]:
        variant(family=simpler)
    return out


def shrink(
    cfg: FuzzConfig,
    fails: Callable[[FuzzConfig], bool],
    *,
    max_steps: int = 40,
) -> FuzzConfig:
    """Greedy deterministic shrink: adopt any simpler variant that still fails.

    ``fails(config) -> bool`` is the failure oracle (normally
    ``lambda c: run_config(c).failed``); the loop ends when no candidate
    fails or ``max_steps`` oracle calls were spent.
    """
    current = cfg
    budget = max_steps
    improved = True
    while improved and budget > 0:
        improved = False
        for cand in _shrink_candidates(current):
            if budget <= 0:
                break
            budget -= 1
            if fails(cand):
                current = cand
                improved = True
                break
    return current


# -- fuzz session --------------------------------------------------------------


def fuzz(
    budget: int,
    seed: int,
    *,
    log: Callable[[str], None] | None = None,
    shrink_failures: bool = True,
) -> FuzzSummary:
    """Run ``budget`` sampled configurations; shrink and report failures."""
    acceptance = AcceptanceStats()
    failures: list[ConfigReport] = []
    ratios: list[float] = []
    for i in range(budget):
        cfg = sample_config(seed, i)
        report = run_config(cfg, acceptance)
        if report.log_ratio is not None:
            ratios.append(report.log_ratio)
        if report.failed:
            if shrink_failures:
                minimal = shrink(cfg, lambda c: run_config(c).failed)
                report = run_config(minimal)
                if not report.failed:  # flaky boundary: keep the original
                    report = run_config(cfg)
            failures.append(report)
            if log:
                log(f"[{i + 1}/{budget}] FAIL {report.config.to_dict()}")
        elif log and (i + 1) % 25 == 0:
            log(f"[{i + 1}/{budget}] ok")

    pooled = float(np.mean(ratios)) if ratios else 0.0
    v = acceptance.violation()
    if v is not None:
        failures.append(
            ConfigReport(config=sample_config(seed, 0), violations=[v])
        )
    if len(ratios) >= 20 and abs(pooled) > POOLED_LOG_RATIO_MAX:
        failures.append(
            ConfigReport(
                config=sample_config(seed, 0),
                mismatches=[
                    f"pooled reference/vectorized log-median-ratio "
                    f"{pooled:.3f} over {len(ratios)} configs exceeds "
                    f"±{POOLED_LOG_RATIO_MAX:.3f}"
                ],
            )
        )
    return FuzzSummary(
        configs=budget,
        failures=failures,
        acceptance=acceptance,
        pooled_log_ratio=pooled,
        pooled_samples=len(ratios),
    )


def write_repro(report: ConfigReport, path: str | Path) -> None:
    """Write a failing configuration as a replayable JSON repro file."""
    Path(path).write_text(
        json.dumps(
            {"config": report.config.to_dict(), "failures": report.failure_lines()},
            indent=2,
            allow_nan=False,
        )
        + "\n"
    )


def replay_file(path: str | Path) -> ConfigReport:
    """Re-run the configuration of a repro file (fresh acceptance pool)."""
    data = json.loads(Path(path).read_text())
    cfg = FuzzConfig.from_dict(data["config"])
    return run_config(cfg)
