"""Algorithm × adversary robustness tournament (the T-series family).

The paper proves bounds against a *worst-case oblivious* dynamic graph;
the open-world model of Augustine et al. ("Robust Leader Election in a
Fast-Changing World") is harsher still — the adversary inserts and
removes nodes, including the current leader, while the run is in flight.
This module ranks the repository's algorithms against the whole adversary
menagerie the graph/fault layers can express, on one seeded grid:

* **algorithms** — blind gossip (min-UID election), PUSH-PULL and PPUSH
  (rumor spreading), each as one registered experiment (T1, T2, T3) so
  the durable campaign scheduler checkpoints, retries, and resumes each
  algorithm's grid as a cell;
* **adversaries** — ``none`` (faultless baseline), ``relabel``
  (oblivious isomorphic churn), ``mobility`` (random-waypoint unit
  disks), ``packing`` (the adaptive spread-throttling relabeler),
  ``assassin`` (open-world leader assassination: the live slot holding
  the smallest key departs every period), and ``openworld`` (seeded
  join/depart churn with initially-absent slots);
* **τ grid** — the stability factor doubles as the open-world
  stabilization requirement: the live population must agree on a live
  leader for ``τ`` consecutive rounds
  (:class:`~repro.core.monitor.LiveAgreementMonitor`).

Every cell is a deterministic function of ``(seed, algorithm, adversary,
τ)`` — cell seeds are derived order-independently, so serial and pooled
campaign runs produce bit-identical tables.  A trial *survives* when the
monitor latches within ``max_rounds``; each table row reports the
survival rate, the median stabilization round over survivors, and the
inflation of that median against the same-τ faultless baseline.
:func:`tournament_leaderboard` folds the per-algorithm tables into the
ranked robustness leaderboard (survival desc, inflation asc).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.algorithms.blind_gossip import BlindGossipBatched
from repro.algorithms.ppush import PPushBatched
from repro.algorithms.push_pull import PushPullBatched
from repro.core.monitor import LiveAgreementMonitor
from repro.core.vectorized import VectorizedEngine
from repro.faults import (
    FaultPlan,
    leader_assassin_schedule,
    random_membership_schedule,
)
from repro.graphs import families
from repro.graphs.adversary import PackingAdversary
from repro.graphs.dynamic import (
    DynamicGraph,
    PeriodicRelabelDynamicGraph,
    StaticDynamicGraph,
)
from repro.graphs.mobility import RandomWaypointDynamicGraph
from repro.harness.runner import trial_seeds_for
from repro.harness.tables import Table
from repro.util.rng import make_rng

__all__ = [
    "ADVERSARIES",
    "TOURNAMENT_ALGORITHMS",
    "TOURNAMENT_EXP_IDS",
    "exp_tournament",
    "run_tournament_trial",
    "tournament_leaderboard",
]

#: Adversary grid, baseline first (the inflation denominator must exist
#: before any other cell of the same τ is scored).
ADVERSARIES = ("none", "relabel", "mobility", "packing", "assassin", "openworld")

#: Algorithms entered in the tournament, keyed by experiment id.
TOURNAMENT_ALGORITHMS: Mapping[str, str] = {
    "T1": "blind_gossip",
    "T2": "push_pull",
    "T3": "ppush",
}

TOURNAMENT_EXP_IDS = tuple(TOURNAMENT_ALGORITHMS)

#: Open-world adversaries implemented as membership fault plans.
_MEMBERSHIP_ADVERSARIES = ("assassin", "openworld")


def _uid_keys(n: int, seed: int) -> np.ndarray:
    # Lazy import: experiments.py imports this module for the registry.
    from repro.harness.experiments import uid_keys_random

    return uid_keys_random(n, seed)


def _adversary_graph(
    adversary: str, base, n: int, tau: int, trial_seed: int
) -> DynamicGraph:
    if adversary == "relabel":
        return PeriodicRelabelDynamicGraph(base, tau=tau, seed=trial_seed)
    if adversary == "mobility":
        return RandomWaypointDynamicGraph(n, tau, seed=trial_seed)
    if adversary == "packing":
        return PackingAdversary(base, tau=tau)
    # none / assassin / openworld attack membership, not topology.
    return StaticDynamicGraph(base)


def _adversary_plan(
    adversary: str,
    keys: np.ndarray,
    n: int,
    trial_seed: int,
    *,
    assassin_period: int,
    assassin_kills: int,
    churn_events: int,
    churn_last: int,
    protect: tuple[int, ...],
) -> FaultPlan | None:
    if adversary == "assassin":
        # Victims rejoin with fresh state after one period — the
        # population must re-absorb every resurrected smallest key.
        schedule = leader_assassin_schedule(
            keys,
            period=assassin_period,
            kills=assassin_kills,
            first_round=3,
            down_for=assassin_period,
        )
        return FaultPlan(membership=schedule, n=n)
    if adversary == "openworld":
        schedule = random_membership_schedule(
            n,
            churn_events,
            first_round=2,
            last_round=churn_last,
            seed=trial_seed,
            initial_absent=max(1, n // 8),
            clean_fraction=0.5,
            min_live=max(2, n // 2),
            protect=protect,
        )
        return FaultPlan(membership=schedule, n=n)
    return None


def run_tournament_trial(
    algorithm: str,
    adversary: str,
    tau: int,
    *,
    n: int,
    degree: int,
    max_rounds: int,
    trial_seed: int,
    assassin_period: int = 8,
    assassin_kills: int = 3,
    churn_events: int = 12,
    churn_last: int = 40,
) -> int | None:
    """One seeded trial; the latched stabilization round, or ``None``.

    Survival means the :class:`~repro.core.monitor.LiveAgreementMonitor`
    certified ``τ`` consecutive rounds of live-population agreement on a
    live leader (election) / full live informedness (rumor) within
    ``max_rounds``.
    """
    base = families.random_regular(n, degree, seed=trial_seed)
    keys = _uid_keys(n, trial_seed)
    source = int(np.argmin(keys))

    if algorithm == "blind_gossip":
        algo = BlindGossipBatched(keys)
        monitor = LiveAgreementMonitor(tau, leader_keys=keys)
        values = lambda state: state.best[0]  # noqa: E731
        protect: tuple[int, ...] = ()
    elif algorithm == "push_pull":
        algo = PushPullBatched(np.array([source]))
        monitor = LiveAgreementMonitor(tau)
        values = lambda state: state.informed[0]  # noqa: E731
        # A rumor source that never exists makes the cell unwinnable for
        # reasons independent of the algorithm; keep it in the network.
        protect = (source,)
    elif algorithm == "ppush":
        algo = PPushBatched(np.array([source]))
        monitor = LiveAgreementMonitor(tau)
        values = lambda state: state.informed[0]  # noqa: E731
        protect = (source,)
    else:
        raise ValueError(f"unknown tournament algorithm {algorithm!r}")

    dg = _adversary_graph(adversary, base, n, tau, trial_seed)
    plan = _adversary_plan(
        adversary,
        keys,
        n,
        trial_seed,
        assassin_period=assassin_period,
        assassin_kills=assassin_kills,
        churn_events=churn_events,
        churn_last=churn_last,
        protect=protect,
    )
    engine = VectorizedEngine(dg, algo, seed=trial_seed, fault_plan=plan)
    for r in range(1, max_rounds + 1):
        engine.step(r)
        live = engine.last_active
        if live is None:
            live = np.ones(n, dtype=bool)
        if monitor.observe(r, values(engine.state), live):
            return monitor.stabilized_round
    return None


def _median(rounds: list[int]) -> float:
    return float(np.median(rounds)) if rounds else math.inf


def exp_tournament(
    algorithm: str,
    *,
    adversaries: Sequence[str] = ADVERSARIES,
    taus: Sequence[int] = (1, 2, 4),
    n: int = 24,
    degree: int = 6,
    trials: int = 4,
    max_rounds: int = 600,
    seed: int = 0,
    assassin_period: int = 8,
    assassin_kills: int = 3,
    churn_events: int = 12,
    churn_last: int = 40,
) -> Table:
    """One algorithm's full adversary × τ grid as a result table.

    Cell seeds derive from ``(seed, algorithm, adversary, τ)`` alone —
    never from execution order — so any scheduling of the cells (serial,
    pooled, resumed) reproduces the table bit for bit.  ``inflation`` is
    the cell's survivor-median divided by the faultless (``none``)
    baseline median at the same τ; ``inf`` marks a cell with no
    survivors.
    """
    if "none" not in adversaries:
        raise ValueError("the adversary grid needs the 'none' baseline")
    table = Table(
        title=f"Tournament grid: {algorithm} vs adversary × tau "
        f"(n={n}, degree={degree})",
        columns=["adversary", "tau", "trials", "survival", "median rounds", "inflation"],
        notes=[
            "Open-world robustness: a trial survives when the live population "
            "agrees on a live leader (election) / is fully informed (rumor) "
            f"for tau consecutive rounds within {max_rounds} rounds.",
            f"Workload: random {degree}-regular base, n={n}; assassin departs "
            f"the {assassin_kills} smallest keys every {assassin_period} rounds "
            f"(rejoining fresh); openworld runs {churn_events} join/depart "
            f"events through round {churn_last} with {max(1, n // 8)} slots "
            "initially absent.",
            "inflation = survivor-median rounds / faultless baseline at the "
            "same tau; inf marks a cell with no survivors.",
        ],
    )
    for tau in taus:
        baselines: dict[int, float] = {}
        ordered = ["none"] + [a for a in adversaries if a != "none"]
        for adversary in ordered:
            cell_seed = int(
                make_rng(seed, "tournament", algorithm, adversary, int(tau)).integers(
                    0, 2**31 - 1
                )
            )
            survived: list[int] = []
            for ts in trial_seeds_for(cell_seed, trials):
                sr = run_tournament_trial(
                    algorithm,
                    adversary,
                    int(tau),
                    n=n,
                    degree=degree,
                    max_rounds=max_rounds,
                    trial_seed=int(ts),
                    assassin_period=assassin_period,
                    assassin_kills=assassin_kills,
                    churn_events=churn_events,
                    churn_last=churn_last,
                )
                if sr is not None:
                    survived.append(sr)
            med = _median(survived)
            if adversary == "none":
                baselines[int(tau)] = med
            baseline = baselines[int(tau)]
            inflation = (
                med / baseline if math.isfinite(med) and baseline > 0 else math.inf
            )
            table.add_row(
                adversary,
                int(tau),
                trials,
                len(survived) / trials,
                med,
                inflation,
            )
    return table


def exp_tournament_blind_gossip(**kw) -> Table:
    return exp_tournament("blind_gossip", **kw)


def exp_tournament_push_pull(**kw) -> Table:
    return exp_tournament("push_pull", **kw)


def exp_tournament_ppush(**kw) -> Table:
    return exp_tournament("ppush", **kw)


def tournament_leaderboard(tables: Mapping[str, Table]) -> Table:
    """Fold per-algorithm grid tables into the ranked robustness leaderboard.

    ``tables`` maps experiment id (or algorithm name) to its grid table.
    One leaderboard row per (algorithm, adversary) pair aggregates the τ
    grid: survival rate averaged over τ, inflation averaged over the τ
    cells where it is finite (``inf`` if no cell has survivors).  Rows
    rank by survival (desc), then mean inflation (asc), then name — most
    robust pairing first.
    """
    entries = []
    for exp_id, table in tables.items():
        algorithm = TOURNAMENT_ALGORITHMS.get(exp_id, exp_id)
        by_adv: dict[str, list[tuple[float, float]]] = {}
        for row in table.rows:
            cells = dict(zip(table.columns, row))
            by_adv.setdefault(str(cells["adversary"]), []).append(
                (float(cells["survival"]), float(cells["inflation"]))
            )
        for adversary, cells in by_adv.items():
            survival = float(np.mean([s for s, _ in cells]))
            finite = [i for _, i in cells if math.isfinite(i)]
            inflation = float(np.mean(finite)) if finite else math.inf
            entries.append((algorithm, adversary, survival, inflation))
    entries.sort(key=lambda e: (-e[2], e[3], e[0], e[1]))
    table = Table(
        title="Robustness leaderboard: algorithm × adversary, ranked",
        columns=["rank", "algorithm", "adversary", "survival", "mean inflation"],
        notes=[
            "survival: fraction of trials reaching tau-stable live-population "
            "agreement, averaged over the tau grid.",
            "mean inflation: survivor-median stabilization / faultless "
            "baseline at the same tau, averaged over cells with survivors "
            "(inf: no cell of the pairing had a survivor).",
            "Ranked by survival (desc), then inflation (asc).",
        ],
    )
    for rank, (algorithm, adversary, survival, inflation) in enumerate(entries, 1):
        table.add_row(rank, algorithm, adversary, survival, inflation)
    return table
