"""The experiment registry: one experiment per paper claim.

The paper's evaluation is a sequence of theorems; every entry here
regenerates the *shape* of one claim (who wins, with what exponent, where
behaviour flattens), per the reproduction plan in DESIGN.md.  Each
experiment function returns a :class:`~repro.harness.tables.Table` whose
notes restate the paper claim being checked, and each :class:`Experiment`
declares the shape checks (:mod:`repro.harness.verify`) that table must pass.

Two profiles are registered per experiment: ``quick`` (seconds; used by
CI) and ``standard`` (minutes; used to fill EXPERIMENTS.md).  Run one cell
with :func:`run_experiment`, or every cell, verified and checkpointed,
with ``repro experiments run-all``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.algorithms.async_bit_convergence import AsyncBitConvergenceBatched
from repro.algorithms.bit_convergence import (
    BitConvergenceBatched,
    BitConvergenceConfig,
    draw_id_tags,
)
from repro.algorithms.blind_gossip import BlindGossipBatched
from repro.algorithms.ppush import PPushBatched
from repro.algorithms.push_pull import PushPullBatched
from repro.analysis import bounds
from repro.analysis.expansion import vertex_expansion, vertex_expansion_exact
from repro.analysis.matching import gamma_exact
from repro.analysis.statistics import summarize
from repro.core.classical import classical_push_pull_rumor
from repro.core.payload import UIDSpace
from repro.core.vectorized import VectorizedEngine
from repro.faults import (
    ConnectionDropModel,
    FaultPlan,
    StateCorruptionEvent,
    random_crash_schedule,
)
from repro.graphs import families
from repro.graphs.adversary import BatchedPackingAdversary, PackingAdversary
from repro.graphs.dynamic import (
    BatchedPermutedDynamicGraph,
    DynamicGraph,
    PeriodicRelabelDynamicGraph,
    StaticDynamicGraph,
)
from repro.graphs.static import Graph
from repro.harness.runner import (
    TrialOutcome,
    run_trials,
    run_trials_batched,
    trial_summary,
)
from repro.harness.tables import Table
from repro.harness.tournament import (
    exp_tournament_blind_gossip,
    exp_tournament_ppush,
    exp_tournament_push_pull,
)
from repro.harness.verify import AllTrue, Check, Predicate, Slope
from repro.util.rng import make_rng

__all__ = [
    "Experiment",
    "EXPERIMENTS",
    "run_experiment",
    "registry_order",
    "uid_keys_random",
    "uid_keys_with_min_at",
]


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def uid_keys_random(n: int, seed: int | None) -> np.ndarray:
    """Distinct random UID keys (no vertex-index correlation).

    ``n`` distinct draws from ``0..10n-1``, the same keys as choosing from
    ``np.arange(10 * n)``.  Passing the population size rather than the
    array does not save its memory: for ``n`` draws out of ``10n``,
    NumPy's ``choice`` shuffles the tail of an int64 ``arange(10n)`` it
    builds itself, so the call peaks at about 11× the keys it returns
    (24 MB for the 2 MB of keys at ``n = 2^18``).
    """
    rng = make_rng(seed, "uid-keys")
    return rng.choice(10 * n, size=n, replace=False)


def uid_keys_with_min_at(n: int, vertex: int, seed: int | None) -> np.ndarray:
    """Distinct UID keys with the global minimum placed at ``vertex``.

    Used by the lower-bound construction (Section VI fixes the smallest
    UID at the first star's center).
    """
    keys = uid_keys_random(n, seed)
    amin = int(np.argmin(keys))
    keys[amin], keys[vertex] = keys[vertex], keys[amin]
    return keys


def _churn(base: Graph, tau: float, seed: int) -> DynamicGraph:
    """Static topology for ``τ = ∞``; isomorphic relabel churn otherwise."""
    if math.isinf(tau):
        return StaticDynamicGraph(base)
    return PeriodicRelabelDynamicGraph(base, int(tau), seed=seed)


def _churn_batched(
    base: Graph, tau: float, seeds: Sequence[int]
) -> DynamicGraph | list[DynamicGraph]:
    """Batched counterpart of :func:`_churn`.

    One shared static graph for ``τ = ∞``; otherwise one relabel
    generator per trial seed over the *shared base object*, which the
    batched engine recognizes and runs permutation-natively (no per-round
    graph construction or CSR stacking).
    """
    if math.isinf(tau):
        return StaticDynamicGraph(base)
    return [PeriodicRelabelDynamicGraph(base, int(tau), seed=int(ts)) for ts in seeds]


def _one_replica(
    topology: DynamicGraph | list[DynamicGraph] | BatchedPermutedDynamicGraph,
) -> DynamicGraph:
    """The single-replica topology a builder returned for ``build([ts])``.

    A one-element per-replica list unwraps to its graph; a one-replica
    :class:`~repro.graphs.adversary.BatchedPackingAdversary` becomes the
    :class:`~repro.graphs.adversary.PackingAdversary` with the same base,
    τ and packing order (no second Fiedler solve).  A shared
    :class:`~repro.graphs.dynamic.DynamicGraph` passes through.
    """
    if isinstance(topology, list):
        (topology,) = topology
    elif isinstance(topology, BatchedPackingAdversary):
        return PackingAdversary(
            topology.base, topology.tau, packing_order=topology.packing_order
        )
    return topology


def _outcomes(
    build,
    *,
    engine: str,
    trials: int,
    max_rounds: int,
    seed: int,
    fault_plan: FaultPlan | None = None,
) -> list[TrialOutcome]:
    """Run one experiment cell on the chosen engine tier.

    ``build(seeds)`` returns the cell's ``(topology, BatchedAlgorithm)``
    pair and never branches on ``len(seeds)``.  ``"batched"`` runs every
    trial as a replica of one
    :class:`~repro.core.batched.BatchedVectorizedEngine`; ``"single"``
    runs ``build([ts])`` per trial seed ``ts`` on a
    :class:`~repro.core.vectorized.VectorizedEngine`, with the same trial
    seeds, ID tags and relabel streams.
    """
    if engine not in ("single", "batched"):
        raise ValueError(f"engine must be 'single' or 'batched', got {engine!r}")
    if engine == "batched":
        return run_trials_batched(
            build,
            trials=trials,
            max_rounds=max_rounds,
            seed=seed,
            fault_plan=fault_plan,
        )

    def single(ts: int) -> VectorizedEngine:
        topology, algo = build([ts])
        return VectorizedEngine(
            _one_replica(topology), algo, seed=ts, fault_plan=fault_plan
        )

    return run_trials(single, trials=trials, max_rounds=max_rounds, seed=seed)


def _median(build, **kwargs) -> float:
    """Median rounds of :func:`_outcomes` (same keyword arguments)."""
    return trial_summary(_outcomes(build, **kwargs)).median


# ---------------------------------------------------------------------------
# E1 — Lemma V.1: gamma >= alpha / 4
# ---------------------------------------------------------------------------


def exp_lemma_v1(*, n_small: int = 10, random_graphs: int = 6, seed: int = 0) -> Table:
    """Exact verification of Lemma V.1 on small graphs of every family."""
    table = Table(
        title="E1 (Lemma V.1): cut-matching ratio gamma vs vertex expansion alpha",
        columns=["graph", "n", "alpha", "gamma", "alpha/4", "gamma >= alpha/4"],
        notes=[
            "Paper claim: gamma = min_S nu(B(S))/|S| >= alpha/4 for every graph.",
            "alpha and gamma computed exactly by subset enumeration.",
        ],
    )
    cases: list[tuple[str, Graph]] = [
        ("clique", families.clique(n_small)),
        ("path", families.path(n_small)),
        ("ring", families.ring(n_small)),
        ("star", families.star(n_small)),
        ("double_star", families.double_star((n_small - 2) // 2)),
        ("binary_tree", families.binary_tree(n_small)),
        ("grid", families.grid(2, n_small // 2)),
        ("hypercube", families.hypercube(3)),
        ("line_of_stars", families.line_of_stars(3, 2)),
        ("barbell", families.barbell(4)),
    ]
    for i in range(random_graphs):
        cases.append(
            (f"gnp#{i}", families.connected_erdos_renyi(n_small, 0.4, seed=seed + i))
        )
    for name, g in cases:
        alpha = vertex_expansion_exact(g)
        gamma = gamma_exact(g)
        table.add_row(name, g.n, alpha, gamma, alpha / 4.0, gamma >= alpha / 4.0 - 1e-12)
    return table


# ---------------------------------------------------------------------------
# E2 — Theorem V.2: PPUSH productivity across a cut
# ---------------------------------------------------------------------------


def exp_ppush_matching(
    *, m: int = 128, d: int = 16, trials: int = 20, seed: int = 0
) -> Table:
    """PPUSH progress across a bipartite cut with a perfect matching.

    A random ``d``-regular bipartite graph on sides of size ``m`` has a
    matching of size ``m`` (König); the left side starts informed and we
    measure how many right-side nodes learn the rumor in ``r`` stable
    rounds, against the theorem's ``m/f(r)`` with ``f(r)=Δ^{1/r}·c·r·log n``.
    """
    table = Table(
        title="E2 (Thm V.2): PPUSH informs >= m/f(r) across a cut in r stable rounds",
        columns=[
            "r",
            "workload",
            "f(r) (c=1)",
            "predicted min fraction",
            "measured mean fraction",
            "measured q10 fraction",
            "measured >= predicted",
        ],
        notes=[
            "Paper claim: with constant probability at least m/f(r) new nodes "
            "are informed, f(r) = Delta^(1/r) * c * r * log n.",
            f"regular workload: random {d}-regular bipartite graph, "
            f"|L| = |R| = m = {m} (benign contention).",
            f"staircase workload: nested neighborhoods (left i ~ rights 0..i), "
            f"m = {m}, Delta = m — the contention structure behind the "
            "Delta^(1/r) factor; progress per r is visibly slower.",
        ],
    )
    n = 2 * m
    log_delta = int(math.log2(d))
    staircase = families.staircase_bipartite(m)

    def measure(r: int, build_graph) -> list[float]:
        fractions = []
        for t in range(trials):
            g = build_graph(t, r)
            algo = PPushBatched(np.arange(m))
            engine = VectorizedEngine(
                StaticDynamicGraph(g), algo, seed=seed + 31 * t + r
            )
            engine.run(r, check_every=r + 1)  # exactly r rounds, no early stop
            fractions.append((int(algo.informed_count(engine.state)[0]) - m) / m)
        return fractions

    for r in range(1, log_delta + 1):
        for workload, delta_w, build in (
            (
                "regular",
                d,
                lambda t, r: families.random_bipartite_regular(
                    m, d, seed=seed + 1000 * t + r
                ),
            ),
            ("staircase", m, lambda t, r: staircase),
        ):
            fractions = measure(r, build)
            f_r = bounds.f_approx(r, delta_w, n, c=1.0)
            pred = 1.0 / f_r
            s = summarize(fractions)
            table.add_row(
                r, workload, f_r, pred, s.mean, s.q10, s.q10 >= pred - 1e-12
            )
    return table


def _fractions_by_workload(workloads, fractions) -> dict[str, list[float]]:
    per_workload: dict[str, list[float]] = {}
    for workload, fraction in zip(workloads, fractions):
        per_workload.setdefault(workload, []).append(fraction)
    return per_workload


def _fractions_monotone(workloads, fractions) -> tuple[bool, str]:
    per_workload = _fractions_by_workload(workloads, fractions)
    return all(fr == sorted(fr) for fr in per_workload.values()), str(per_workload)


def _staircase_harder(workloads, fractions) -> tuple[bool, str]:
    per = _fractions_by_workload(workloads, fractions)
    harder = all(s < r for r, s in zip(per.get("regular", []), per.get("staircase", [])))
    return harder, "contention structure"


# ---------------------------------------------------------------------------
# E3 — Theorem VI.1: blind gossip upper bound shape
# ---------------------------------------------------------------------------


def exp_blind_gossip_scaling(
    *,
    leaf_counts: Sequence[int] = (4, 8, 16, 32),
    trials: int = 10,
    seed: int = 0,
    max_rounds: int = 400_000,
    engine: str = "single",
) -> Table:
    """Blind gossip rounds vs Δ on the double star, static and τ=1 churn.

    The double star isolates the ``Δ²`` bottleneck: the hub-to-hub edge
    connects with probability ``≈ 1/Δ²`` per round.

    ``engine="batched"`` runs all trials of each sweep point as one
    :class:`~repro.core.batched.BatchedVectorizedEngine` (statistically
    equivalent, much faster at small n).
    """
    table = Table(
        title="E3 (Thm VI.1): blind gossip stabilization vs Delta (double star)",
        columns=["Delta", "n", "alpha", "rounds static", "rounds tau=1", "bound shape"],
        notes=[
            "Paper claim: O((1/alpha) * Delta^2 * log^2 n) rounds, even at tau=1.",
            "bound shape = (1/alpha)*Delta^2*log2(n)^2 (unnormalized constant).",
        ],
    )
    cell = partial(_median, engine=engine, trials=trials, max_rounds=max_rounds)
    for k in leaf_counts:
        base = families.double_star(k)
        n = base.n
        delta = base.max_degree
        alpha = 1.0 / (n // 2)
        keys = uid_keys_random(n, seed + k)

        def build(seeds, tau, base=base, keys=keys):
            return _churn_batched(base, tau, seeds), BlindGossipBatched(keys)

        med_static = cell(partial(build, tau=math.inf), seed=seed)
        med_churn = cell(partial(build, tau=1), seed=seed + 1)
        table.add_row(
            delta,
            n,
            alpha,
            med_static,
            med_churn,
            bounds.blind_gossip_upper(n, alpha, delta),
        )
    return table


# ---------------------------------------------------------------------------
# E4 — Section VI lower bound: line of stars
# ---------------------------------------------------------------------------


def exp_lower_bound_line_of_stars(
    *,
    star_sizes: Sequence[int] = (3, 4, 5, 6),
    trials: int = 8,
    seed: int = 0,
    max_rounds: int = 600_000,
    engine: str = "single",
) -> Table:
    """Blind gossip on the line of stars with the minimum UID at ``u_1``.

    The construction with ``s`` stars of ``s`` points forces the minimum
    UID across ``s-1`` hub-to-hub edges, each crossed with probability
    ``≈ 1/Δ²`` — predicting ``Θ(Δ²·s) ⊆ Ω(Δ²/√α)`` rounds.
    """
    table = Table(
        title="E4 (Sec VI lower bound): blind gossip on the line of stars",
        columns=["s (stars)", "n", "Delta", "alpha", "rounds", "Delta^2*s", "ratio"],
        notes=[
            "Paper claim: blind gossip needs Omega(Delta^2 / sqrt(alpha)) rounds "
            "on this stable network (min UID at the first star center).",
            "ratio = measured / (Delta^2 * s); shape holds if roughly constant.",
        ],
    )
    for s in star_sizes:
        g = families.line_of_stars(s, s)
        n, delta = g.n, g.max_degree
        alpha = families.line_of_stars_expansion(s, s)
        keys = uid_keys_with_min_at(n, 0, seed + s)

        def build(seeds, g=g, keys=keys):
            return StaticDynamicGraph(g), BlindGossipBatched(keys)

        med = _median(
            build, engine=engine, trials=trials, max_rounds=max_rounds, seed=seed
        )
        pred = delta * delta * s
        table.add_row(s, n, delta, alpha, med, pred, med / pred)
    return table


# ---------------------------------------------------------------------------
# E5 — Corollary VI.6: PUSH-PULL rumor spreading at b = 0
# ---------------------------------------------------------------------------


def exp_push_pull(
    *,
    leaf_counts: Sequence[int] = (4, 8, 16, 32),
    trials: int = 10,
    seed: int = 0,
    max_rounds: int = 400_000,
    engine: str = "single",
) -> Table:
    """PUSH-PULL completion vs Δ on the double star (source at a hub-1 leaf)."""
    table = Table(
        title="E5 (Cor VI.6): b=0 PUSH-PULL rumor spreading vs Delta (double star)",
        columns=["Delta", "n", "rounds static", "rounds tau=1", "bound shape"],
        notes=[
            "Paper claim: PUSH-PULL completes in O((1/alpha)*Delta^2*log^2 n) "
            "rounds at b=0, any tau >= 1 (Corollary VI.6).",
        ],
    )
    cell = partial(_median, engine=engine, trials=trials, max_rounds=max_rounds)
    for k in leaf_counts:
        base = families.double_star(k)
        n, delta = base.n, base.max_degree
        alpha = 1.0 / (n // 2)
        source = np.array([2])  # first leaf of hub 0: rumor must cross both hubs

        def build(seeds, tau, base=base, source=source):
            return _churn_batched(base, tau, seeds), PushPullBatched(source)

        med_static = cell(partial(build, tau=math.inf), seed=seed)
        med_churn = cell(partial(build, tau=1), seed=seed + 1)
        table.add_row(
            delta, n, med_static, med_churn, bounds.push_pull_upper(n, alpha, delta)
        )
    return table


# ---------------------------------------------------------------------------
# E6 — Theorem VII.2: bit convergence vs tau
# ---------------------------------------------------------------------------


def exp_bit_convergence_tau(
    *,
    n: int = 64,
    degree: int = 8,
    taus: Sequence[float] = (1, 2, 4, 8, 16, math.inf),
    trials: int = 8,
    seed: int = 0,
    max_rounds: int = 400_000,
    beta: float = 1.0,
    engine: str = "single",
) -> Table:
    """Bit convergence stabilization vs the stability factor τ.

    Theorem VII.2 predicts rounds shrinking as ``Δ^{1/τ̂}·τ̂`` with
    ``τ̂ = min(τ, log Δ)`` — monotone improvement flattening once
    ``τ ≥ log Δ``.  Two churn models per τ:

    * *oblivious*: isomorphic relabeling of a ``degree``-regular base
      every τ rounds — honours the contract but mixes state, so it barely
      exercises the bound's τ term (kept as the honest null result);
    * *adaptive*: :class:`~repro.graphs.adversary.PackingAdversary` on a
      double star with ``Δ ≈ degree`` — repacks winners behind a unit cut
      matching at every epoch boundary, so longer stability directly buys
      more PPUSH progress per epoch; this is where the τ-dependence shows.

    ``engine="batched"`` runs each (τ, churn-model) cell as one batched
    engine: the oblivious arm through the permutation-native relabel fast
    path, the adaptive arm through a single
    :class:`~repro.graphs.adversary.BatchedPackingAdversary` reacting to
    the whole ``(T, n)`` observation at once.
    """
    base = families.random_regular(n, degree, seed=seed)
    star_base = families.double_star(max(2, degree - 1))
    delta = base.max_degree
    alpha = vertex_expansion(base, seed=seed)
    config = BitConvergenceConfig(n_upper=n, delta_bound=delta, beta=beta)
    star_config = BitConvergenceConfig(
        n_upper=star_base.n, delta_bound=star_base.max_degree, beta=beta
    )
    keys = uid_keys_random(n, seed)
    star_keys = uid_keys_random(star_base.n, seed + 1)
    table = Table(
        title="E6 (Thm VII.2): bit convergence rounds vs stability factor tau",
        columns=["tau", "tau_hat", "oblivious churn", "adaptive churn", "bound shape"],
        notes=[
            "Paper claim: O((1/alpha)*Delta^(1/tau_hat)*tau_hat*log^5 n) rounds, "
            "tau_hat = min(tau, log Delta); improvement flattens past log Delta.",
            f"Oblivious workload: {degree}-regular graph on n={n} "
            f"(alpha~{alpha:.2f}), relabeling churn every tau rounds — random "
            "relabeling mixes state, so the tau term barely registers "
            "(honest null result).",
            f"Adaptive workload: double star (n={star_base.n}, "
            f"Delta={star_base.max_degree}) with the packing adversary "
            "repacking winners each epoch; any finite tau costs a clear "
            "factor over tau=inf.",
            "The adaptive column is flat across finite tau because the "
            "packing pins the cut matching to 1, capping progress per round "
            "regardless of epoch length; the bound's finer Delta^(1/tau_hat) "
            "gradation prices contention-heavy cuts that neither churn model "
            "constructs.",
        ],
    )
    cell = partial(_median, engine=engine, trials=trials, max_rounds=max_rounds)
    for tau in taus:

        def build_obliv(seeds, tau=tau):
            return (
                _churn_batched(base, tau, seeds),
                BitConvergenceBatched(keys, config, unique_tags=True),
            )

        def build_adaptive(seeds, tau=tau):
            if math.isinf(tau):
                dg = StaticDynamicGraph(star_base)
            else:
                dg = BatchedPackingAdversary(
                    star_base, tau=int(tau), replicas=len(seeds)
                )
            return dg, BitConvergenceBatched(star_keys, star_config, unique_tags=True)

        med_obliv = cell(build_obliv, seed=seed)
        med_adapt = cell(build_adaptive, seed=seed + 1)
        table.add_row(
            "inf" if math.isinf(tau) else int(tau),
            bounds.tau_hat(tau if not math.isinf(tau) else delta, delta),
            med_obliv,
            med_adapt,
            bounds.bit_convergence_upper(n, alpha, delta, tau if not math.isinf(tau) else delta),
        )
    return table


# ---------------------------------------------------------------------------
# E7 — the b = 0 vs b = 1 gap
# ---------------------------------------------------------------------------


def exp_gap_b0_b1(
    *,
    leaves: int = 16,
    taus: Sequence[float] = (1, 2, 4, math.inf),
    trials: int = 8,
    seed: int = 0,
    max_rounds: int = 600_000,
    beta: float = 1.0,
    engine: str = "single",
) -> Table:
    """Blind gossip vs bit convergence head-to-head on the double star.

    The paper's headline gap: as τ grows from 1 to ``log Δ``, the advantage
    of the 1-bit algorithm grows from ``~Δ`` to ``~Δ²`` (log factors aside).
    """
    base = families.double_star(leaves)
    n, delta = base.n, base.max_degree
    config = BitConvergenceConfig(n_upper=n, delta_bound=delta, beta=beta)
    keys = uid_keys_random(n, seed)
    table = Table(
        title="E7 (Sec VII): b=0 vs b=1 leader election gap vs tau (double star)",
        columns=["tau", "blind gossip (b=0)", "bit convergence (b=1)", "speedup"],
        notes=[
            "Paper claim: the b=1 advantage grows from ~Delta to ~Delta^2 as "
            "tau goes from 1 to log Delta (ignoring log factors).",
            "At simulatable scale the polylog factors of bit convergence are "
            "comparable to Delta, so the reproducible shape is the *trend*: "
            "the speedup grows with tau and with Delta.",
            f"Workload: double star, Delta={delta}, n={n}.",
        ],
    )
    cell = partial(_median, engine=engine, trials=trials, max_rounds=max_rounds)
    for tau in taus:

        def build_bg(seeds, tau=tau):
            return _churn_batched(base, tau, seeds), BlindGossipBatched(keys)

        def build_bc(seeds, tau=tau):
            return (
                _churn_batched(base, tau, seeds),
                BitConvergenceBatched(keys, config, unique_tags=True),
            )

        bg = cell(build_bg, seed=seed)
        bc = cell(build_bc, seed=seed + 1)
        table.add_row("inf" if math.isinf(tau) else int(tau), bg, bc, bg / bc)
    return table


# ---------------------------------------------------------------------------
# E8 — Theorem VIII.2: asynchronous activations
# ---------------------------------------------------------------------------


def exp_async(
    *,
    n: int = 32,
    degree: int = 4,
    trials: int = 6,
    seed: int = 0,
    max_rounds: int = 400_000,
    beta: float = 1.0,
) -> Table:
    """Async bit convergence vs the synchronized original.

    Three variants on the same static random-regular topology:
    synchronized bit convergence, async algorithm with simultaneous
    starts, and async algorithm with staggered activations (measured from
    the last activation, as Theorem VIII.2 prescribes).
    """
    base = families.random_regular(n, degree, seed=seed)
    delta = base.max_degree
    config = BitConvergenceConfig(n_upper=n, delta_bound=delta, beta=beta)
    keys = uid_keys_random(n, seed)
    spread = 4 * config.group_len

    def build_sync(seeds):
        return (
            StaticDynamicGraph(base),
            BitConvergenceBatched(keys, config, unique_tags=True),
        )

    def build_async_simul(seeds):
        return (
            StaticDynamicGraph(base),
            AsyncBitConvergenceBatched(keys, config, unique_tags=True),
        )

    def build_async_staggered(ts: int) -> VectorizedEngine:
        act = make_rng(ts, "activations").integers(1, spread + 1, size=n)
        act[int(np.argmin(act))] = 1  # someone starts at round 1
        return VectorizedEngine(
            StaticDynamicGraph(base),
            AsyncBitConvergenceBatched(keys, config, unique_tags=True),
            seed=ts,
            activation_rounds=act,
        )

    table = Table(
        title="E8 (Thm VIII.2): async bit convergence vs synchronized original",
        columns=["variant", "b (tag bits)", "rounds", "ratio to sync"],
        notes=[
            "Paper claim: the async variant stabilizes within polylog factors "
            "of the original, measured after the last activation, and needs "
            "b = ceil(log k)+1 = loglog n + O(1) advertising bits.",
            f"Workload: static {degree}-regular graph on n={n}; "
            f"staggered activations spread over {spread} rounds.",
        ],
    )
    cell = partial(_median, engine="single", trials=trials, max_rounds=max_rounds)
    sync_med = cell(build_sync, seed=seed)
    table.add_row("bit convergence (sync)", 1, sync_med, 1.0)

    simul_med = cell(build_async_simul, seed=seed + 1)
    table.add_row("async, simultaneous starts", config_tag_bits(config), simul_med, simul_med / sync_med)

    stag_out = run_trials(
        build_async_staggered, trials=trials, max_rounds=max_rounds, seed=seed + 2
    )
    stag_med = trial_summary(stag_out, after_activation=True).median
    table.add_row(
        "async, staggered (after last act.)",
        config_tag_bits(config),
        stag_med,
        stag_med / sync_med,
    )
    return table


def config_tag_bits(config: BitConvergenceConfig) -> int:
    """Advertising bits the async variant needs for this configuration."""
    from repro.algorithms.async_bit_convergence import async_tag_length

    return async_tag_length(config.k)


# ---------------------------------------------------------------------------
# E9 — self-stabilization: joining long-running components
# ---------------------------------------------------------------------------


def exp_self_stabilization(
    *,
    component_n: int = 16,
    degree: int = 4,
    trials: int = 6,
    seed: int = 0,
    max_rounds: int = 400_000,
    beta: float = 1.0,
) -> Table:
    """Join two converged components and measure re-stabilization.

    Each component runs async bit convergence to convergence in isolation;
    the components are then bridged and the combined network continues
    from its existing state.  Section VIII claims the combined network
    stabilizes in the same time as a fresh network of the combined size.
    """
    n_total = 2 * component_n
    config = BitConvergenceConfig(n_upper=n_total, delta_bound=degree + 1, beta=beta)
    joined_rounds, fresh_rounds = [], []
    for t in range(trials):
        ts = seed + 101 * t
        g1 = families.random_regular(component_n, degree, seed=ts)
        g2 = families.random_regular(component_n, degree, seed=ts + 1)
        union = g1.union(g2, [(0, 0), (component_n - 1, component_n - 1)])
        keys = uid_keys_random(n_total, ts)
        # Tags are drawn uniquely across the *whole* eventual network: the
        # paper's uniqueness event covers all nodes that will ever meet (a
        # cross-component collision at the minimum tag would deadlock the
        # bit advertising, exactly as in the single-network case).
        all_tags = draw_id_tags(n_total, config, ts + 5, unique=True)

        # Run each component to convergence in isolation.
        states = []
        for comp, g, key_slice in (
            (0, g1, slice(0, component_n)),
            (1, g2, slice(component_n, n_total)),
        ):
            algo = AsyncBitConvergenceBatched(
                keys[key_slice],
                config,
                initial_pairs=(all_tags[key_slice], keys[key_slice]),
            )
            eng = VectorizedEngine(StaticDynamicGraph(g), algo, seed=ts + 13 * comp)
            res = eng.run(max_rounds)
            if not res.stabilized:
                raise RuntimeError("component failed to stabilize; raise max_rounds")
            states.append((eng.state.ctag[0].copy(), eng.state.ckey[0].copy()))

        # Join: continue from the components' converged states.
        init_tags = np.concatenate([states[0][0], states[1][0]])
        init_keys = np.concatenate([states[0][1], states[1][1]])
        algo_joined = AsyncBitConvergenceBatched(
            keys, config, initial_pairs=(init_tags, init_keys)
        )
        eng_joined = VectorizedEngine(
            StaticDynamicGraph(union), algo_joined, seed=ts + 29
        )
        res_joined = eng_joined.run(max_rounds)
        if not res_joined.stabilized:
            raise RuntimeError("joined network failed to stabilize")
        joined_rounds.append(res_joined.rounds)

        # Baseline: a fresh start on the same union topology.
        algo_fresh = AsyncBitConvergenceBatched(keys, config, tag_seed=ts + 31, unique_tags=True)
        eng_fresh = VectorizedEngine(StaticDynamicGraph(union), algo_fresh, seed=ts + 37)
        res_fresh = eng_fresh.run(max_rounds)
        if not res_fresh.stabilized:
            raise RuntimeError("fresh union failed to stabilize")
        fresh_rounds.append(res_fresh.rounds)

    s_join, s_fresh = summarize(joined_rounds), summarize(fresh_rounds)
    table = Table(
        title="E9 (Sec VIII): self-stabilization after joining converged components",
        columns=["scenario", "median rounds", "mean rounds"],
        notes=[
            "Paper claim: connecting components that ran for arbitrary durations "
            "still stabilizes to a single leader in the usual stabilization time.",
            f"Workload: two {degree}-regular components of n={component_n}, "
            "bridged by two edges.",
        ],
    )
    table.add_row("fresh start on union", s_fresh.median, s_fresh.mean)
    table.add_row("join after convergence", s_join.median, s_join.mean)
    table.notes.append(
        f"ratio join/fresh (median): {s_join.median / max(s_fresh.median, 1e-9):.2f} "
        "(same order expected)."
    )
    return table


def _join_vs_fresh(scenarios, medians) -> tuple[bool, str]:
    med = dict(zip(scenarios, medians))
    joined, fresh = med["join after convergence"], med["fresh start on union"]
    return joined < 5 * fresh, f"{joined} vs {fresh}"


# ---------------------------------------------------------------------------
# E10 — classical telephone model vs mobile telephone model
# ---------------------------------------------------------------------------


def exp_classical_vs_mobile(
    *,
    leaf_counts: Sequence[int] = (4, 8, 16, 32),
    trials: int = 10,
    seed: int = 0,
    max_rounds: int = 400_000,
) -> Table:
    """Rumor spreading: classical model vs mobile b=0 vs mobile b=1.

    The single-connection restriction is what costs ``Δ²``: classical
    PUSH-PULL and mobile PPUSH scale ``~Δ`` on the double star while
    mobile b=0 PUSH-PULL scales ``~Δ²``.
    """
    table = Table(
        title="E10: classical PUSH-PULL vs mobile b=0 PUSH-PULL vs PPUSH (b=1)",
        columns=["Delta", "n", "classical", "mobile b=0", "mobile b=1 (PPUSH)"],
        notes=[
            "Paper context: classical model (unbounded accepts) and the b=1 "
            "mobile model spread rumors in O((1/alpha)*polylog n) on stable "
            "graphs; the b=0 mobile model provably cannot (Sec VI).",
        ],
    )
    cell = partial(_median, engine="single", trials=trials, max_rounds=max_rounds)
    for k in leaf_counts:
        base = families.double_star(k)
        n, delta = base.n, base.max_degree
        source = np.array([2])

        def build_b0(seeds, base=base, source=source):
            return StaticDynamicGraph(base), PushPullBatched(source)

        def build_b1(seeds, base=base, source=source):
            return StaticDynamicGraph(base), PPushBatched(source)

        classical = [
            classical_push_pull_rumor(
                StaticDynamicGraph(base), 2, max_rounds=max_rounds, seed=seed + 17 * t
            ).rounds
            for t in range(trials)
        ]
        med_cl = float(np.median(classical))
        med_b0 = cell(build_b0, seed=seed)
        med_b1 = cell(build_b1, seed=seed + 1)
        table.add_row(delta, n, med_cl, med_b0, med_b1)
    return table


# ---------------------------------------------------------------------------
# E11 — worst-case expansion vs well-connected, tau = 1
# ---------------------------------------------------------------------------


def exp_dynamic_comparison(
    *,
    sizes: Sequence[int] = (16, 32, 64),
    degree: int = 4,
    trials: int = 6,
    seed: int = 0,
    max_rounds: int = 600_000,
    beta: float = 1.0,
    engine: str = "single",
) -> Table:
    """Bit convergence: ring (α ~ 1/n) vs random regular (α ~ const).

    Paper context (related work): versus Kuhn-Lynch-Oshman's O(n²) dynamic
    leader election, bit convergence costs O(n·Δ·polylog n) at worst-case
    expansion but drops toward polylog on well-connected graphs — the 1/α
    term, not n itself, drives the cost.

    Static columns isolate the 1/α effect.  The τ=1 columns use random
    isomorphic relabeling, which *destroys locality*: a relabeled ring is
    effectively a fresh random 2-regular graph each round, i.e. a temporal
    expander.  The per-round α is still 2/n, but the measured rounds
    collapse — direct evidence that the bound's per-snapshot α is a
    worst-case (adversarial-schedule) parameter that oblivious random
    churn does not realize.
    """
    table = Table(
        title="E11: bit convergence, poorly vs well connected (static and tau=1)",
        columns=[
            "n",
            "ring static",
            "regular static",
            "static ratio",
            "ring tau=1",
            "regular tau=1",
        ],
        notes=[
            "Paper claim: the (1/alpha) term dominates; well-connected graphs "
            "elect leaders near-polylogarithmically.",
            "static ratio = ring/regular, expected to grow ~n/polylog as the "
            "ring's 1/alpha = n/2 kicks in.",
            "tau=1 uses random relabeling churn: it mixes the ring into a "
            "temporal expander, so the 1/alpha penalty disappears — the "
            "bound's per-round alpha is adversarial worst case.",
        ],
    )
    cell = partial(_median, engine=engine, trials=trials, max_rounds=max_rounds)
    for n in sizes:
        ring = families.ring(n)
        reg = families.random_regular(n, degree, seed=seed + n)
        keys = uid_keys_random(n, seed + n)
        cfg_ring = BitConvergenceConfig(n_upper=n, delta_bound=2, beta=beta)
        cfg_reg = BitConvergenceConfig(n_upper=n, delta_bound=degree, beta=beta)

        def build(seeds, *, base, cfg, tau):
            return (
                _churn_batched(base, tau, seeds),
                BitConvergenceBatched(keys, cfg, unique_tags=True),
            )

        ring_static = cell(
            partial(build, base=ring, cfg=cfg_ring, tau=math.inf), seed=seed
        )
        reg_static = cell(
            partial(build, base=reg, cfg=cfg_reg, tau=math.inf), seed=seed + 1
        )
        ring_churn = cell(partial(build, base=ring, cfg=cfg_ring, tau=1), seed=seed + 2)
        reg_churn = cell(partial(build, base=reg, cfg=cfg_reg, tau=1), seed=seed + 3)
        table.add_row(
            n, ring_static, reg_static, ring_static / reg_static, ring_churn, reg_churn
        )
    return table


# ---------------------------------------------------------------------------
# E12 — adaptive vs oblivious churn (extension)
# ---------------------------------------------------------------------------


def exp_adaptive_adversary(
    *,
    leaf_counts: Sequence[int] = (8, 16, 32),
    trials: int = 8,
    seed: int = 0,
    max_rounds: int = 600_000,
    engine: str = "single",
) -> Table:
    """PUSH-PULL under adaptive worst-case churn vs oblivious churn.

    The model allows an *adversarial* dynamic graph; the bounds' τ- and
    α-dependence prices that adversary.  Oblivious random relabeling mixes
    state and helps; the :class:`~repro.graphs.adversary.PackingAdversary`
    instead observes the informed set each epoch and relabels the double
    star so the informed nodes sit behind a single boundary vertex —
    pinning the cut matching ν(B(S)) to 1 and throttling spread to ~one
    node per round.  Expected ordering: oblivious ≤ static ≤ adaptive,
    with the adaptive column growing ~linearly in n on top.
    """
    table = Table(
        title="E12 (extension): b=0 PUSH-PULL — oblivious vs adaptive tau=1 churn",
        columns=["Delta", "n", "static", "oblivious tau=1", "adaptive tau=1"],
        notes=[
            "Model context: the dynamic graph is adversarial; the bounds "
            "price a worst case that oblivious random churn never realizes.",
            "Adaptive adversary: packs the informed set behind one boundary "
            "vertex every epoch (alpha and Delta preserved exactly).",
        ],
    )
    cell = partial(_median, engine=engine, trials=trials, max_rounds=max_rounds)
    for k in leaf_counts:
        base = families.double_star(k)
        n, delta = base.n, base.max_degree
        source = np.array([2])

        def build_static(seeds, base=base, source=source):
            return StaticDynamicGraph(base), PushPullBatched(source)

        def build_obliv(seeds, base=base, source=source):
            return _churn_batched(base, 1, seeds), PushPullBatched(source)

        def build_adaptive(seeds, base=base, source=source):
            return (
                BatchedPackingAdversary(base, tau=1, replicas=len(seeds)),
                PushPullBatched(source),
            )

        med_static = cell(build_static, seed=seed)
        med_obliv = cell(build_obliv, seed=seed + 1)
        med_adapt = cell(build_adaptive, seed=seed + 2)
        table.add_row(delta, n, med_static, med_obliv, med_adapt)
    return table


# ---------------------------------------------------------------------------
# E14 — PPUSH matches the classical model within log factors (tau >= log Δ)
# ---------------------------------------------------------------------------


def exp_ppush_vs_classical(
    *,
    sizes: Sequence[int] = (32, 64, 128, 256),
    degree: int = 8,
    trials: int = 10,
    seed: int = 0,
    max_rounds: int = 200_000,
) -> Table:
    """PPUSH (b=1, single accept) vs classical PUSH-PULL (unbounded accepts).

    Related-work claim (carried from Ghaffari-Newport and used throughout
    this paper): for ``τ ≥ log Δ`` and with one advertising bit, PPUSH in
    the mobile telephone model *matches* classical PUSH-PULL within log
    factors — the one-connection restriction costs only polylog once a
    single bit of advertising focuses the proposals.  We sweep ``n`` on
    static regular graphs and check the ratio grows at most
    polylogarithmically (in particular, far slower than any polynomial).
    """
    table = Table(
        title="E14: PPUSH (mobile, b=1) vs classical PUSH-PULL, static regular graphs",
        columns=["n", "classical", "PPUSH (b=1)", "ratio", "log2(n)"],
        notes=[
            "Paper context: with b=1 and tau >= log Delta the mobile model "
            "matches the classical model within log factors.",
            f"Workload: static {degree}-regular graphs, rumor at vertex 0.",
        ],
    )
    ratios = []
    for n in sizes:
        g = families.random_regular(n, degree, seed=seed + n)
        dg = StaticDynamicGraph(g)
        classical = [
            classical_push_pull_rumor(dg, 0, max_rounds=max_rounds, seed=seed + 17 * t).rounds
            for t in range(trials)
        ]

        def build(seeds, dg=dg):
            return dg, PPushBatched(np.array([0]))

        med_cl = float(np.median(classical))
        med_pp = _median(
            build, engine="single", trials=trials, max_rounds=max_rounds, seed=seed
        )
        ratio = med_pp / med_cl
        ratios.append(ratio)
        table.add_row(n, med_cl, med_pp, ratio, math.log2(n))
    table.notes.append(
        f"ratio at smallest vs largest n: {ratios[0]:.2f} -> {ratios[-1]:.2f}; "
        "a polylog gap stays within a small constant multiple of log n."
    )
    return table


# ---------------------------------------------------------------------------
# E19 — Lemmas VI.4/VI.5: blind gossip phases are productive
# ---------------------------------------------------------------------------


def exp_productive_phases(
    *,
    n: int = 32,
    degree: int = 4,
    trials: int = 10,
    c: float = 1.0,
    seed: int = 0,
    max_phases: int = 60,
) -> Table:
    """Empirical frequency of *productive* blind gossip phases.

    Lemma VI.4: while ``|S| ≤ n/2``, every phase of ``c·Δ²·log n`` rounds
    grows the winner-holding set by ``(1 + α/4)`` w.h.p.; Lemma VI.5: once
    ``|S| > n/2`` the complement shrinks by ``(1 - α/4)``.  We classify
    every phase of live runs against exactly these thresholds.
    """
    base = families.random_regular(n, degree, seed=seed)
    delta = base.max_degree
    alpha = vertex_expansion(base, seed=seed)
    phase_len = max(1, int(round(c * delta * delta * math.log2(n))))
    keys = uid_keys_random(n, seed)
    table = Table(
        title="E19 (Lemmas VI.4/VI.5): productive blind gossip phases",
        columns=[
            "workload",
            "phase rounds",
            "phases observed",
            "productive fraction (mean)",
            "productive fraction (min)",
        ],
        notes=[
            "Paper claim: each phase of c*Delta^2*log n rounds grows S by "
            "(1+alpha/4) while |S| <= n/2, then shrinks U by (1-alpha/4), "
            "w.h.p. (c=1 here; the paper's c is an unspecified constant).",
            f"Workloads on n={n}: {degree}-regular (alpha~{alpha:.2f}) and "
            "the double star (its own alpha, Delta).",
        ],
    )
    star = families.double_star((n - 2) // 2)
    star_alpha = 1.0 / (star.n // 2)
    star_phase = max(1, int(round(c * star.max_degree**2 * math.log2(star.n))))
    star_keys = uid_keys_random(star.n, seed + 1)

    for name, g, a, plen, kk in (
        (f"{degree}-regular", base, alpha, phase_len, keys),
        ("double star", star, star_alpha, star_phase, star_keys),
    ):
        fractions = []
        total = 0
        for t in range(trials):
            ts = seed + 41 * t
            algo = BlindGossipBatched(kk)
            eng = VectorizedEngine(StaticDynamicGraph(g), algo, seed=ts)
            holders = lambda: int((eng.state.best == eng.state.target).sum())
            productive = 0
            phases = 0
            r = 0
            for _ in range(max_phases):
                s0 = holders()
                if s0 == g.n:
                    break
                for _ in range(plen):
                    r += 1
                    eng.step(r)
                s1 = holders()
                phases += 1
                if s0 <= g.n / 2:
                    productive += s1 >= (1 + a / 4) * s0
                else:
                    productive += (g.n - s1) <= (1 - a / 4) * (g.n - s0)
            if phases:
                fractions.append(productive / phases)
                total += phases
        table.add_row(
            name, plen, total, float(np.mean(fractions)), float(np.min(fractions))
        )
    return table


# ---------------------------------------------------------------------------
# E13 — Lemma VII.5: good phases occur with constant probability
# ---------------------------------------------------------------------------


def exp_good_phase_frequency(
    *,
    n: int = 32,
    degree: int = 4,
    taus: Sequence[float] = (1, 2, math.inf),
    trials: int = 10,
    max_phases: int = 60,
    seed: int = 0,
    beta: float = 1.0,
) -> Table:
    """Empirical frequency of *good* phases (Definition VII.3).

    Lemma VII.5 asserts every phase with ``b_i ≠ ⊥`` is good with at least
    a constant probability ``p_g``, for any τ ≥ 1.  We classify every phase
    of live bit convergence executions and report the measured frequency.
    """
    from repro.analysis.progress import PhaseClassifier

    base = families.random_regular(n, degree, seed=seed)
    star_base = families.double_star(max(2, n // 4))
    delta = base.max_degree
    alpha = vertex_expansion(base, seed=seed)
    star_alpha = 1.0 / (star_base.n // 2)
    config = BitConvergenceConfig(n_upper=n, delta_bound=delta, beta=beta)
    star_config = BitConvergenceConfig(
        n_upper=star_base.n, delta_bound=star_base.max_degree, beta=beta
    )
    keys = uid_keys_random(n, seed)
    star_keys = uid_keys_random(star_base.n, seed + 1)
    table = Table(
        title="E13 (Lemma VII.5): empirical good-phase frequency",
        columns=[
            "tau",
            "workload",
            "phases observed",
            "good fraction (mean)",
            "good fraction (min)",
        ],
        notes=[
            "Paper claim: each phase with b_i != bottom is good with at "
            "least constant probability p_g, for any tau >= 1.",
            f"Benign workload: {degree}-regular graph on n={n} "
            f"(alpha~{alpha:.2f}) under relabeling churn; adversarial "
            f"workload: double star n={star_base.n} under the packing "
            "adversary.  Goodness threshold 1 + alpha/(4 f(tau_hat)) per "
            "Definition VII.3 (c=1).",
        ],
    )

    def classify(make_engine, alpha_used, tau) -> tuple[int, float, float]:
        fractions = []
        phases_total = 0
        for t in range(trials):
            ts = seed + 37 * t
            eng = make_engine(ts)
            clf = PhaseClassifier(eng, alpha=alpha_used, tau=tau)
            recs = clf.run(max_phases)
            if recs:
                fractions.append(clf.good_fraction)
                phases_total += len(recs)
        return phases_total, float(np.mean(fractions)), float(np.min(fractions))

    for tau in taus:
        def mk_benign(ts: int, tau=tau) -> VectorizedEngine:
            return VectorizedEngine(
                _churn(base, tau, ts),
                BitConvergenceBatched(keys, config, unique_tags=True),
                seed=ts,
            )

        def mk_adversarial(ts: int, tau=tau) -> VectorizedEngine:
            dg = (
                StaticDynamicGraph(star_base)
                if math.isinf(tau)
                else PackingAdversary(star_base, tau=int(tau))
            )
            return VectorizedEngine(
                dg,
                BitConvergenceBatched(star_keys, star_config, unique_tags=True),
                seed=ts,
            )

        tau_label = "inf" if math.isinf(tau) else int(tau)
        total, mean_f, min_f = classify(mk_benign, alpha, tau)
        table.add_row(tau_label, "regular+oblivious", total, mean_f, min_f)
        total, mean_f, min_f = classify(mk_adversarial, star_alpha, tau)
        table.add_row(tau_label, "double star+adaptive", total, mean_f, min_f)
    return table


# ---------------------------------------------------------------------------
# E15 — communication cost (connections until stabilization)
# ---------------------------------------------------------------------------


def exp_communication_cost(
    *,
    n: int = 64,
    degree: int = 8,
    trials: int = 8,
    seed: int = 0,
    max_rounds: int = 600_000,
    beta: float = 1.0,
) -> Table:
    """Total connections (≈ radio energy) each algorithm spends to elect.

    Rounds measure latency; *connections* measure the radio work the
    devices perform — the resource smartphone deployments actually care
    about.  Blind gossip connects promiscuously every round; bit
    convergence's advertised bits suppress useless connections, so it can
    win on energy even where it loses on latency.
    """
    base = families.random_regular(n, degree, seed=seed)
    star = families.double_star(degree * 2)
    keys = uid_keys_random(n, seed)
    star_keys = uid_keys_random(star.n, seed + 1)
    cfg = BitConvergenceConfig(n_upper=n, delta_bound=degree, beta=beta)
    star_cfg = BitConvergenceConfig(
        n_upper=star.n, delta_bound=star.max_degree, beta=beta
    )
    table = Table(
        title="E15: communication cost — total connections until stabilization",
        columns=[
            "algorithm",
            f"regular n={n}: rounds",
            "connections",
            f"double star n={star.n}: rounds",
            "connections",
        ],
        notes=[
            "connections ~ radio energy: each connection is 2 messages.",
            "medians over trials; the b=1 advertisement suppresses useless "
            "connections, trading rounds for radio work.",
        ],
    )

    def run_cells(make_algo, graph, kk) -> tuple[float, float]:
        rounds, conns = [], []
        for t in range(trials):
            ts = seed + 53 * t
            eng = VectorizedEngine(StaticDynamicGraph(graph), make_algo(kk), seed=ts)
            res = eng.run(max_rounds)
            if not res.stabilized:
                raise RuntimeError("trial did not stabilize; raise max_rounds")
            rounds.append(res.rounds)
            conns.append(eng.connections_made)
        return float(np.median(rounds)), float(np.median(conns))

    cases = [
        ("blind gossip (b=0)", lambda kk: BlindGossipBatched(kk)),
        (
            "bit convergence (b=1)",
            lambda kk: BitConvergenceBatched(
                kk, cfg if kk is keys else star_cfg, unique_tags=True
            ),
        ),
        (
            "async bit convergence",
            lambda kk: AsyncBitConvergenceBatched(
                kk, cfg if kk is keys else star_cfg, unique_tags=True
            ),
        ),
    ]
    for name, make_algo in cases:
        r_reg, c_reg = run_cells(make_algo, base, keys)
        r_star, c_star = run_cells(make_algo, star, star_keys)
        table.add_row(name, r_reg, c_reg, r_star, c_star)
    return table


def _async_fewest_connections(algorithms, connections) -> tuple[bool, str]:
    conns = dict(zip(algorithms, connections))
    return conns["async bit convergence"] <= conns["blind gossip (b=0)"], str(conns)


# ---------------------------------------------------------------------------
# E16 — extension: k-gossip (all-to-all dissemination)
# ---------------------------------------------------------------------------


def exp_k_gossip(
    *,
    sizes: Sequence[int] = (8, 16, 32, 64),
    degree: int = 4,
    trials: int = 6,
    seed: int = 0,
    max_rounds: int = 600_000,
) -> Table:
    """All-to-all gossip completion time (paper's future-work direction).

    Every node starts with a rumor; a connection moves one rumor per
    direction.  Information-theoretic floor: ``n·(n-1)`` rumor copies at
    ≤ n per round ⇒ at least ``n - 1`` rounds even on a clique.  We
    measure the scaling on cliques and sparse regular graphs.
    """
    from repro.algorithms.k_gossip import KGossipBatched

    table = Table(
        title="E16 (extension): k-gossip — all-to-all dissemination at b=0",
        columns=["n", "clique rounds", f"{degree}-regular rounds", "floor n-1"],
        notes=[
            "Paper's conclusion lists gossip among the problems this model "
            "opens; a connection carries one rumor per direction (O(1) "
            "budget).",
        ],
    )
    cell = partial(_median, engine="single", trials=trials, max_rounds=max_rounds)
    for n in sizes:
        clique = families.clique(n)
        reg = families.random_regular(n, degree, seed=seed + n)

        def build(seeds, g):
            return StaticDynamicGraph(g), KGossipBatched()

        med_clique = cell(partial(build, g=clique), seed=seed)
        med_reg = cell(partial(build, g=reg), seed=seed + 1)
        table.add_row(n, med_clique, med_reg, n - 1)
    return table


# ---------------------------------------------------------------------------
# E17 — extension: averaging gossip vs expansion
# ---------------------------------------------------------------------------


def exp_averaging(
    *,
    n: int = 64,
    degree: int = 6,
    trials: int = 8,
    eps: float = 1e-3,
    seed: int = 0,
    max_rounds: int = 600_000,
) -> Table:
    """Distributed averaging: convergence time tracks 1/α across families.

    Each pairwise average contracts disagreement along one edge, so
    well-expanding topologies mix fast and elongated ones slowly — the
    same α story as leader election, on the aggregation problem the
    paper's conclusion proposes.
    """
    from repro.algorithms.averaging import AveragingBatched

    cases = [
        ("clique", families.clique(n)),
        (f"random regular d={degree}", families.random_regular(n, degree, seed=seed)),
        ("torus", families.torus(max(3, int(math.isqrt(n))), max(3, n // max(3, int(math.isqrt(n)))))),
        ("ring", families.ring(n)),
        ("double star", families.double_star((n - 2) // 2)),
    ]
    table = Table(
        title="E17 (extension): averaging gossip — rounds to max deviation < eps",
        columns=["topology", "n", "alpha (est.)", "median rounds"],
        notes=[
            "Paper's conclusion lists data aggregation among the problems "
            "this model opens; pairwise averaging is the natural fit for "
            "single-connection rounds.",
            f"values ~ U[0,1], eps={eps}; alpha via the sweep estimator.",
        ],
    )
    for name, g in cases:
        alpha = vertex_expansion(g, seed=seed)
        values = make_rng(seed, "avg-values", g.n).random(g.n)

        def build(seeds, g=g, values=values):
            return StaticDynamicGraph(g), AveragingBatched(values, eps=eps)

        med = _median(
            build, engine="single", trials=trials, max_rounds=max_rounds, seed=seed
        )
        table.add_row(name, g.n, alpha, med)
    return table


# ---------------------------------------------------------------------------
# E18 — extension: consensus on top of leader election
# ---------------------------------------------------------------------------


def exp_consensus(
    *,
    n: int = 32,
    degree: int = 4,
    taus: Sequence[float] = (1, 4, math.inf),
    trials: int = 8,
    seed: int = 0,
    max_rounds: int = 600_000,
    beta: float = 1.0,
) -> Table:
    """Single-value consensus via async bit convergence carrying proposals.

    The paper motivates leader election as the primitive behind agreement;
    this experiment closes the loop: decision time equals leader election
    time (the value rides the winning pair for free), and agreement +
    validity hold in every trial.
    """
    from repro.algorithms.consensus import ConsensusBatched

    base = families.random_regular(n, degree, seed=seed)
    delta = base.max_degree
    cfg = BitConvergenceConfig(n_upper=n, delta_bound=delta, beta=beta)
    keys = uid_keys_random(n, seed)
    table = Table(
        title="E18 (extension): consensus via leader election (values ride pairs)",
        columns=[
            "tau",
            "leader election rounds",
            "consensus rounds",
            "overhead",
            "agreement+validity",
        ],
        notes=[
            "Paper intro: leader election simplifies agreement — here "
            "consensus costs exactly one election.",
            f"Workload: {degree}-regular graph on n={n}; proposals are "
            "distinct integers; validity = decided value is the winner's.",
        ],
    )
    for tau in taus:
        le_rounds, cons_rounds = [], []
        ok = True
        for t in range(trials):
            ts = seed + 61 * t
            proposals = np.arange(1000, 1000 + n, dtype=np.int64)

            le = VectorizedEngine(
                _churn(base, tau, ts),
                AsyncBitConvergenceBatched(keys, cfg, unique_tags=True),
                seed=ts,
            )
            res = le.run(max_rounds)
            if not res.stabilized:
                raise RuntimeError("leader election did not stabilize")
            le_rounds.append(res.rounds)

            algo = ConsensusBatched(keys, cfg, proposals, unique_tags=True)
            ce = VectorizedEngine(_churn(base, tau, ts), algo, seed=ts)
            res = ce.run(max_rounds)
            if not res.stabilized:
                raise RuntimeError("consensus did not stabilize")
            cons_rounds.append(res.rounds)
            decisions = algo.decisions(ce.state)[0]
            tags = draw_id_tags(n, cfg, ts, unique=True)
            win = np.lexsort((keys, tags))[0]
            ok &= bool((decisions == proposals[win]).all())
        med_le = float(np.median(le_rounds))
        med_co = float(np.median(cons_rounds))
        table.add_row(
            "inf" if math.isinf(tau) else int(tau),
            med_le,
            med_co,
            med_co / med_le,
            ok,
        )
    return table


# ---------------------------------------------------------------------------
# A1 — ablation: group length multiplier
# ---------------------------------------------------------------------------


def exp_ablation_group_len(
    *,
    n: int = 32,
    degree: int = 4,
    tau: int = 2,
    multipliers: Sequence[int] = (1, 2, 4, 8),
    trials: int = 6,
    seed: int = 0,
    max_rounds: int = 400_000,
    beta: float = 1.0,
    engine: str = "single",
) -> Table:
    """Vary the group-length multiplier of bit convergence.

    The paper fixes groups of ``2·log Δ`` rounds so every group contains a
    ``τ̂``-stable stretch.  Shorter groups shrink the stable stretch PPUSH
    can exploit under churn; longer groups pay more rounds per phase.
    """
    base = families.random_regular(n, degree, seed=seed)
    delta = base.max_degree
    keys = uid_keys_random(n, seed)
    table = Table(
        title="A1 (ablation): bit convergence group length multiplier",
        columns=["multiplier", "group rounds", "phase rounds", "median rounds"],
        notes=[
            "Design choice under test: groups of 2*log(Delta) rounds "
            "(Sec VII); churn every tau rounds makes too-short groups lossy.",
            f"Workload: {degree}-regular n={n}, relabel churn tau={tau}.",
        ],
    )
    for mult in multipliers:
        config = BitConvergenceConfig(
            n_upper=n, delta_bound=delta, beta=beta, group_multiplier=mult
        )

        def build(seeds, config=config):
            return (
                _churn_batched(base, tau, seeds),
                BitConvergenceBatched(keys, config, unique_tags=True),
            )

        med = _median(
            build, engine=engine, trials=trials, max_rounds=max_rounds, seed=seed
        )
        table.add_row(mult, config.group_len, config.phase_len, med)
    return table


def _paper_multiplier_ok(multipliers, medians) -> tuple[bool, str]:
    rounds = dict(zip(multipliers, medians))
    paper = rounds.get(2)
    ok = paper is not None and all(paper < 4 * r + 1e-9 for r in rounds.values())
    return ok, str(rounds)


# ---------------------------------------------------------------------------
# A2 — ablation: async tag width (k) sensitivity
# ---------------------------------------------------------------------------


def exp_ablation_async_tag_width(
    *,
    n: int = 32,
    degree: int = 4,
    betas: Sequence[float] = (1.0, 1.5, 2.0),
    trials: int = 5,
    seed: int = 0,
    max_rounds: int = 1_000_000,
) -> Table:
    """Vary the ID-tag width ``k`` of the async algorithm.

    Section VIII's analysis pays ``k⁴`` for both endpoints of a matching
    edge to sample the same bit position: wider tags (larger β) cost
    polynomially in ``k`` while buying lower collision probability.
    """
    base = families.random_regular(n, degree, seed=seed)
    delta = base.max_degree
    keys = uid_keys_random(n, seed)
    table = Table(
        title="A2 (ablation): async bit convergence tag width",
        columns=["beta", "k (tag bits)", "b (advert bits)", "median rounds"],
        notes=[
            "Design choice under test: k = ceil(beta*log N); the async "
            "analysis pays poly(k) for random position alignment.",
            f"Workload: static {degree}-regular graph on n={n}.",
        ],
    )
    for beta in betas:
        config = BitConvergenceConfig(n_upper=n, delta_bound=delta, beta=beta)

        def build(seeds, config=config):
            return (
                StaticDynamicGraph(base),
                AsyncBitConvergenceBatched(keys, config, unique_tags=True),
            )

        med = _median(
            build, engine="single", trials=trials, max_rounds=max_rounds, seed=seed
        )
        table.add_row(beta, config.k, config_tag_bits(config), med)
    return table


# ---------------------------------------------------------------------------
# A3 — ablation: PUSH-only / PULL-only vs PUSH-PULL at b=0
# ---------------------------------------------------------------------------


def exp_ablation_push_pull_direction(
    *,
    leaves: int = 16,
    regular_n: int = 32,
    degree: int = 4,
    trials: int = 8,
    seed: int = 0,
    max_rounds: int = 600_000,
) -> Table:
    """Restrict the rumor to one direction per connection.

    The paper's b=0 strategy is symmetric PUSH-PULL.  This ablation runs
    PUSH-only (rumor crosses proposer→acceptor) and PULL-only
    (acceptor→proposer) on a star-bottleneck graph and a regular graph:
    on the double star, each single direction loses one of the two ways a
    hub crossing can happen, roughly doubling the bottleneck cost.
    """
    star = families.double_star(leaves)
    reg = families.random_regular(regular_n, degree, seed=seed)
    table = Table(
        title="A3 (ablation): rumor direction at b=0 (PUSH-PULL vs PUSH vs PULL)",
        columns=["direction", f"double star (n={star.n})", f"{degree}-regular (n={regular_n})"],
        notes=[
            "Design choice under test: the symmetric exchange of the b=0 "
            "strategy (Sec VI) — connections inform in both directions.",
            "Median rounds to full dissemination, source at a leaf / vertex 0.",
        ],
    )
    cell = partial(_median, engine="single", trials=trials, max_rounds=max_rounds)
    for direction in ("both", "push", "pull"):

        def build(seeds, g, source, direction=direction):
            return (
                StaticDynamicGraph(g),
                PushPullBatched(np.array([source]), direction=direction),
            )

        med_star = cell(partial(build, g=star, source=2), seed=seed)
        med_reg = cell(partial(build, g=reg, source=0), seed=seed + 1)
        table.add_row(direction, med_star, med_reg)
    return table


def _push_pull_dominates(directions, star, regular) -> tuple[bool, str]:
    rows = {d: (s, r) for d, s, r in zip(directions, star, regular)}
    both = rows["both"]
    ok = all(rows[d][0] >= both[0] and rows[d][1] >= both[1] for d in ("push", "pull"))
    return ok, str(rows)


# ---------------------------------------------------------------------------
# A4 — async model: stabilization vs the delay bound Δ (event tier)
# ---------------------------------------------------------------------------


def _async_median_ticks(
    setup_builder,
    dg_builder,
    *,
    delta: int,
    scheduler: str,
    trials: int,
    max_ticks: int,
    seed: int,
) -> float:
    """Median virtual-time ticks to stabilize on the event tier."""
    from repro.asyncsim import EventSimEngine

    def build(ts: int):
        setup = setup_builder()
        return EventSimEngine(
            dg_builder(ts),
            setup.nodes,
            seed=ts,
            delta=delta,
            scheduler=scheduler,
            stop_when=setup.stop_when,
            progress=setup.progress,
        )

    outcomes = run_trials(build, trials=trials, max_rounds=max_ticks, seed=seed)
    return trial_summary(outcomes).median


def exp_async_delta_sweep(
    *,
    n: int = 24,
    degree: int = 4,
    deltas: Sequence[int] = (1, 2, 4, 8),
    trials: int = 8,
    seed: int = 0,
    max_rounds: int = 60_000,
) -> Table:
    """Sweep the bounded-delay parameter Δ on the event tier.

    The asynchronous reformulation (Newport-Weaver-Zheng) replaces
    lock-step rounds with scheduler-delayed events, every one delivered
    within ``Δ`` ticks.  Stabilization should degrade gracefully —
    roughly linearly in Δ under uniform random delays, since Δ only
    dilates each node's local clock — with the synchronous round count
    as the fixed reference point.
    """
    base = families.random_regular(n, degree, seed=seed)
    us = UIDSpace(n, seed=seed)
    keys = uid_keys_random(n, seed)

    def build_sync(seeds):
        return StaticDynamicGraph(base), BlindGossipBatched(keys)

    sync_med = _median(
        build_sync, engine="single", trials=trials, max_rounds=max_rounds, seed=seed
    )
    table = Table(
        title="A4 (async model): blind gossip stabilization vs delay bound Delta",
        columns=["delta", "median ticks", "ratio to sync rounds"],
        notes=[
            "Event tier, seeded random scheduler: every event is delivered "
            "within [1, Delta] virtual-time ticks.",
            f"Workload: blind gossip on static {degree}-regular n={n}; "
            f"synchronous reference = {sync_med:.0f} median rounds.",
        ],
    )
    from repro.asyncsim import blind_gossip_setup

    for delta in deltas:
        med = _async_median_ticks(
            lambda: blind_gossip_setup(us),
            lambda ts: StaticDynamicGraph(base),
            delta=delta,
            scheduler="random",
            trials=trials,
            max_ticks=max_rounds,
            seed=seed,
        )
        table.add_row(delta, med, med / sync_med)
    return table


def _ticks_near_monotone(ticks) -> tuple[bool, str]:
    # At small Delta the random stagger can break the lock-step proposal
    # collisions and win back its dilation, so allow 20% dips — but the
    # largest Delta must strictly cost more than 1.
    monotone = all(b >= 0.8 * a for a, b in zip(ticks, ticks[1:])) and ticks[-1] > ticks[0]
    return monotone, str(ticks)


def _degradation_linear(deltas, ticks) -> tuple[bool, str]:
    span = (ticks[-1] / ticks[0]) / (deltas[-1] / deltas[0])
    return 0.25 <= span <= 4.0, f"tick growth / Delta growth = {span:.2f}"


# ---------------------------------------------------------------------------
# A5 — async model: adversarial vs random bounded-delay scheduling
# ---------------------------------------------------------------------------


def exp_async_scheduler_adversary(
    *,
    n: int = 24,
    degree: int = 4,
    deltas: Sequence[int] = (1, 4, 8),
    trials: int = 8,
    seed: int = 0,
    max_rounds: int = 60_000,
) -> Table:
    """Adversarial (maximal-dilation) vs random scheduling across Δ.

    The bounded-delay adversary may hold every event the full ``Δ``
    ticks; for monotone gossip that pointwise-maximal schedule is the
    worst case (early delivery only helps), so the adversarial column
    should dominate the random one — by about ``Δ`` over the random
    scheduler's mean delay ``(Δ+1)/2`` — while remaining finite: bounded
    delay preserves the async model's progress guarantee.
    """
    base = families.random_regular(n, degree, seed=seed)
    us = UIDSpace(n, seed=seed)
    table = Table(
        title="A5 (async model): adversarial vs random bounded-delay scheduling",
        columns=["delta", "random median", "adversarial median", "slowdown"],
        notes=[
            "Event tier, blind gossip on static "
            f"{degree}-regular n={n}; medians in virtual-time ticks.",
            "Adversary: every event held the full Delta ticks (worst case "
            "for monotone gossip); slowdown = adversarial / random.",
        ],
    )
    from repro.asyncsim import blind_gossip_setup

    for delta in deltas:
        meds = {}
        for scheduler in ("random", "adversarial"):
            meds[scheduler] = _async_median_ticks(
                lambda: blind_gossip_setup(us),
                lambda ts: StaticDynamicGraph(base),
                delta=delta,
                scheduler=scheduler,
                trials=trials,
                max_ticks=max_rounds,
                seed=seed,
            )
        table.add_row(
            delta,
            meds["random"],
            meds["adversarial"],
            meds["adversarial"] / meds["random"],
        )
    return table


# ---------------------------------------------------------------------------
# R1 — fault extension: connection drops inflate stabilization by ~1/(1-p)
# ---------------------------------------------------------------------------


def exp_fault_drop_inflation(
    *,
    leaves: int = 16,
    drop_ps: Sequence[float] = (0.0, 0.3, 0.6),
    trials: int = 10,
    seed: int = 0,
    max_rounds: int = 400_000,
    engine: str = "single",
) -> Table:
    """Connection drops rescale progress by the survival rate ``1 - p``.

    Both blind gossip (leader election, b=0) and PPUSH (rumor spreading,
    b=1) advance only through completed payload exchanges.  Dropping each
    established connection i.i.d. with probability ``p`` *after* the
    handshake leaves the proposal/acceptance dynamics untouched and thins
    the productive-connection rate by ``1 - p``, so stabilization should
    inflate by roughly ``1/(1-p)`` for both algorithms — a fault model
    sanity check that the drop hook sits after acceptance, not before.
    """
    base = families.double_star(leaves)
    n = base.n
    keys = uid_keys_random(n, seed)
    sources = np.array([0])
    table = Table(
        title="R1 (fault ext): connection-drop inflation on the double star",
        columns=[
            "drop p",
            "gossip median",
            "gossip inflation",
            "PPUSH median",
            "PPUSH inflation",
            "1/(1-p)",
        ],
        notes=[
            "Claim: dropping established connections i.i.d. with probability p "
            "(after acceptance, before the payload exchange) inflates "
            "stabilization by ~1/(1-p) for both blind gossip and PPUSH.",
            f"Workload: double star with {leaves} leaves per center "
            f"(n={n}), static topology.",
        ],
    )

    def build_gossip(seeds):
        return StaticDynamicGraph(base), BlindGossipBatched(keys)

    def build_ppush(seeds):
        return StaticDynamicGraph(base), PPushBatched(sources)

    cell = partial(_median, engine=engine, trials=trials, max_rounds=max_rounds)
    base_g = base_p = None
    for p in drop_ps:
        plan = FaultPlan(connection_drop=ConnectionDropModel(float(p)))
        med_g = cell(build_gossip, seed=seed, fault_plan=plan)
        med_p = cell(build_ppush, seed=seed + 1, fault_plan=plan)
        if base_g is None:
            base_g, base_p = med_g, med_p
        table.add_row(
            float(p),
            med_g,
            med_g / max(base_g, 1e-9),
            med_p,
            med_p / max(base_p, 1e-9),
            1.0 / (1.0 - float(p)),
        )
    table.notes.append(
        "Inflation columns are medians relative to the p=0 row; both should "
        "track 1/(1-p) within trial noise."
    )
    return table


def _adversary_dominates(deltas, slowdowns) -> tuple[bool, str]:
    dominates = all(s >= (0.95 if d == 1 else 1.1) for d, s in zip(deltas, slowdowns))
    return dominates, f"slowdowns {[f'{s:.2f}' for s in slowdowns]}"


def _inflates_with_drop(med_g, med_p) -> tuple[bool, str]:
    monotone = all(b >= 0.9 * a for m in (med_g, med_p) for a, b in zip(m, m[1:]))
    return monotone, f"gossip {med_g}, PPUSH {med_p}"


def _tracks_predicted(ps, predicted, *inflations) -> tuple[bool, str]:
    in_band = all(
        0.4 * predicted[i] <= col[i] <= 2.5 * predicted[i]
        for i, p in enumerate(ps) if p > 0 for col in inflations
    )
    return in_band, f"predicted {predicted}"


# ---------------------------------------------------------------------------
# R2 — Section VIII regime: recovery from mass state corruption
# ---------------------------------------------------------------------------


def exp_fault_state_corruption(
    *,
    n: int = 32,
    degree: int = 4,
    fractions: Sequence[float] = (1 / 3, 2 / 3, 1.0),
    trials: int = 10,
    seed: int = 0,
    max_rounds: int = 400_000,
    engine: str = "single",
) -> Table:
    """Corrupt a converged network and measure time back to agreement.

    Section VIII's transient-fault regime: after the network stabilizes,
    an adversary overwrites a random fraction of the nodes' state with
    arbitrary values.  A self-stabilizing min-propagation process should
    recover in about one fresh stabilization time regardless of the
    corrupted fraction — corrupting *everyone* is exactly a fresh start
    with a new key assignment.
    """
    g = families.random_regular(n, degree, seed=seed + n)
    keys = uid_keys_random(n, seed)

    def build(seeds):
        return StaticDynamicGraph(g), BlindGossipBatched(keys)

    cell = partial(
        _outcomes, build, engine=engine, trials=trials, max_rounds=max_rounds, seed=seed
    )
    fresh = trial_summary(cell()).median
    # Corrupt well after every trial has certainly converged.
    event_round = int(8 * max(fresh, 1.0))

    table = Table(
        title="R2 (Sec VIII): recovery after mass state corruption, blind gossip",
        columns=["fraction", "recovery median", "recovery / fresh"],
        notes=[
            "Claim: overwriting a random fraction of node state with arbitrary "
            "values costs about one fresh stabilization time to repair, for "
            "any fraction (fraction 1.0 is a fresh start).",
            f"Workload: static {degree}-regular graph, n={n}; corruption "
            f"event at round {event_round} (fresh median: {fresh:.0f} rounds).",
        ],
    )
    for f in fractions:
        plan = FaultPlan(
            state_corruption=(
                StateCorruptionEvent(round=event_round, fraction=float(f)),
            )
        )
        outcomes = cell(fault_plan=plan)
        recoveries = [
            max(0, o.rounds - event_round) for o in outcomes if o.stabilized
        ]
        if len(recoveries) != len(outcomes):
            raise RuntimeError("corrupted trials failed to restabilize")
        rec = float(np.median(recoveries))
        table.add_row(float(f), rec, rec / max(fresh, 1e-9))
    table.notes.append(
        "Recovery = stabilization round - corruption round; the ratio column "
        "should stay near 1 across fractions (same order as a fresh run)."
    )
    return table


def _full_corruption_like_fresh(fractions, ratios) -> tuple[bool, str]:
    full = [r for f, r in zip(fractions, ratios) if f >= 1.0]
    full_ok = all(0.25 < r < 3 for r in full) if full else True
    return full_ok, f"fraction-1.0 ratio(s): {full}"


# ---------------------------------------------------------------------------
# R3 — fault extension: stabilization survives crash/rejoin churn
# ---------------------------------------------------------------------------


def exp_fault_crash_churn(
    *,
    n: int = 32,
    degree: int = 4,
    crash_fracs: Sequence[float] = (0.0, 0.25, 0.5),
    trials: int = 10,
    seed: int = 0,
    max_rounds: int = 400_000,
    engine: str = "single",
) -> Table:
    """Crash/rejoin churn during convergence delays but never derails.

    A seeded schedule crashes a fraction of the nodes for a window of
    rounds during the convergence phase; every node rejoins with reset
    (rebooted) state.  Because reset state is each node's own initial
    state, the eventual winner is unchanged, and stabilization should
    complete within a small factor of the clean run once the last node
    has rejoined (the plan's quiesce round).
    """
    g = families.random_regular(n, degree, seed=seed + n)
    keys = uid_keys_random(n, seed)

    def build(seeds):
        return StaticDynamicGraph(g), BlindGossipBatched(keys)

    cell = partial(
        _outcomes, build, engine=engine, trials=trials, max_rounds=max_rounds, seed=seed
    )
    clean = trial_summary(cell()).median
    # Crash windows land inside the convergence phase of the clean run.
    last_round = max(6, int(clean))

    table = Table(
        title="R3 (fault ext): crash/rejoin churn during convergence, blind gossip",
        columns=[
            "crash fraction",
            "crashed nodes",
            "quiesce round",
            "median rounds",
            "recovery after quiesce",
        ],
        notes=[
            "Claim: crashing a fraction of the nodes mid-convergence (all "
            "rejoin with reset state) delays stabilization but never changes "
            "the winner or prevents agreement.",
            f"Workload: static {degree}-regular graph, n={n}; crash windows "
            f"scheduled in rounds [2, {last_round}] "
            f"(clean median: {clean:.0f} rounds).",
        ],
    )
    for frac in crash_fracs:
        count = int(round(n * float(frac)))
        if count == 0:
            plan = None
            quiesce = 0
        else:
            plan = FaultPlan(
                crashes=random_crash_schedule(
                    n, count, first_round=2, last_round=last_round,
                    seed=seed + 17,
                )
            )
            quiesce = plan.quiesce_round
        outcomes = cell(fault_plan=plan)
        if not all(o.stabilized for o in outcomes):
            raise RuntimeError("churned trials failed to stabilize")
        med = trial_summary(outcomes).median
        recovery = float(
            np.median([max(0, o.rounds - quiesce) for o in outcomes])
        )
        table.add_row(float(frac), count, quiesce, med, recovery)
    table.notes.append(
        "Recovery after quiesce = stabilization round - last rejoin; it "
        "should stay within a small factor of the clean median."
    )
    return table


def _recovery_vs_clean(fracs, meds, recov) -> tuple[bool, str]:
    clean = next((m for f, m in zip(fracs, meds) if f == 0), None)
    if clean is None:
        return False, f"no crash fraction 0 row to compare against (fractions {fracs})"
    ok = all(r <= 5 * max(clean, 1.0) for r in recov)
    return ok, f"recoveries {recov} vs clean {clean}"


# ---------------------------------------------------------------------------
# S1 — Scaling: stabilization shape up to n = 10^6
# ---------------------------------------------------------------------------


def exp_scaling_large_n(
    *,
    sizes: Sequence[int] = (8192, 32768, 131072),
    degree: int = 8,
    trials: int = 3,
    seed: int = 0,
    max_rounds: int = 4000,
    check_every: int = 1,
) -> Table:
    """Blind gossip rounds vs ``n`` at constant degree.

    Random ``d``-regular graphs have constant vertex expansion w.h.p., so
    Theorem VI.1's ``O((1/α)·Δ²·log² n)`` bound leaves only the
    ``log² n`` factor when ``Δ`` is pinned: stabilization must grow
    *polylogarithmically* in ``n`` — the log-log slope of rounds vs
    ``n`` stays far below any polynomial exponent.  Each sweep point's
    trials run as one replica batch, dense rounds first and the sparse
    2-hop frontier in the endgame, up to ``n = 10^6`` at the standard
    profile.
    """
    table = Table(
        title="S1 (scaling): blind gossip stabilization vs n at constant Delta",
        columns=[
            "n",
            "Delta",
            "median rounds",
            "log2(n)^2",
            "rounds / log2(n)^2",
            "all stabilized",
        ],
        notes=[
            "Paper claim: O((1/alpha) Delta^2 log^2 n) rounds; constant alpha "
            f"and Delta={degree} on random regular graphs leaves only log^2 n.",
            "Engine: one replica batch per n, dense rounds plus the sparse "
            "endgame frontier; independent seeded trials.",
        ],
    )
    for n in sizes:
        g = families.random_regular(n, degree, seed=seed + n)
        keys = uid_keys_random(n, seed + n)

        def build(seeds, g=g, keys=keys):
            return StaticDynamicGraph(g), BlindGossipBatched(keys)

        outcomes = run_trials_batched(
            build,
            trials=trials,
            max_rounds=max_rounds,
            seed=seed,
            check_every=check_every,
        )
        med = trial_summary(outcomes).median
        l2sq = math.log2(n) ** 2
        table.add_row(
            n, degree, med, l2sq, med / l2sq, all(o.stabilized for o in outcomes)
        )
    return table


def _adversary_grid_covered(adversaries) -> tuple[bool, str]:
    names = {str(a) for a in adversaries}
    covered = len(names) >= 4 and {"none", "assassin", "openworld"} <= names
    return covered, f"adversaries: {sorted(names)}"


def _baseline_clean(adversaries, survival, inflation) -> tuple[bool, str]:
    rows = zip(adversaries, survival, inflation)
    baseline = [(float(s), float(i)) for a, s, i in rows if a == "none"]
    clean = bool(baseline) and all(s == 1.0 and math.isclose(i, 1.0) for s, i in baseline)
    return clean, f"{len(baseline)} baseline cells"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """A registered experiment: claim, function, per-profile kwargs, and
    the shape checks (:mod:`repro.harness.verify`) its table must pass."""

    exp_id: str
    claim: str
    func: Callable[..., Table]
    quick: Mapping[str, object] = field(default_factory=dict)
    standard: Mapping[str, object] = field(default_factory=dict)
    checks: tuple[Check, ...] = ()

    def run(self, profile: str = "quick", **overrides) -> Table:
        """Run one profile; each :class:`~repro.harness.verify.Slope` check
        with a ``note`` appends that note, rendered from its own fit."""
        kwargs = dict(self.quick if profile == "quick" else self.standard)
        kwargs.update(overrides)
        table = self.func(**kwargs)
        for check in self.checks:
            if isinstance(check, Slope) and check.note:
                table.notes.append(check.note.format(**check.fit(table)))
        return table


_E2_FRACTIONS = ["workload", "measured mean fraction"]
_E12_CHURN = ["oblivious tau=1", "adaptive tau=1"]
_DELTA_SLOPE_NOTE = (
    "log-log slope of static rounds vs Delta: {slope:.2f} (R^2={r2:.3f}); "
    "paper shape predicts ~2."
)
_TOURNAMENT_CHECKS = (
    Predicate("adversary grid covers >= 4 adversaries incl. open-world + assassin",
              ["adversary"], _adversary_grid_covered),
    Predicate("faultless baseline survives every tau with inflation 1",
              ["adversary", "survival", "inflation"], _baseline_clean),
    Predicate("survival rates are proper fractions", ["survival"],
              lambda s: (all(0.0 <= float(x) <= 1.0 for x in s), f"{len(s)} cells")),
    Predicate("inflation defined (finite) wherever a trial survived", ["survival", "inflation"],
              lambda s, i: (all(math.isfinite(float(y)) or float(x) == 0.0
                                for x, y in zip(s, i)), "inf only on zero-survivor cells")),
)

EXPERIMENTS: dict[str, Experiment] = {
    e.exp_id: e
    for e in [
        Experiment(
            "E1",
            "Lemma V.1: gamma >= alpha/4",
            exp_lemma_v1,
            quick=dict(n_small=8, random_graphs=3),
            standard=dict(n_small=12, random_graphs=8),
            checks=(
                AllTrue("gamma >= alpha/4 everywhere", "gamma >= alpha/4", "{rows} graphs"),
                Predicate("gamma <= alpha everywhere", ["alpha", "gamma"],
                          lambda a, g: (all(y <= x + 1e-12 for x, y in zip(a, g)),
                                        "matching endpoints bound")),
            ),
        ),
        Experiment(
            "E2",
            "Thm V.2: PPUSH informs >= m/f(r) across a cut",
            exp_ppush_matching,
            quick=dict(m=64, d=8, trials=10),
            standard=dict(m=256, d=16, trials=40),
            checks=(
                AllTrue("q10 fraction >= m/f(r) floor", "measured >= predicted",
                        "Theorem V.2 floor"),
                Predicate("fractions monotone in r", _E2_FRACTIONS, _fractions_monotone),
                Predicate("staircase strictly harder than regular", _E2_FRACTIONS,
                          _staircase_harder),
            ),
        ),
        Experiment(
            "E3",
            "Thm VI.1: blind gossip O((1/alpha) Delta^2 log^2 n)",
            exp_blind_gossip_scaling,
            quick=dict(leaf_counts=(4, 8, 16), trials=6),
            standard=dict(
                leaf_counts=(4, 8, 16, 32, 64), trials=20, engine="batched"
            ),
            checks=(
                Slope("Delta", "rounds static", 1.4, 2.6, note=_DELTA_SLOPE_NOTE),
                Predicate("rounds monotone in Delta", ["rounds static"],
                          lambda r: (r == sorted(r), str(r))),
            ),
        ),
        Experiment(
            "E4",
            "Sec VI: Omega(Delta^2/sqrt(alpha)) on the line of stars",
            exp_lower_bound_line_of_stars,
            quick=dict(star_sizes=(3, 4, 5), trials=5),
            standard=dict(star_sizes=(3, 4, 5, 6, 8), trials=15, engine="batched"),
            checks=(
                Predicate("measured/(Delta^2 s) ratio in constant band", ["ratio"],
                          lambda r: (max(r) / min(r) < 4.0, f"band={max(r) / min(r):.2f}")),
                Slope("s (stars)", "rounds", 2.0, 3.8,
                      note="log-log slope of rounds vs s: {slope:.2f} (R^2={r2:.3f}); "
                      "prediction Delta^2*s with Delta ~ s gives ~3."),
            ),
        ),
        Experiment(
            "E5",
            "Cor VI.6: PUSH-PULL O((1/alpha) Delta^2 log^2 n) at b=0",
            exp_push_pull,
            quick=dict(leaf_counts=(4, 8, 16), trials=6),
            standard=dict(
                leaf_counts=(4, 8, 16, 32, 64), trials=20, engine="batched"
            ),
            checks=(Slope("Delta", "rounds static", 1.4, 2.6, note=_DELTA_SLOPE_NOTE),),
        ),
        Experiment(
            "E6",
            "Thm VII.2: bit convergence O((1/alpha) Delta^(1/tau_hat) tau_hat log^5 n)",
            exp_bit_convergence_tau,
            quick=dict(n=64, degree=16, taus=(1, 2, 4, math.inf), trials=5),
            standard=dict(
                n=128, degree=16, taus=(1, 2, 4, 8, 16, math.inf), trials=12,
                engine="batched",
            ),
            checks=(
                Predicate("oblivious churn flat (honest null result)", ["oblivious churn"],
                          lambda o: (max(o) / min(o) < 8.0, f"{o}")),
                Predicate("adaptive: finite tau costs over tau=inf", ["adaptive churn"],
                          lambda a: (a[0] > 1.5 * a[-1], f"tau=1: {a[0]}, tau=inf: {a[-1]}")),
            ),
        ),
        Experiment(
            "E7",
            "Sec VII: b=0 vs b=1 gap grows from Delta to Delta^2 with tau",
            exp_gap_b0_b1,
            quick=dict(leaves=32, taus=(1, 4, math.inf), trials=5),
            standard=dict(
                leaves=64, taus=(1, 2, 4, 8, math.inf), trials=12, engine="batched"
            ),
            checks=(
                Predicate("b=1 speedup grows with tau", ["speedup"],
                          lambda s: (s[-1] > s[0], str(s))),
                Predicate("b=1 competitive at full stability", ["speedup"],
                          lambda s: (s[-1] > 0.8, f"{s[-1]:.2f}")),
            ),
        ),
        Experiment(
            "E8",
            "Thm VIII.2: async variant within polylog of the original",
            exp_async,
            quick=dict(n=16, degree=4, trials=4),
            standard=dict(n=32, degree=4, trials=10),
            checks=(
                Predicate("async within bounded factor of sync", ["ratio to sync"],
                          lambda r: (all(x < 60 for x in r[1:]), str(r))),
                Predicate("async uses wider advertisements", ["b (tag bits)"],
                          lambda b: (b[0] == 1 and all(x > 1 for x in b[1:]), str(b))),
            ),
        ),
        Experiment(
            "E9",
            "Sec VIII: self-stabilization after joining components",
            exp_self_stabilization,
            quick=dict(component_n=8, degree=3, trials=4),
            standard=dict(component_n=16, degree=4, trials=10),
            checks=(
                Predicate("join re-stabilizes in same order as fresh",
                          ["scenario", "median rounds"], _join_vs_fresh),
            ),
        ),
        Experiment(
            "E10",
            "Classical vs mobile: single-connection limit costs Delta^2",
            exp_classical_vs_mobile,
            quick=dict(leaf_counts=(4, 8, 16), trials=6),
            standard=dict(leaf_counts=(4, 8, 16, 32, 64), trials=20),
            checks=(
                Slope("Delta", "mobile b=0", 1.4, name="mobile b=0 superlinear in Delta",
                      detail="slope={slope:.2f}",
                      note="mobile b=0 log-log slope vs Delta: {slope:.2f} (expected ~2); "
                      "classical and PPUSH grow ~linearly in Delta here."),
                Predicate("b=0 loses to classical at top Delta", ["mobile b=0", "classical"],
                          lambda b0, c: (b0[-1] > 2 * c[-1], "")),
                Predicate("b=0 loses to PPUSH at top Delta", ["mobile b=0", "mobile b=1 (PPUSH)"],
                          lambda b0, b1: (b0[-1] > 2 * b1[-1], "")),
            ),
        ),
        Experiment(
            "E11",
            "1/alpha drives the cost at tau=1 (vs KLO O(n^2))",
            exp_dynamic_comparison,
            quick=dict(sizes=(16, 64), trials=4),
            standard=dict(sizes=(32, 64, 128, 256), trials=10, engine="batched"),
            checks=(
                Predicate("static ring/regular ratio grows with n", ["static ratio"],
                          lambda r: (r[-1] > r[0], str(r))),
                Predicate("churn-mixing erases the 1/alpha penalty", ["ring static", "ring tau=1"],
                          lambda s, c: (c[-1] <= s[-1], "")),
            ),
        ),
        Experiment(
            "E12",
            "Extension: adaptive adversary realizes the worst case oblivious churn cannot",
            exp_adaptive_adversary,
            quick=dict(leaf_counts=(8, 16), trials=5),
            standard=dict(leaf_counts=(8, 16, 32, 64), trials=12, engine="batched"),
            checks=(
                Predicate("adaptive >= oblivious at every size", _E12_CHURN,
                          lambda o, a: (all(y >= x for x, y in zip(o, a)), "")),
                Predicate("adaptive clearly worse at top size", _E12_CHURN,
                          lambda o, a: (a[-1] > 1.5 * o[-1], f"{a[-1]} vs {o[-1]}")),
            ),
        ),
        Experiment(
            "E14",
            "PPUSH (b=1) matches classical PUSH-PULL within log factors",
            exp_ppush_vs_classical,
            quick=dict(sizes=(32, 64), degree=8, trials=6),
            standard=dict(sizes=(32, 64, 128, 256, 512), degree=8, trials=15),
            checks=(
                Predicate("PPUSH/classical ratio within ~log n", ["ratio", "log2(n)"],
                          lambda r, lg: (all(x <= 3 * y for x, y in zip(r, lg)), str(r))),
            ),
        ),
        Experiment(
            "E19",
            "Lemmas VI.4/VI.5: blind gossip phases are productive w.h.p.",
            exp_productive_phases,
            quick=dict(n=16, degree=4, trials=5, max_phases=30),
            standard=dict(n=32, degree=4, trials=15),
            checks=(
                Predicate("productive fraction >= 0.5 everywhere", ["productive fraction (mean)"],
                          lambda m: (all(x >= 0.5 for x in m), str(m))),
                Predicate("no workload collapses to zero", ["productive fraction (min)"],
                          lambda m: (all(x > 0 for x in m), str(m))),
            ),
        ),
        Experiment(
            "E13",
            "Lemma VII.5: good phases occur with constant probability",
            exp_good_phase_frequency,
            quick=dict(n=16, degree=4, taus=(1, math.inf), trials=5, max_phases=40),
            standard=dict(n=32, degree=4, taus=(1, 2, 4, math.inf), trials=15),
            checks=(
                Predicate("good-phase frequency >= 0.5 everywhere", ["good fraction (mean)"],
                          lambda m: (all(x >= 0.5 for x in m), str(m))),
                Predicate("no cell collapses to zero", ["good fraction (min)"],
                          lambda m: (all(x > 0 for x in m), str(m))),
            ),
        ),
        Experiment(
            "E15",
            "Communication cost: connections until stabilization (radio energy)",
            exp_communication_cost,
            quick=dict(n=32, degree=4, trials=4),
            standard=dict(n=64, degree=8, trials=10),
            checks=(
                Predicate("async uses fewest connections on regular graph",
                          ["algorithm", "connections"], _async_fewest_connections),
            ),
        ),
        Experiment(
            "E16",
            "Extension: k-gossip all-to-all dissemination",
            exp_k_gossip,
            quick=dict(sizes=(8, 16, 32), degree=4, trials=4),
            standard=dict(sizes=(8, 16, 32, 64, 128), degree=4, trials=10),
            checks=(
                Predicate("completion above information floor", ["clique rounds", "floor n-1"],
                          lambda c, f: (all(x >= y for x, y in zip(c, f)), "")),
                Slope("n", "clique rounds", 1.0, 2.0, name="slope strictly between 1 and 2",
                      detail="slope={slope:.2f}",
                      note="clique log-log slope vs n: {slope:.2f} (R^2={r2:.3f}); "
                      "random one-rumor-per-connection gossip pays a coupon-collector "
                      "factor over the linear floor."),
            ),
        ),
        Experiment(
            "E17",
            "Extension: averaging gossip (data aggregation) tracks 1/alpha",
            exp_averaging,
            quick=dict(n=24, degree=4, trials=4),
            standard=dict(n=64, degree=6, trials=10),
            checks=(
                Predicate("clique fastest", ["topology", "median rounds"],
                          lambda t, r: (r[t.index("clique")] == min(r), "")),
                Predicate("double star slowest", ["topology", "median rounds"],
                          lambda t, r: (r[t.index("double star")] == max(r), "")),
            ),
        ),
        Experiment(
            "E18",
            "Extension: consensus via leader election (agreement + validity)",
            exp_consensus,
            quick=dict(n=16, degree=4, taus=(1, math.inf), trials=4),
            standard=dict(n=32, degree=4, taus=(1, 4, math.inf), trials=10),
            checks=(
                AllTrue("agreement+validity in every trial", "agreement+validity"),
                Predicate("consensus overhead ~1x over bare election", ["overhead"],
                          lambda o: (all(0.5 <= x <= 2.0 for x in o), str(o))),
            ),
        ),
        Experiment(
            "A1",
            "Ablation: group length 2*log(Delta)",
            exp_ablation_group_len,
            quick=dict(n=16, degree=4, multipliers=(1, 2, 4), trials=4),
            standard=dict(
                n=32, degree=4, multipliers=(1, 2, 4, 8), trials=10, engine="batched"
            ),
            checks=(
                Predicate("paper multiplier 2 never loses badly",
                          ["multiplier", "median rounds"], _paper_multiplier_ok),
            ),
        ),
        Experiment(
            "A2",
            "Ablation: async tag width k",
            exp_ablation_async_tag_width,
            quick=dict(n=16, degree=4, betas=(1.0, 1.5), trials=3),
            standard=dict(n=32, degree=4, betas=(1.0, 1.5, 2.0), trials=8),
            checks=(
                Predicate("rounds grow with k", ["median rounds"],
                          lambda r: (r[-1] >= r[0], str(r))),
                Predicate("advert width grows with k", ["b (advert bits)"],
                          lambda b: (b == sorted(b), str(b))),
            ),
        ),
        Experiment(
            "A3",
            "Ablation: PUSH-only / PULL-only vs symmetric PUSH-PULL at b=0",
            exp_ablation_push_pull_direction,
            quick=dict(leaves=8, regular_n=16, degree=4, trials=5),
            standard=dict(leaves=32, regular_n=64, degree=8, trials=12),
            # The graph columns are named after the profile's sizes: by position.
            checks=(
                Predicate("symmetric PUSH-PULL dominates both restrictions", [0, 1, 2],
                          _push_pull_dominates),
            ),
        ),
        Experiment(
            "A4",
            "Async model: stabilization degrades ~linearly in the delay bound Delta",
            exp_async_delta_sweep,
            quick=dict(n=16, degree=4, deltas=(1, 2, 4), trials=5),
            standard=dict(n=32, degree=4, deltas=(1, 2, 4, 8), trials=12),
            checks=(
                Predicate("ticks near-monotone in Delta", ["median ticks"],
                          _ticks_near_monotone),
                # An async exchange spans propose -> connect -> deliver, so even
                # at Delta=1 one synchronous round costs a small constant in ticks.
                Predicate("Delta=1 within a constant factor of sync rounds",
                          ["ratio to sync rounds"],
                          lambda r: (1.0 <= r[0] <= 8.0, f"ratio={r[0]:.2f}")),
                Predicate("degradation roughly linear in Delta", ["delta", "median ticks"],
                          _degradation_linear),
            ),
        ),
        Experiment(
            "A5",
            "Async model: maximal-dilation adversary dominates random scheduling",
            exp_async_scheduler_adversary,
            quick=dict(n=16, degree=4, deltas=(1, 4), trials=5),
            standard=dict(n=32, degree=4, deltas=(1, 4, 8), trials=12),
            checks=(
                Predicate("adversarial schedule dominates random", ["delta", "slowdown"],
                          _adversary_dominates),
                Predicate("bounded delay keeps stabilization finite",
                          ["random median", "adversarial median"],
                          lambda r, a: (all(m > 0 for m in r + a), f"adversarial medians {a}")),
                Predicate("adversary's edge grows with Delta", ["slowdown"],
                          lambda s: (s[-1] >= s[0], str(s))),
            ),
        ),
        Experiment(
            "R1",
            "Fault extension: connection drops inflate stabilization ~1/(1-p)",
            exp_fault_drop_inflation,
            quick=dict(leaves=8, drop_ps=(0.0, 0.5), trials=5),
            standard=dict(
                leaves=16, drop_ps=(0.0, 0.3, 0.6), trials=20, engine="batched"
            ),
            checks=(
                Predicate("stabilization inflates with drop p", ["gossip median", "PPUSH median"],
                          _inflates_with_drop),
                Predicate("inflation tracks 1/(1-p) within [0.4x, 2.5x]",
                          ["drop p", "1/(1-p)", "gossip inflation", "PPUSH inflation"],
                          _tracks_predicted),
            ),
        ),
        Experiment(
            "R2",
            "Sec VIII regime: recovery from mass state corruption ~ fresh run",
            exp_fault_state_corruption,
            quick=dict(n=16, degree=4, fractions=(0.5, 1.0), trials=5),
            standard=dict(
                n=32, degree=4, fractions=(1 / 3, 2 / 3, 1.0), trials=20,
                engine="batched",
            ),
            checks=(
                Predicate("recovery within 3x of a fresh run for every fraction",
                          ["recovery / fresh"], lambda r: (all(x < 3 for x in r), str(r))),
                Predicate("full corruption behaves like a fresh start",
                          ["fraction", "recovery / fresh"], _full_corruption_like_fresh),
            ),
        ),
        Experiment(
            "R3",
            "Fault extension: stabilization survives crash/rejoin churn",
            exp_fault_crash_churn,
            quick=dict(n=16, degree=4, crash_fracs=(0.0, 0.25), trials=5),
            standard=dict(
                n=32, degree=4, crash_fracs=(0.0, 0.25, 0.5), trials=16,
                engine="batched",
            ),
            checks=(
                Predicate("every crash level still stabilizes", ["median rounds"],
                          lambda m: (all(x > 0 for x in m), f"medians {m}")),
                Predicate("post-quiesce recovery within 5x of the clean run",
                          ["crash fraction", "median rounds", "recovery after quiesce"],
                          _recovery_vs_clean),
            ),
        ),
        Experiment(
            "S1",
            "Scaling: stabilization grows polylogarithmically in n up to 10^6",
            exp_scaling_large_n,
            quick=dict(sizes=(8192, 32768, 131072), trials=3),
            standard=dict(
                sizes=(65536, 262144, 1048576), trials=3, check_every=4
            ),
            checks=(
                AllTrue("every trial stabilized at every n", "all stabilized", "{rows} sizes"),
                # Polylog growth: at constant Delta on expanders the rounds-vs-n
                # exponent must stay far below linear (log^2 n over this range
                # fits a log-log slope of ~0.1-0.3).
                Slope("n", "median rounds", -0.2, 0.45,
                      note="log-log slope of median rounds vs n: {slope:.3f} "
                      "(R^2={r2:.3f}); polylog growth predicts a slope well below 0.45."),
            ),
        ),
        Experiment(
            "T1",
            "Tournament: blind gossip vs the adversary grid (open-world)",
            exp_tournament_blind_gossip,
            quick=dict(n=24, degree=6, taus=(1, 2, 4), trials=4, max_rounds=600),
            standard=dict(
                n=48, degree=6, taus=(1, 4, 16), trials=10, max_rounds=1500,
                churn_events=24, churn_last=80,
            ),
            checks=_TOURNAMENT_CHECKS,
        ),
        Experiment(
            "T2",
            "Tournament: PUSH-PULL vs the adversary grid (open-world)",
            exp_tournament_push_pull,
            quick=dict(n=24, degree=6, taus=(1, 2, 4), trials=4, max_rounds=600),
            standard=dict(
                n=48, degree=6, taus=(1, 4, 16), trials=10, max_rounds=1500,
                churn_events=24, churn_last=80,
            ),
            checks=_TOURNAMENT_CHECKS,
        ),
        Experiment(
            "T3",
            "Tournament: PPUSH vs the adversary grid (open-world)",
            exp_tournament_ppush,
            quick=dict(n=24, degree=6, taus=(1, 2, 4), trials=4, max_rounds=600),
            standard=dict(
                n=48, degree=6, taus=(1, 4, 16), trials=10, max_rounds=1500,
                churn_events=24, churn_last=80,
            ),
            checks=_TOURNAMENT_CHECKS,
        ),
    ]
}


def registry_order(ids: "Sequence[str] | None" = None) -> list[str]:
    """Canonical campaign/report ordering of experiment ids.

    E-series first (numerically), then ablations and related-work
    extensions — the order EXPERIMENTS.md and ``standard_results.txt``
    present results in.  Pass ``ids`` to order a subset (unknown ids
    raise).
    """
    known = list(EXPERIMENTS)
    if ids is not None:
        unknown = [i for i in ids if i not in EXPERIMENTS]
        if unknown:
            raise KeyError(f"unknown experiment ids {unknown}; known: {sorted(known)}")
        known = [i for i in known if i in set(ids)]
    return sorted(known, key=lambda k: (k[0] != "E", len(k), k))


def run_experiment(exp_id: str, profile: str = "quick", **overrides) -> Table:
    """Run a registered experiment by id (``E1`` … ``E19``, ``A*``, ``R*``)."""
    if exp_id not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[exp_id].run(profile, **overrides)
