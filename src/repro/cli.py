"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiments list``
    Show the experiment registry (ids, claims, profiles).
``experiments run <ID> [--profile quick|standard] [--save PATH]``
    Run one experiment and print (optionally save) its table.
``experiments verify <ID> [--profile quick|standard]``
    Run one experiment and evaluate the shape checks it declares.
``experiments run-all [--only IDS] [--profile quick|standard]
[--checkpoint-dir D] [--resume] [--timeout-per-trial S] [--max-retries K]
[--output F]``
    Reproduce the paper: run the whole registry (or ``--only`` a subset)
    as one durable, resumable campaign that verifies every table against
    its shape checks and exits 1 on any failure.  Each finished
    experiment is checkpointed atomically, hung cells are killed and
    retried with backoff, and ``--resume`` restarts a killed campaign
    from its last durable state (see ``docs/operations.md``).
    ``--output F`` writes the results archive (the committed
    ``quick_results.txt`` / ``standard_results.txt`` format);
    ``--resume --output F`` re-renders it from the checkpoints alone.
``graph <family> [params…]``
    Build a graph family and report n, m, Δ, α (best estimate), γ (exact
    when small), and the spectral lower bound.
``simulate <algorithm> --family <family> [params…] [--fault-plan PLAN.json]``
    Run one seeded leader-election / rumor-spreading execution and print
    the stabilization round plus a progress sparkline; an optional JSON
    fault plan injects crashes, drops, and corruption.
``faults template [--out PATH]`` / ``faults describe PLAN.json``
    Emit an example fault-plan JSON, or summarize an existing one.
``bounds --n N --alpha A --delta D [--tau T]``
    Evaluate every closed-form bound from the paper at a parameter point.
``conformance fuzz [--budget N] [--seed S] [--out DIR]``
    Differential-fuzz the three engine tiers against the model invariants
    and each other; failing configurations are shrunk and written as
    replayable JSON repro files.
``conformance replay REPRO.json``
    Re-run one repro file and report whether it still fails.
``live run --algorithm A --family F --nodes N [--tau T] [--fault-plan P]``
    Deploy the algorithm over real localhost sockets — every node an
    asyncio task with its own TCP listener — run to stabilization, and
    optionally invariant-check the live trace (``--check``) or
    cross-check its stabilization distribution against the reference
    engine (``--compare-reference K``).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

__all__ = ["main", "build_parser"]

#: family name -> (builder arg names, defaults) for CLI construction.
_FAMILY_ARGS: dict[str, tuple[tuple[str, ...], tuple[int, ...]]] = {
    "clique": (("n",), (16,)),
    "path": (("n",), (16,)),
    "ring": (("n",), (16,)),
    "star": (("n",), (16,)),
    "double_star": (("leaves",), (8,)),
    "line_of_stars": (("stars", "points"), (4, 4)),
    "binary_tree": (("n",), (15,)),
    "grid": (("rows", "cols"), (4, 4)),
    "hypercube": (("dim",), (4,)),
    "complete_bipartite": (("a", "b"), (4, 4)),
    "barbell": (("clique_size", "bridge"), (5, 1)),
    "lollipop": (("clique_size", "tail"), (5, 3)),
    "wheel": (("n",), (12,)),
    "torus": (("rows", "cols"), (4, 4)),
    "caterpillar": (("spine", "legs"), (4, 3)),
    "staircase_bipartite": (("m",), (8,)),
    "random_regular": (("n", "d"), (16, 4)),
    "connected_erdos_renyi": (("n",), (16,)),
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Leader election in the mobile telephone model "
        "(reproduction of Newport, IPDPS 2017).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments", help="list or run paper experiments")
    exp_sub = p_exp.add_subparsers(dest="exp_command", required=True)
    exp_sub.add_parser("list", help="show the registry")
    p_run = exp_sub.add_parser("run", help="run one experiment")
    p_run.add_argument("exp_id", help="experiment id, e.g. E3 or A1")
    p_run.add_argument("--profile", choices=("quick", "standard"), default="quick")
    p_run.add_argument("--save", help="write the rendered table to this path")
    p_verify = exp_sub.add_parser(
        "verify", help="run one experiment and check its paper-claim shape"
    )
    p_verify.add_argument("exp_id", help="experiment id, e.g. E3 or A1")
    p_verify.add_argument("--profile", choices=("quick", "standard"), default="quick")
    p_all = exp_sub.add_parser(
        "run-all", help="run the full registry as a durable, resumable campaign"
    )
    p_all.add_argument("--profile", choices=("quick", "standard"), default="quick")
    p_all.add_argument(
        "--checkpoint-dir", default="campaign-checkpoints", metavar="D",
        help="directory for per-experiment checkpoint JSONs",
    )
    p_all.add_argument(
        "--resume", action="store_true",
        help="reload valid checkpoints instead of re-running their cells",
    )
    p_all.add_argument(
        "--timeout-per-trial", type=float, default=None, metavar="S",
        help="wall-clock seconds per trial before a hung worker is killed",
    )
    p_all.add_argument(
        "--timeout-per-experiment", type=float, default=None, metavar="S",
        help="wall-clock ceiling for one experiment cell",
    )
    p_all.add_argument(
        "--max-retries", type=int, default=2, metavar="K",
        help="extra attempts per work unit before degrading/failing",
    )
    p_all.add_argument(
        "--failure-budget", type=int, default=16, metavar="N",
        help="total failures tolerated before the campaign aborts",
    )
    p_all.add_argument(
        "--backoff-base", type=float, default=0.5, metavar="S",
        help="base of the exponential retry backoff",
    )
    p_all.add_argument(
        "--only", default=None, metavar="IDS",
        help="comma-separated experiment ids (default: whole registry)",
    )
    p_all.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the results archive (quick_results.txt / "
        "standard_results.txt format) here once every cell has a "
        "checkpoint; with --resume it re-renders finished cells without "
        "re-running them",
    )
    p_all.add_argument(
        "--no-verify", action="store_true",
        help="skip the per-experiment shape checks",
    )
    p_all.add_argument(
        "--pool-workers", type=int, default=None, metavar="K",
        help="run cells in forked waves at most K wide; the next cell forks "
        "as soon as any finishes (default: one cell at a time, in-process; "
        "tables are bit-identical either way)",
    )

    p_graph = sub.add_parser("graph", help="inspect a graph family instance")
    p_graph.add_argument("family", choices=sorted(_FAMILY_ARGS))
    p_graph.add_argument("params", nargs="*", type=int, help="family parameters")
    p_graph.add_argument("--seed", type=int, default=0)

    p_sim = sub.add_parser("simulate", help="run one algorithm execution")
    p_sim.add_argument(
        "algorithm",
        choices=("blind_gossip", "bit_convergence", "async_bit_convergence",
                 "push_pull", "ppush"),
    )
    p_sim.add_argument("--family", choices=sorted(_FAMILY_ARGS), default="random_regular")
    p_sim.add_argument("--params", nargs="*", type=int, default=None)
    p_sim.add_argument("--tau", type=float, default=math.inf,
                       help="stability factor (inf = static topology)")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--max-rounds", type=int, default=1_000_000)
    p_sim.add_argument(
        "--fault-plan",
        default=None,
        metavar="PLAN.json",
        help="JSON fault plan to inject (see `repro faults template`)",
    )
    p_sim.add_argument(
        "--engine",
        choices=("sync", "async"),
        default="sync",
        help="execution model: lock-step rounds (sync, default) or the "
        "discrete-event bounded-delay tier (async; blind_gossip, "
        "push_pull, and async_bit_convergence only)",
    )
    p_sim.add_argument(
        "--delta",
        type=int,
        default=1,
        metavar="D",
        help="bounded-delay parameter for --engine async: every event is "
        "delivered within [1, D] virtual-time ticks (D=1 is lock-step)",
    )
    p_sim.add_argument(
        "--scheduler",
        choices=("random", "adversarial"),
        default="random",
        help="--engine async event scheduler: seeded uniform delays or "
        "the worst-case maximal-dilation adversary",
    )

    p_faults = sub.add_parser("faults", help="author and inspect fault plans")
    faults_sub = p_faults.add_subparsers(dest="faults_command", required=True)
    p_tmpl = faults_sub.add_parser(
        "template", help="emit an example fault-plan JSON"
    )
    p_tmpl.add_argument("--out", help="write the template to this path")
    p_desc = faults_sub.add_parser(
        "describe", help="summarize a fault-plan JSON file"
    )
    p_desc.add_argument("plan", help="path to the plan JSON")

    p_bounds = sub.add_parser("bounds", help="evaluate the paper's bound formulas")
    p_bounds.add_argument("--n", type=int, required=True)
    p_bounds.add_argument("--alpha", type=float, required=True)
    p_bounds.add_argument("--delta", type=int, required=True)
    p_bounds.add_argument("--tau", type=float, default=1.0)

    p_conf = sub.add_parser(
        "conformance", help="cross-engine conformance checking and fuzzing"
    )
    conf_sub = p_conf.add_subparsers(dest="conf_command", required=True)
    p_fuzz = conf_sub.add_parser(
        "fuzz", help="differential-fuzz the engine tiers against the model"
    )
    p_fuzz.add_argument("--budget", type=int, default=200,
                        help="number of sampled configurations")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument(
        "--out", default=None, metavar="DIR",
        help="directory for repro JSONs of shrunk failing configurations",
    )
    p_fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="report failing configurations without shrinking them",
    )
    p_replay = conf_sub.add_parser(
        "replay", help="re-run a repro file produced by `conformance fuzz`"
    )
    p_replay.add_argument("repro", help="path to the repro JSON")

    p_live = sub.add_parser(
        "live", help="run protocols over real localhost sockets (deployment tier)"
    )
    live_sub = p_live.add_subparsers(dest="live_command", required=True)
    p_live_run = live_sub.add_parser(
        "run", help="one live localhost run: real TCP per edge, shared Trace out"
    )
    p_live_run.add_argument(
        "--algorithm", default="blind_gossip",
        choices=("blind_gossip", "push_pull", "ppush", "bit_convergence"),
    )
    p_live_run.add_argument(
        "--family", default="clique",
        choices=("clique", "ring", "path", "star", "wheel", "random_regular"),
    )
    p_live_run.add_argument("--nodes", type=int, default=16, metavar="N")
    p_live_run.add_argument(
        "--degree", type=int, default=8, help="random_regular only"
    )
    p_live_run.add_argument(
        "--tau", type=float, default=math.inf,
        help="churn period (rounds between relabelings; inf = static)",
    )
    p_live_run.add_argument("--seed", type=int, default=0)
    p_live_run.add_argument("--max-rounds", type=int, default=10_000)
    p_live_run.add_argument(
        "--rounds", type=int, default=None, metavar="R",
        help="run exactly R rounds, ignoring stabilization (bench mode)",
    )
    p_live_run.add_argument(
        "--fault-plan", default=None, metavar="PLAN.json",
        help="inject crash / connection-drop faults as real network events",
    )
    p_live_run.add_argument(
        "--wall-clock-limit", type=float, default=None, metavar="SECONDS",
        help="hard bound on the whole run's wall clock",
    )
    p_live_run.add_argument(
        "--check", action="store_true",
        help="run the conformance invariant checkers on the live trace",
    )
    p_live_run.add_argument(
        "--compare-reference", type=int, default=None, metavar="K",
        help="instead of one run, cross-check K live trials against the "
        "reference engine's stabilization distribution",
    )

    p_tour = sub.add_parser(
        "tournament",
        help="run the algorithm × adversary robustness tournament and print "
        "the ranked leaderboard",
    )
    p_tour.add_argument("--profile", choices=("quick", "standard"), default="quick")
    p_tour.add_argument(
        "--checkpoint-dir", default="tournament-checkpoints", metavar="D",
        help="directory for per-algorithm checkpoint JSONs (the campaign "
        "scheduler makes the run durable and resumable)",
    )
    p_tour.add_argument(
        "--resume", action="store_true",
        help="reload valid checkpoints instead of re-running their grids",
    )
    p_tour.add_argument(
        "--pool-workers", type=int, default=None, metavar="K",
        help="run algorithm grids in forked waves at most K wide (tables are "
        "bit-identical to a serial run)",
    )
    p_tour.add_argument(
        "--max-retries", type=int, default=2, metavar="K",
        help="extra attempts per grid before the campaign gives up on it",
    )
    p_tour.add_argument(
        "--no-verify", action="store_true",
        help="skip the per-grid shape checks",
    )
    p_tour.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the leaderboard + per-algorithm grids here; a "
        ".json path uses the checkpoint document format, so non-finite "
        "cells (the inf inflation sentinel) round-trip portably",
    )

    return parser


def _build_family(family: str, params: list[int] | None, seed: int):
    from repro.graphs import families

    names, defaults = _FAMILY_ARGS[family]
    values = list(params) if params else list(defaults)
    if len(values) != len(names):
        raise SystemExit(
            f"{family} expects {len(names)} parameter(s) {names}, got {values}"
        )
    builder = families.FAMILY_BUILDERS[family]
    if family == "connected_erdos_renyi":
        return builder(values[0], 0.3, seed=seed)
    if family in ("random_regular",):
        return builder(*values, seed=seed)
    return builder(*values)


def _cmd_experiments_list() -> int:
    from repro.harness.experiments import EXPERIMENTS, registry_order

    width = max(len(k) for k in EXPERIMENTS)
    for exp_id in registry_order():
        print(f"{exp_id.ljust(width)}  {EXPERIMENTS[exp_id].claim}")
    return 0


def _cmd_experiments_run(exp_id: str, profile: str, save: str | None) -> int:
    from repro.harness.experiments import run_experiment

    table = run_experiment(exp_id.upper(), profile)
    rendered = table.render()
    print(rendered)
    if save:
        with open(save, "w") as fh:
            fh.write(rendered + "\n")
        print(f"\nsaved to {save}")
    return 0


def _cmd_experiments_run_all(args) -> int:
    from repro.harness.campaign import (
        CampaignConfig,
        render_campaign_text,
        run_campaign,
    )

    config = CampaignConfig(
        checkpoint_dir=args.checkpoint_dir,
        profile=args.profile,
        exp_ids=args.only.split(",") if args.only else None,
        resume=args.resume,
        timeout_per_trial=args.timeout_per_trial,
        timeout_per_experiment=args.timeout_per_experiment,
        max_retries=args.max_retries,
        failure_budget=args.failure_budget,
        backoff_base=args.backoff_base,
        verify=not args.no_verify,
        pool_workers=args.pool_workers,
    )
    report = run_campaign(config, progress=lambda line: print(line, flush=True))
    print(report.summary(), flush=True)
    if args.output and report.ok:
        text = render_campaign_text(
            config.checkpoint_dir, config.profile, config.exp_ids
        )
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"results text written to {args.output}")
    return 0 if report.ok else 1


def _cmd_tournament(args) -> int:
    from repro.harness.campaign import (
        CampaignConfig,
        checkpoint_path,
        run_campaign,
    )
    from repro.harness.persistence import load_document
    from repro.harness.tournament import TOURNAMENT_EXP_IDS, tournament_leaderboard

    config = CampaignConfig(
        checkpoint_dir=args.checkpoint_dir,
        profile=args.profile,
        exp_ids=list(TOURNAMENT_EXP_IDS),
        resume=args.resume,
        max_retries=args.max_retries,
        verify=not args.no_verify,
        pool_workers=args.pool_workers,
    )
    report = run_campaign(config, progress=lambda line: print(line, flush=True))
    print(report.summary(), flush=True)
    if not report.ok:
        return 1
    tables = {}
    for exp_id in TOURNAMENT_EXP_IDS:
        doc = load_document(
            checkpoint_path(config.checkpoint_dir, exp_id, config.profile)
        )
        tables[exp_id] = doc.table
    board = tournament_leaderboard(tables)
    print()
    print(board.render())
    if args.output:
        if args.output.endswith(".json"):
            from repro.harness.persistence import _table_to_json, save_table

            save_table(
                board,
                args.output,
                exp_id="TOURNAMENT",
                profile=args.profile,
                extra={
                    "grids": {
                        e: _table_to_json(tables[e]) for e in TOURNAMENT_EXP_IDS
                    }
                },
            )
        else:
            blocks = [board.render()]
            blocks += [tables[exp_id].render() for exp_id in TOURNAMENT_EXP_IDS]
            with open(args.output, "w") as fh:
                fh.write("\n\n".join(blocks) + "\n")
        print(f"\nleaderboard written to {args.output}")
    return 0


def _cmd_experiments_verify(exp_id: str, profile: str) -> int:
    from repro.harness.experiments import run_experiment
    from repro.harness.verify import verify_experiment

    table = run_experiment(exp_id.upper(), profile)
    print(table.render())
    print()
    results = verify_experiment(exp_id.upper(), table)
    for res in results:
        print(res)
    failed = [r for r in results if not r.passed]
    print(
        f"\n{len(results) - len(failed)}/{len(results)} checks passed"
        + (f" — {len(failed)} FAILED" if failed else "")
    )
    return 1 if failed else 0


def _cmd_graph(family: str, params: list[int], seed: int) -> int:
    from repro.analysis.expansion import (
        _EXACT_LIMIT,
        vertex_expansion,
        vertex_expansion_spectral_lower,
    )
    from repro.analysis.matching import GAMMA_REPORT_LIMIT, gamma_exact

    g = _build_family(family, params or None, seed)
    print(f"family     : {family}")
    print(f"n          : {g.n}")
    print(f"edges      : {g.num_edges}")
    print(f"max degree : {g.max_degree}")
    print(f"connected  : {g.is_connected()}")
    alpha = vertex_expansion(g, seed=seed)
    kind = "exact" if g.n <= _EXACT_LIMIT else "sweep upper bound"
    print(f"alpha      : {alpha:.4g}  ({kind})")
    print(f"alpha >=   : {vertex_expansion_spectral_lower(g):.4g}  (spectral)")
    if g.n <= GAMMA_REPORT_LIMIT:
        gamma = gamma_exact(g)
        print(f"gamma      : {gamma:.4g}  (exact; Lemma V.1 floor alpha/4 = {alpha/4:.4g})")
    return 0


def _cmd_simulate(
    algorithm: str,
    family: str,
    params: list[int] | None,
    tau: float,
    seed: int,
    max_rounds: int,
    fault_plan_path: str | None = None,
    engine: str = "sync",
    delta: int = 1,
    scheduler: str = "random",
) -> int:
    if engine == "async":
        return _cmd_simulate_async(
            algorithm, family, params, tau, seed, max_rounds,
            fault_plan_path, delta, scheduler,
        )
    from repro.algorithms import (
        AsyncBitConvergenceBatched,
        BitConvergenceBatched,
        BitConvergenceConfig,
        BlindGossipBatched,
        PPushBatched,
        PushPullBatched,
    )
    from repro.analysis.progress import SpreadCurve
    from repro.core.vectorized import VectorizedEngine
    from repro.graphs.dynamic import (
        PeriodicRelabelDynamicGraph,
        StaticDynamicGraph,
        validate_tau,
    )
    from repro.harness.experiments import uid_keys_random

    try:
        tau = validate_tau(tau)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    g = _build_family(family, params, seed)
    n = g.n
    keys = uid_keys_random(n, seed)
    config = BitConvergenceConfig(n_upper=max(n, 2), delta_bound=g.max_degree, beta=1.0)
    algos = {
        "blind_gossip": lambda: BlindGossipBatched(keys),
        "bit_convergence": lambda: BitConvergenceBatched(
            keys, config, tag_seed=seed, unique_tags=True
        ),
        "async_bit_convergence": lambda: AsyncBitConvergenceBatched(
            keys, config, tag_seed=seed, unique_tags=True
        ),
        "push_pull": lambda: PushPullBatched(np.array([0])),
        "ppush": lambda: PPushBatched(np.array([0])),
    }
    algo = algos[algorithm]()
    dg = (
        StaticDynamicGraph(g)
        if math.isinf(tau)
        else PeriodicRelabelDynamicGraph(g, tau, seed=seed)
    )
    plan = None
    gate = 0
    if fault_plan_path:
        from repro.faults import FaultPlan

        plan = FaultPlan.from_file(fault_plan_path)
        gate = plan.quiesce_round
        print(f"fault plan : {plan.describe()}")
    engine = VectorizedEngine(dg, algo, seed=seed, fault_plan=plan)
    curve = SpreadCurve()
    progress = getattr(algo, "observable", lambda s: None)
    for r in range(1, max_rounds + 1):
        engine.step(r)
        obs = progress(engine.state)  # (1, n): the engine runs one replica
        if obs is not None:
            curve.record(int(np.asarray(obs).sum()))
        # With a fault plan, convergence only counts after the last
        # scheduled fault (transient events can fake agreement).
        if r >= gate and algo.converged(engine.state)[0]:
            print(f"algorithm  : {algorithm}")
            print(f"topology   : {family} (n={n}, Delta={g.max_degree}, tau={tau})")
            print(f"stabilized : round {r}")
            if len(curve):
                print(f"progress   : {curve.spark()}")
            return 0
    print(f"did not stabilize within {max_rounds} rounds")
    return 1


def _cmd_simulate_async(
    algorithm: str,
    family: str,
    params: list[int] | None,
    tau: float,
    seed: int,
    max_ticks: int,
    fault_plan_path: str | None,
    delta: int,
    scheduler: str,
) -> int:
    from repro.algorithms import BitConvergenceConfig
    from repro.asyncsim import (
        EventSimEngine,
        async_bit_convergence_setup,
        blind_gossip_setup,
        push_pull_setup,
    )
    from repro.core.payload import UIDSpace
    from repro.graphs.dynamic import (
        PeriodicRelabelDynamicGraph,
        StaticDynamicGraph,
        validate_tau,
    )

    if delta < 1:
        print(f"error: --delta must be >= 1, got {delta}", file=sys.stderr)
        return 2
    try:
        tau = validate_tau(tau)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    g = _build_family(family, params, seed)
    us = UIDSpace(g.n, seed=seed)
    if algorithm == "blind_gossip":
        setup = blind_gossip_setup(us)
    elif algorithm == "push_pull":
        setup = push_pull_setup(us, {us.winner_vertex()})
    elif algorithm == "async_bit_convergence":
        config = BitConvergenceConfig(
            n_upper=max(g.n, 2), delta_bound=g.max_degree, beta=1.0
        )
        setup = async_bit_convergence_setup(us, config, seed, unique_tags=True)
    else:
        print(
            f"error: --engine async supports blind_gossip, push_pull, and "
            f"async_bit_convergence ({algorithm} needs synchronized rounds)",
            file=sys.stderr,
        )
        return 2
    dg = (
        StaticDynamicGraph(g)
        if math.isinf(tau)
        else PeriodicRelabelDynamicGraph(g, tau, seed=seed)
    )
    plan = None
    if fault_plan_path:
        from repro.faults import FaultPlan

        plan = FaultPlan.from_file(fault_plan_path)
        print(f"fault plan : {plan.describe()}")
    eng = EventSimEngine(
        dg,
        setup.nodes,
        seed=seed,
        delta=delta,
        scheduler=scheduler,
        fault_plan=plan,
        progress=setup.progress,
    )
    res = eng.run_until(max_ticks, setup.stop_when, check_every=4)
    print(f"algorithm  : {algorithm}")
    print(f"topology   : {family} (n={g.n}, Delta={g.max_degree}, tau={tau})")
    print(f"model      : async, delta={delta}, scheduler={scheduler}")
    if res.stabilized:
        print(f"stabilized : tick {res.rounds}")
        print(f"events     : {eng.events_processed} "
              f"({eng.connections_made} connections)")
        return 0
    print(f"did not stabilize within {max_ticks} ticks")
    return 1


def _cmd_faults(args) -> int:
    from repro.faults import FaultPlan, example_plan

    if args.faults_command == "template":
        text = example_plan().to_json()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
            print(f"template written to {args.out}")
        else:
            print(text)
        return 0
    plan = FaultPlan.from_file(args.plan)
    print(plan.describe())
    return 0


def _cmd_conformance(args) -> int:
    from repro.conformance.differential import fuzz, replay_file, write_repro

    if args.conf_command == "replay":
        report = replay_file(args.repro)
        print(f"config: {report.config.to_dict()}")
        if report.failed:
            print(f"still failing ({len(report.failure_lines())} problems):")
            for line in report.failure_lines():
                print(f"  {line}")
            return 1
        print("configuration passes all conformance checks")
        return 0

    summary = fuzz(
        args.budget,
        args.seed,
        log=lambda line: print(line, flush=True),
        shrink_failures=not args.no_shrink,
    )
    print(
        f"\n{summary.configs} configurations fuzzed "
        f"(seed {args.seed}); "
        f"acceptance samples {summary.acceptance.count} "
        f"(z = {summary.acceptance.z():.2f}); "
        f"ref/vec pooled log-median-ratio {summary.pooled_log_ratio:+.3f} "
        f"over {summary.pooled_samples} configs"
    )
    if summary.ok:
        print("no invariant violations, no cross-engine mismatches")
        return 0
    print(f"{len(summary.failures)} failing configuration(s):")
    for i, report in enumerate(summary.failures):
        print(f"  {report.config.to_dict()}")
        for line in report.failure_lines()[:6]:
            print(f"    {line}")
        if args.out:
            import os

            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"repro-{args.seed}-{i}.json")
            write_repro(report, path)
            print(f"    repro written to {path}")
    return 1


def _cmd_live(args) -> int:
    from repro.conformance.invariants import check_trace
    from repro.conformance.livecheck import live_reference_check
    from repro.faults import FaultPlan
    from repro.live import LiveRunConfig, run_live
    from repro.live.run import _dynamic_graph, build_bundle, build_graph

    plan = FaultPlan.from_file(args.fault_plan) if args.fault_plan else None
    cfg = LiveRunConfig(
        algorithm=args.algorithm,
        family=args.family,
        n=args.nodes,
        degree=args.degree,
        tau=args.tau,
        seed=args.seed,
        max_rounds=args.max_rounds,
        fixed_rounds=args.rounds,
        fault_plan=plan,
        wall_clock_limit=args.wall_clock_limit,
    )

    if args.compare_reference is not None:
        mismatches = live_reference_check(
            cfg, live_trials=args.compare_reference, log=print
        )
        if mismatches:
            print(f"\n{len(mismatches)} mismatch(es):")
            for line in mismatches:
                print(f"  {line}")
            return 1
        print("\nlive runs conform to the reference engine")
        return 0

    report = run_live(cfg)
    result = report.result
    if args.rounds is not None:
        print(f"ran {result.rounds} fixed rounds over live sockets")
    elif result.stabilized:
        print(f"stabilized after {result.rounds} rounds over live sockets")
    else:
        print(f"did not stabilize within {result.rounds} rounds")
    print(
        f"  {report.rounds_per_sec:.1f} rounds/sec, "
        f"{report.connections_made} connections, "
        f"{report.frames_sent} frames, {report.elapsed:.2f}s wall clock"
    )
    status = 0 if (args.rounds is not None or result.stabilized) else 1
    if args.check and report.trace is not None:
        graph = build_graph(cfg)
        bundle = build_bundle(cfg, graph)
        violations = check_trace(
            report.trace,
            _dynamic_graph(cfg, graph),
            tag_length=bundle.tag_length,
            fault_plan=cfg.fault_plan,
        )
        if violations:
            print(f"  {len(violations)} invariant violation(s):")
            for v in violations:
                print(f"    {v}")
            status = 1
        else:
            print("  live trace passes all model-invariant checks")
    return status


def _cmd_bounds(n: int, alpha: float, delta: int, tau: float) -> int:
    from repro.analysis import bounds

    rows = [
        ("tau_hat = min(tau, log Delta)", bounds.tau_hat(tau, delta)),
        ("f(tau_hat) = Delta^(1/tau_hat)*tau_hat*log n",
         bounds.f_approx(bounds.tau_hat(tau, delta), delta, n)),
        ("Thm VI.1   blind gossip upper", bounds.blind_gossip_upper(n, alpha, delta)),
        ("Sec VI     blind gossip lower", bounds.blind_gossip_lower(alpha, delta)),
        ("Cor VI.6   PUSH-PULL upper", bounds.push_pull_upper(n, alpha, delta)),
        ("Thm VII.2  bit convergence upper",
         bounds.bit_convergence_upper(n, alpha, delta, tau)),
        ("Thm VIII.2 async bit convergence upper",
         bounds.async_bit_convergence_upper(n, alpha, delta, tau)),
        ("classical PUSH-PULL reference", bounds.classical_push_pull_upper(n, alpha)),
    ]
    width = max(len(name) for name, _ in rows)
    print(f"parameters: n={n} alpha={alpha} Delta={delta} tau={tau}")
    for name, value in rows:
        print(f"  {name.ljust(width)} : {value:,.1f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    from repro.core.capabilities import UnsupportedFeature

    try:
        return _dispatch(args)
    except UnsupportedFeature as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "experiments":
        if args.exp_command == "list":
            return _cmd_experiments_list()
        if args.exp_command == "verify":
            return _cmd_experiments_verify(args.exp_id, args.profile)
        if args.exp_command == "run-all":
            return _cmd_experiments_run_all(args)
        return _cmd_experiments_run(args.exp_id, args.profile, args.save)
    if args.command == "graph":
        return _cmd_graph(args.family, args.params, args.seed)
    if args.command == "simulate":
        return _cmd_simulate(
            args.algorithm, args.family, args.params, args.tau, args.seed,
            args.max_rounds, args.fault_plan,
            args.engine, args.delta, args.scheduler,
        )
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "bounds":
        return _cmd_bounds(args.n, args.alpha, args.delta, args.tau)
    if args.command == "conformance":
        return _cmd_conformance(args)
    if args.command == "live":
        return _cmd_live(args)
    if args.command == "tournament":
        return _cmd_tournament(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
