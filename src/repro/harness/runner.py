"""Seeded multi-trial execution.

The paper's guarantees hold *with high probability* (≥ 1 - 1/n), so every
measurement here repeats a run over independent seeded trials and reports
distributional summaries (the q90 of rounds-to-stabilize is the natural
empirical analogue of a w.h.p. bound).

``build`` callables receive a trial seed and return a fresh engine; trials
can fan out over forked child processes (one bounded
:func:`~repro.harness.durable._run_wave`), so any builder works,
closures and lambdas included — only the outcomes cross the pipe.
:func:`run_trials_batched` instead executes *all* trials of
one configuration as a single :class:`~repro.core.batched.BatchedVectorizedEngine`
run — the fast path for static-topology *and* isomorphic-churn sweeps
(relabelings of a shared base run permutation-natively).
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from repro.analysis.statistics import Summary, summarize
from repro.core.batched import BatchedAlgorithm, BatchedVectorizedEngine
from repro.core.trace import RunResult
from repro.graphs.dynamic import BatchedPermutedDynamicGraph, DynamicGraph
from repro.util.rng import make_rng

__all__ = [
    "TrialOutcome",
    "run_trials",
    "run_trials_batched",
    "trial_seeds_for",
    "trial_summary",
    "default_processes",
    "EngineLike",
]

#: Environment variable giving the default worker-process count for
#: ``run_trials`` when ``processes`` is not passed explicitly.
PROCESSES_ENV = "REPRO_PROCESSES"


class EngineLike(Protocol):
    """Anything with a ``run(max_rounds, *, check_every) -> RunResult``."""

    def run(self, max_rounds: int, *, check_every: int = 1) -> RunResult: ...


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one trial."""

    seed: int
    stabilized: bool
    rounds: int
    rounds_after_last_activation: int


def trial_seeds_for(seed: int, trials: int) -> list[int]:
    """The deterministic trial-seed sequence every runner derives from ``seed``.

    Exposed so that alternative execution strategies (batched, distributed)
    reproduce exactly the trials the serial runner would run.
    """
    return [
        int(s)
        for s in make_rng(seed, "trial-seeds").integers(0, 2**31 - 1, size=trials)
    ]


def default_processes() -> int | None:
    """Worker-count default from the ``REPRO_PROCESSES`` env var (or ``None``)."""
    raw = os.environ.get(PROCESSES_ENV, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{PROCESSES_ENV} must be an integer, got {raw!r}"
        ) from None
    return value if value > 1 else None


def _one_trial(
    build: Callable[[int], EngineLike],
    seed: int,
    max_rounds: int,
    check_every: int,
) -> TrialOutcome:
    engine = build(seed)
    result = engine.run(max_rounds, check_every=check_every)
    return TrialOutcome(
        seed=seed,
        stabilized=result.stabilized,
        rounds=result.rounds,
        rounds_after_last_activation=result.rounds_after_last_activation,
    )


def _trial_chunk(
    build: Callable[[int], EngineLike],
    seeds: Sequence[int],
    max_rounds: int,
    check_every: int,
) -> list[TrialOutcome]:
    return [_one_trial(build, s, max_rounds, check_every) for s in seeds]


def _chunk_units(
    build: Callable[[int], EngineLike],
    seeds: Sequence[int],
    k: int,
    max_rounds: int,
    check_every: int,
) -> list[tuple[str, Callable[[], list[TrialOutcome]], int]]:
    """Split ``seeds`` into ``k`` contiguous chunks: one ``(name, thunk,
    trial count)`` work unit per chunk, in seed order."""
    chunks = [list(c) for c in np.array_split(seeds, k)]
    return [
        (
            f"trial chunk {i + 1}/{k} ({len(chunk)} trials)",
            functools.partial(_trial_chunk, build, chunk, max_rounds, check_every),
            len(chunk),
        )
        for i, chunk in enumerate(chunks)
    ]


def run_trials(
    build: Callable[[int], EngineLike],
    *,
    trials: int,
    max_rounds: int,
    seed: int = 0,
    check_every: int = 1,
    processes: int | None = None,
) -> list[TrialOutcome]:
    """Run ``trials`` independent seeded executions of ``build``.

    Parameters
    ----------
    build
        ``build(trial_seed)`` must return a fresh engine.
    trials, max_rounds
        Number of repetitions and per-trial round horizon.
    seed
        Root seed; trial seeds are derived deterministically from it.
    check_every
        Convergence-check stride forwarded to the engine (checking every
        round is exact but can dominate runtime for cheap rounds).
    processes
        Fan out over this many forked children.  ``None`` reads the
        ``REPRO_PROCESSES`` environment variable; unset/empty (or ≤ 1)
        runs serially.  Trial seeds are split into one contiguous chunk
        per child, so cheap trials pay one fork and one result pickle
        per child instead of one per trial.  A failing chunk raises the
        first :class:`~repro.harness.durable.UnitFailure`.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    from repro.harness import durable as _durable

    if _durable.active_policy() is not None:
        # A durable policy is active (e.g. inside a campaign cell):
        # execute through the timeout/retry/degradation ladder instead.
        return _durable.run_trials_durable(
            build,
            trials=trials,
            max_rounds=max_rounds,
            seed=seed,
            check_every=check_every,
            processes=processes,
            policy=_durable.active_policy(),
            budget=_durable.active_budget(),
        )
    if processes is None:
        processes = default_processes()
    trial_seeds = trial_seeds_for(seed, trials)
    if processes is None or processes <= 1 or trials == 1:
        return _trial_chunk(build, trial_seeds, max_rounds, check_every)
    units = _chunk_units(build, trial_seeds, min(processes, trials), max_rounds, check_every)
    results, failures = _durable._run_wave(
        {i: (name, fn, None) for i, (name, fn, _trials) in enumerate(units)}
    )
    if failures:
        raise failures[min(failures)]
    return [o for i in range(len(units)) for o in results[i]]


def run_trials_batched(
    build_batched: Callable[
        [Sequence[int]],
        tuple[
            DynamicGraph | BatchedPermutedDynamicGraph | Sequence[DynamicGraph],
            BatchedAlgorithm,
        ],
    ],
    *,
    trials: int,
    max_rounds: int,
    seed: int = 0,
    check_every: int = 1,
    activation_rounds: Sequence[int] | np.ndarray | None = None,
    fault_plan=None,
) -> list[TrialOutcome]:
    """Run all ``trials`` of one configuration as a single batched engine.

    The fast path for trial sweeps: one
    :class:`~repro.core.batched.BatchedVectorizedEngine` executes every
    trial simultaneously with a leading replica axis, so per-round NumPy
    dispatch overhead is paid once instead of once per trial.

    Parameters
    ----------
    build_batched
        ``build_batched(trial_seeds)`` returns the ``(dynamic_graph,
        batched_algorithm)`` pair for the whole batch — one shared
        :class:`~repro.graphs.dynamic.DynamicGraph` (static topologies),
        one dynamic graph per trial seed (per-trial topology randomness,
        e.g. churn relabelings keyed on the trial seed; relabelings of a
        shared base object take the engine's permutation-native fast
        path), or one
        :class:`~repro.graphs.dynamic.BatchedPermutedDynamicGraph`
        covering all replicas (e.g.
        :class:`~repro.graphs.adversary.BatchedPackingAdversary`).
    trials, max_rounds, seed, check_every
        As in :func:`run_trials`; the trial-seed sequence is identical,
        so outcome lists from the two runners describe the same trials.
    activation_rounds
        Optional shared activation schedule forwarded to the engine.
    fault_plan
        Optional :class:`~repro.faults.plan.FaultPlan` forwarded to the
        engine (the single-engine runner instead expects builders to
        embed the plan in the engines they construct).

    Returns
    -------
    The same ``list[TrialOutcome]`` shape :func:`run_trials` produces
    (one outcome per trial seed, in seed order).  The engines are not
    trace-identical — round randomness is drawn from a batch-wide stream
    — so distributions, not individual trials, are comparable; see
    ``tests/test_batched_cross_validation.py``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    from repro.harness import durable as _durable

    if _durable.active_policy() is not None:
        return _durable.run_trials_batched_durable(
            build_batched,
            trials=trials,
            max_rounds=max_rounds,
            seed=seed,
            check_every=check_every,
            activation_rounds=activation_rounds,
            fault_plan=fault_plan,
            policy=_durable.active_policy(),
            budget=_durable.active_budget(),
        )
    seeds = trial_seeds_for(seed, trials)
    return _run_batched_for_seeds(
        build_batched,
        seeds,
        max_rounds=max_rounds,
        check_every=check_every,
        activation_rounds=activation_rounds,
        fault_plan=fault_plan,
    )


def _run_batched_for_seeds(
    build_batched,
    seeds: Sequence[int],
    *,
    max_rounds: int,
    check_every: int = 1,
    activation_rounds: Sequence[int] | np.ndarray | None = None,
    fault_plan=None,
) -> list[TrialOutcome]:
    """Execute one batched-engine run over an explicit seed list.

    The extraction point the durable layer uses to run *sub-batches* of a
    degraded sweep: any contiguous (or arbitrary) subset of the canonical
    trial seeds runs through the identical engine path.
    """
    seeds = [int(s) for s in seeds]
    dynamic_graph, algorithm = build_batched(seeds)
    engine = BatchedVectorizedEngine(
        dynamic_graph,
        algorithm,
        seeds=seeds,
        activation_rounds=activation_rounds,
        fault_plan=fault_plan,
    )
    result = engine.run(max_rounds, check_every=check_every)
    return [
        TrialOutcome(
            seed=seeds[t],
            stabilized=bool(result.stabilized[t]),
            rounds=int(result.rounds[t]),
            rounds_after_last_activation=int(result.rounds_after_last_activation[t]),
        )
        for t in range(len(seeds))
    ]


def trial_summary(outcomes: Sequence[TrialOutcome], *, after_activation: bool = False) -> Summary:
    """Summarize rounds-to-stabilize across trials.

    Raises if any trial failed to stabilize — a horizon that truncates
    trials would silently bias the statistics, so it is an error instead.
    """
    bad = [o for o in outcomes if not o.stabilized]
    if bad:
        raise RuntimeError(
            f"{len(bad)}/{len(outcomes)} trials did not stabilize within the "
            "horizon; raise max_rounds"
        )
    values = [
        o.rounds_after_last_activation if after_activation else o.rounds
        for o in outcomes
    ]
    return summarize(values)
