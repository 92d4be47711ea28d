"""Durable trial execution: timeouts, retries, backoff, degradation.

The paper's guarantees are w.h.p. statements, so every measured shape
comes from long multi-trial sweeps — which makes the *execution layer*
a single point of failure: one hung worker or one OOM-killed batch used
to lose the whole campaign.  This module wraps the runner's execution
strategies in the retry/timeout/checkpoint discipline distributed
harnesses treat as table stakes:

* **One process primitive** — every forked unit in the harness (trial
  chunks of ``run_trials(processes=K)``, durable retry waves, replica
  batches, isolated and pooled experiment cells) runs through
  :func:`_run_wave`: one fork per unit, at most ``width`` children
  alive, the next unit forking as soon as any child finishes.  Units
  are thunks, so closures need no pickling; only results cross the
  pipe.  Children are ordinary (non-daemonic) processes, so a cell's
  child may fork its own trial waves.
* **Wall-clock timeouts** — the parent kills a unit's child when it
  exceeds its budget (``timeout_per_trial × trials`` per unit), then
  re-dispatches it with the *same trial seeds*.
* **Bounded retries with exponential backoff** — each failed unit is
  retried up to ``max_retries`` times, sleeping
  ``backoff_base · 2^attempt`` (capped) between waves; every failure
  spends from a per-campaign :class:`FailureBudget` so a systematically
  broken environment stops early instead of thrashing.
* **A graceful-degradation ladder** — on ``MemoryError`` (deterministic;
  retrying is pointless) or repeated worker death, execution falls to a
  cheaper tier: the batched engine splits its replica batch into
  sub-batches and finally singletons; the process-parallel runner falls
  from ``processes=K`` to serial.  Trial seeds are preserved at every
  tier, so the *same trials* run wherever they land.
* **Crash-safe trial checkpoints** — :class:`TrialCheckpointStore`
  persists completed outcome lists atomically (temp file +
  ``os.replace`` + fsync, content-hashed), so a SIGKILL'd sweep resumes
  from the last durable unit and quarantines corrupt files instead of
  silently reloading them.

Equivalence contract: the *faultless* durable path is bit-identical to
the plain runner (same seeds, same chunking-independent outcomes; a
forked child computes exactly what the parent would).  Degradation
tiers preserve trial seeds; for the per-trial runner every tier is
bit-identical, while splitting a replica *batch* changes the batch-wide
round randomness — statistically equivalent distributions over the same
trials (see ``tests/test_batched_cross_validation.py``).

Activate the policy for a whole call tree (e.g. one experiment cell)
with :func:`use_policy`; :func:`~repro.harness.runner.run_trials` and
:func:`~repro.harness.runner.run_trials_batched` detect it and route
through the durable executor automatically.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DurablePolicy",
    "FailureEvent",
    "FailureBudget",
    "FailureBudgetExceeded",
    "UnitFailure",
    "DurableExecutionError",
    "TrialCheckpointStore",
    "use_policy",
    "active_policy",
    "active_budget",
    "run_isolated",
    "run_trials_durable",
    "run_trials_batched_durable",
]


# ---------------------------------------------------------------------------
# Failures and budgets
# ---------------------------------------------------------------------------


class UnitFailure(RuntimeError):
    """One work unit failed: ``kind`` is ``timeout`` (killed past its
    wall-clock budget), ``crash`` (worker died without reporting), or
    ``error`` (worker raised; ``detail`` carries the exception text)."""

    def __init__(self, kind: str, detail: str, unit: str = "work"):
        self.kind = kind
        self.detail = detail
        self.unit = unit
        super().__init__(f"{unit} {kind}: {detail}")

    @property
    def degrade_now(self) -> bool:
        """Deterministic failures where retrying the same tier is pointless."""
        return self.kind == "error" and "MemoryError" in self.detail


class FailureBudgetExceeded(RuntimeError):
    """The campaign spent more failures than its budget allows."""


class DurableExecutionError(RuntimeError):
    """Every tier of the degradation ladder failed for one work unit."""


@dataclass(frozen=True)
class FailureEvent:
    """One recorded failure (for budget accounting and reports)."""

    kind: str  # "timeout" | "crash" | "error"
    detail: str
    tier: str
    unit: str


class FailureBudget:
    """Campaign-wide failure counter with a hard limit.

    Every timeout, worker death, or worker exception spends one unit;
    exceeding the limit raises :class:`FailureBudgetExceeded` so a
    systematically broken run stops early instead of burning hours of
    retries.
    """

    def __init__(self, limit: int):
        self.limit = int(limit)
        self.events: list[FailureEvent] = []

    @property
    def spent(self) -> int:
        return len(self.events)

    @property
    def remaining(self) -> int:
        return max(0, self.limit - self.spent)

    def spend(self, event: FailureEvent) -> None:
        self.events.append(event)
        if self.spent > self.limit:
            raise FailureBudgetExceeded(
                f"failure budget exhausted: {self.spent} failures > limit "
                f"{self.limit} (last: {event.unit} {event.kind}: {event.detail})"
            )

    def absorb(self, events: Sequence[FailureEvent]) -> None:
        """Account failures reported back from an isolated child run."""
        for event in events:
            self.spend(event)


# ---------------------------------------------------------------------------
# Policy
# ---------------------------------------------------------------------------


@dataclass
class DurablePolicy:
    """Knobs for durable execution (shared by runner and campaign layers).

    Attributes
    ----------
    timeout_per_trial
        Wall-clock seconds allowed per trial; a work unit of ``t`` trials
        gets ``t × timeout_per_trial`` before its worker is killed.
        ``None`` disables timeouts (units then run in-process when
        serial — the cheap path).
    max_retries
        Additional attempts per work unit and tier after the first.
    backoff_base, backoff_cap
        Exponential backoff between attempts:
        ``min(cap, base · 2^attempt)`` seconds.
    failure_budget
        Total failures tolerated across the whole campaign.
    processes
        Worker fan-out for the process tier (``None`` reads
        ``REPRO_PROCESSES``, then falls back to serial).
    sleep
        Injectable sleep (tests replace it to avoid real delays).
    """

    timeout_per_trial: float | None = None
    max_retries: int = 2
    backoff_base: float = 0.5
    backoff_cap: float = 30.0
    failure_budget: int = 16
    processes: int | None = None
    sleep: Callable[[float], None] = time.sleep

    def backoff_delay(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (0-based): base · 2^attempt, capped."""
        return min(self.backoff_cap, self.backoff_base * (2.0**attempt))

    def new_budget(self) -> FailureBudget:
        return FailureBudget(self.failure_budget)

    def unit_timeout(self, trials: int) -> float | None:
        if self.timeout_per_trial is None:
            return None
        return self.timeout_per_trial * max(1, trials)


@dataclass(frozen=True)
class _ActiveContext:
    policy: DurablePolicy
    budget: FailureBudget


_ACTIVE: contextvars.ContextVar[_ActiveContext | None] = contextvars.ContextVar(
    "repro_durable_active", default=None
)


@contextlib.contextmanager
def use_policy(policy: DurablePolicy | None, budget: FailureBudget | None = None):
    """Route ``run_trials``/``run_trials_batched`` through the durable
    executor for the duration of the block (``None`` deactivates, which
    the executor itself uses to call the raw runner without recursing).
    """
    ctx = None
    if policy is not None:
        ctx = _ActiveContext(policy=policy, budget=budget or policy.new_budget())
    token = _ACTIVE.set(ctx)
    try:
        yield ctx
    finally:
        _ACTIVE.reset(token)


def active_policy() -> DurablePolicy | None:
    """Return the :class:`DurablePolicy` installed by :func:`use_policy`, if any."""
    ctx = _ACTIVE.get()
    return None if ctx is None else ctx.policy


def active_budget() -> FailureBudget | None:
    """Return the :class:`FailureBudget` installed by :func:`use_policy`, if any."""
    ctx = _ACTIVE.get()
    return None if ctx is None else ctx.budget


# ---------------------------------------------------------------------------
# Forked execution: bounded fork-per-unit waves with kill-on-timeout
# ---------------------------------------------------------------------------


def _fork_context():
    methods = multiprocessing.get_all_start_methods()
    if "fork" not in methods:  # pragma: no cover - non-POSIX platforms
        return None
    return multiprocessing.get_context("fork")


def _child_main(conn, fn) -> None:
    """Child entry: run ``fn`` and report through the pipe, then hard-exit
    (``os._exit`` skips inherited atexit/teardown that belongs to the
    parent)."""
    code = 0
    try:
        conn.send(("ok", fn()))
    except BaseException as exc:  # noqa: BLE001 - report, then die
        code = 1
        try:
            conn.send(("err", f"{type(exc).__name__}: {exc}"))
        except BaseException:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass
        os._exit(code)


_PENDING = object()


class _Child:
    """One forked child executing a thunk with a wall-clock deadline."""

    def __init__(self, ctx, fn, timeout: float | None, unit: str):
        recv, send = ctx.Pipe(duplex=False)
        self.process = ctx.Process(target=_child_main, args=(send, fn))
        self.process.start()
        send.close()
        self.conn = recv
        self.unit = unit
        self.timeout = timeout
        self.deadline = None if timeout is None else time.monotonic() + timeout

    def poll(self):
        """Non-blocking: the unit's value, ``_PENDING``, or raises
        :class:`UnitFailure` on timeout/crash/error."""
        # Liveness first: once the child is dead, everything it sent is
        # already in the pipe, so the poll below cannot miss a result.
        alive = self.process.is_alive()
        if self.conn.poll():
            try:
                payload = self.conn.recv()
            except (EOFError, OSError):
                payload = None
        elif alive:
            if self.deadline is None or time.monotonic() < self.deadline:
                return _PENDING
            self.kill()
            raise UnitFailure(
                "timeout",
                f"exceeded {self.timeout:.1f}s wall clock; worker killed",
                self.unit,
            )
        else:
            payload = None
        self.kill()
        if payload is None:
            raise UnitFailure(
                "crash",
                f"worker died without reporting (exit code {self.process.exitcode})",
                self.unit,
            )
        status, value = payload
        if status == "err":
            raise UnitFailure("error", value, self.unit)
        return value

    def kill(self) -> None:
        """SIGKILL (if still running), reap, and close the pipe."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except Exception:
            pass


def _run_wave(
    units: dict[int, tuple[str, Callable[[], object], float | None]],
    *,
    width: int | None = None,
) -> tuple[dict[int, object], dict[int, UnitFailure]]:
    """Run a wave of units in forked children, at most ``width`` at once.

    ``units`` maps index -> (unit name, thunk, timeout).  Thunks may be
    closures: a forked child inherits them, and only the return value
    crosses the pipe.  ``width`` defaults to one child per unit; with
    fewer, the next queued unit forks as soon as any child finishes, so
    uneven units never serialize the tail.  The parent sleeps in
    :func:`multiprocessing.connection.wait` on every child's pipe and
    exit sentinel until one reports, dies, or reaches its deadline.

    Returns per-index results and failures; a failure in one unit never
    cancels the others (their results are kept for the retry wave).  On
    any exception in the parent (e.g. ``KeyboardInterrupt``) every
    running child is killed before it propagates.
    """
    if width is None:
        width = max(1, len(units))
    if width < 1:
        raise ValueError("width must be >= 1")
    results: dict[int, object] = {}
    failures: dict[int, UnitFailure] = {}
    ctx = _fork_context()
    if ctx is None:  # pragma: no cover - non-POSIX platforms
        for idx, (unit, fn, _timeout) in units.items():
            try:
                results[idx] = fn()
            except Exception as exc:  # noqa: BLE001
                failures[idx] = UnitFailure("error", f"{type(exc).__name__}: {exc}", unit)
        return results, failures
    queue = list(units.items())
    running: dict[int, _Child] = {}
    try:
        while queue or running:
            while queue and len(running) < width:
                idx, (unit, fn, timeout) = queue.pop(0)
                running[idx] = _Child(ctx, fn, timeout, unit)
            deadlines = [c.deadline for c in running.values() if c.deadline is not None]
            mp_connection.wait(
                [h for c in running.values() for h in (c.conn, c.process.sentinel)],
                timeout=None if not deadlines else max(0.0, min(deadlines) - time.monotonic()),
            )
            for idx, child in list(running.items()):
                try:
                    value = child.poll()
                except UnitFailure as exc:
                    failures[idx] = exc
                    del running[idx]
                    continue
                if value is not _PENDING:
                    results[idx] = value
                    del running[idx]
    finally:
        for child in running.values():
            child.kill()
    return results, failures


def run_isolated(fn: Callable[[], object], *, timeout: float | None = None, unit: str = "work"):
    """Run ``fn()`` in a forked child, killed if it exceeds ``timeout``.

    A one-unit :func:`_run_wave`: closures over engines/graphs need no
    pickling, only the *return value* crosses the pipe.  Raises
    :class:`UnitFailure` on timeout, worker death, or a worker-side
    exception.
    """
    results, failures = _run_wave({0: (unit, fn, timeout)})
    if failures:
        raise failures[0]
    return results[0]


def _run_units_with_retry(
    units: list[tuple[str, Callable[[], object], int]],
    *,
    policy: DurablePolicy,
    budget: FailureBudget,
    tier: str,
) -> list[object]:
    """Run every unit (name, thunk, trial count) in forked waves,
    retrying failed ones in backoff-separated waves.  Returns results
    in unit order; raises the last :class:`UnitFailure` if any unit is
    still failing after ``max_retries`` extra waves (deterministic
    ``MemoryError`` failures raise immediately so the ladder can degrade
    without useless retries)."""
    results: dict[int, object] = {}
    failures: dict[int, UnitFailure] = {}
    for attempt in range(policy.max_retries + 1):
        todo = {
            idx: (unit, fn, policy.unit_timeout(trials))
            for idx, (unit, fn, trials) in enumerate(units)
            if idx not in results
        }
        if not todo:
            break
        if attempt:
            policy.sleep(policy.backoff_delay(attempt - 1))
        wave_results, failures = _run_wave(todo)
        results.update(wave_results)
        for failure in failures.values():
            budget.spend(
                FailureEvent(
                    kind=failure.kind, detail=failure.detail, tier=tier,
                    unit=failure.unit,
                )
            )
            if failure.degrade_now:
                raise failure
    if failures:
        raise next(iter(failures.values()))
    return [results[idx] for idx in range(len(units))]


# ---------------------------------------------------------------------------
# Durable runners (ladders over the raw execution strategies)
# ---------------------------------------------------------------------------


def _resolve(policy: DurablePolicy | None, budget: FailureBudget | None):
    policy = policy or active_policy() or DurablePolicy()
    budget = budget or active_budget() or policy.new_budget()
    return policy, budget


def run_trials_durable(
    build,
    *,
    trials: int,
    max_rounds: int,
    seed: int = 0,
    check_every: int = 1,
    processes: int | None = None,
    policy: DurablePolicy | None = None,
    budget: FailureBudget | None = None,
    checkpoint: "TrialCheckpointStore | None" = None,
    unit_id: str | None = None,
):
    """Durable counterpart of :func:`~repro.harness.runner.run_trials`.

    Same trial seeds, same outcomes (see the module equivalence
    contract), plus timeouts, retries, and the ``processes=K → serial``
    degradation rung.  With ``checkpoint``, a completed run is persisted
    and replayed on the next call instead of re-executed.
    """
    from repro.harness.runner import (
        _chunk_units,
        _trial_chunk,
        default_processes,
        trial_seeds_for,
    )

    if trials < 1:
        raise ValueError("trials must be >= 1")
    policy, budget = _resolve(policy, budget)
    seeds = trial_seeds_for(seed, trials)
    unit_id = unit_id or f"trials-s{seed}-t{trials}-r{max_rounds}"
    if checkpoint is not None:
        cached = checkpoint.load(unit_id, seeds)
        if cached is not None:
            return cached

    k0 = processes or policy.processes or default_processes() or 1
    tiers = [min(k0, trials), 1] if k0 > 1 and trials > 1 else [1]
    last_failure: UnitFailure | None = None
    for k in dict.fromkeys(tiers):
        if k <= 1 and policy.timeout_per_trial is None:
            # Cheapest rung: in-process serial (no fork, no kill needed).
            outcomes = _trial_chunk(build, seeds, max_rounds, check_every)
        else:
            units = _chunk_units(build, seeds, k, max_rounds, check_every)
            try:
                chunk_results = _run_units_with_retry(
                    units, policy=policy, budget=budget, tier=f"processes={k}"
                )
            except UnitFailure as exc:
                last_failure = exc
                continue  # degrade to the next rung with the same seeds
            outcomes = [o for chunk in chunk_results for o in chunk]
        if checkpoint is not None:
            checkpoint.save(unit_id, seeds, outcomes)
        return outcomes
    raise DurableExecutionError(
        f"all execution tiers failed for {unit_id}: {last_failure}"
    ) from last_failure


def run_trials_batched_durable(
    build_batched,
    *,
    trials: int,
    max_rounds: int,
    seed: int = 0,
    check_every: int = 1,
    activation_rounds=None,
    fault_plan=None,
    policy: DurablePolicy | None = None,
    budget: FailureBudget | None = None,
    checkpoint: "TrialCheckpointStore | None" = None,
    unit_id: str | None = None,
):
    """Durable counterpart of :func:`~repro.harness.runner.run_trials_batched`.

    Degradation ladder over the replica axis: the full ``T``-replica
    batch first; on kernel/``MemoryError`` or repeated worker death the
    batch splits into ``K`` sub-batches, then singletons — the same
    trial seeds throughout.  Tiers after the first restart the whole
    stage so every outcome in a returned list comes from one consistent
    batching (sub-batches draw batch-wide randomness per group, so
    degraded outcomes are statistically equivalent, not trace-identical,
    to the full batch; see the module docstring).
    """
    from repro.harness.runner import (
        _run_batched_for_seeds,
        default_processes,
        trial_seeds_for,
    )

    if trials < 1:
        raise ValueError("trials must be >= 1")
    policy, budget = _resolve(policy, budget)
    seeds = trial_seeds_for(seed, trials)
    unit_id = unit_id or f"batched-s{seed}-t{trials}-r{max_rounds}"
    if checkpoint is not None:
        cached = checkpoint.load(unit_id, seeds)
        if cached is not None:
            return cached

    k = policy.processes or default_processes() or 2
    stages: list[tuple[str, list[list[int]]]] = [("batched", [list(seeds)])]
    if trials > 1:
        split = [list(c) for c in np.array_split(seeds, min(k, trials))]
        if len(split) > 1:
            stages.append((f"batched/{len(split)} sub-batches", split))
        if len(split) != trials:
            stages.append(("batched/singletons", [[s] for s in seeds]))

    def batch_thunk(group: list[int]):
        def call():
            # Deactivate the policy inside the unit so the raw runner
            # executes directly instead of recursing into this ladder.
            with use_policy(None):
                return _run_batched_for_seeds(
                    build_batched,
                    group,
                    max_rounds=max_rounds,
                    check_every=check_every,
                    activation_rounds=activation_rounds,
                    fault_plan=fault_plan,
                )

        return call

    last_failure: UnitFailure | None = None
    for tier, groups in stages:
        if policy.timeout_per_trial is None and len(groups) == 1:
            try:
                outcomes = batch_thunk(groups[0])()
            except MemoryError as exc:
                budget.spend(
                    FailureEvent(
                        kind="error", detail=f"MemoryError: {exc}", tier=tier,
                        unit="full batch",
                    )
                )
                last_failure = UnitFailure("error", f"MemoryError: {exc}", "full batch")
                continue
        else:
            units = [
                (
                    f"replica batch {i + 1}/{len(groups)} ({len(g)} trials)",
                    batch_thunk(g),
                    len(g),
                )
                for i, g in enumerate(groups)
            ]
            try:
                group_results = _run_units_with_retry(
                    units, policy=policy, budget=budget, tier=tier
                )
            except UnitFailure as exc:
                last_failure = exc
                continue
            outcomes = [o for group in group_results for o in group]
        if checkpoint is not None:
            checkpoint.save(unit_id, seeds, outcomes)
        return outcomes
    raise DurableExecutionError(
        f"all batched tiers failed for {unit_id}: {last_failure}"
    ) from last_failure


# ---------------------------------------------------------------------------
# Trial-level checkpoints
# ---------------------------------------------------------------------------


class TrialCheckpointStore:
    """Crash-safe per-unit :class:`~repro.harness.runner.TrialOutcome`
    checkpoints.

    One JSON file per work unit, written atomically with a content hash;
    a corrupt or mismatched file is quarantined (renamed aside) rather
    than reloaded, and the unit simply re-runs.
    """

    FORMAT_VERSION = 1

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def path_for(self, unit_id: str) -> Path:
        safe = "".join(c if c.isalnum() or c in "-._" else "_" for c in unit_id)
        return self.directory / f"{safe}.json"

    @staticmethod
    def _hash(doc: dict) -> str:
        payload = {k: v for k, v in doc.items() if k != "content_sha256"}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def save(self, unit_id: str, seeds: Sequence[int], outcomes) -> Path:
        from repro.harness.persistence import atomic_write_text, encode_nonfinite

        doc = {
            "format_version": self.FORMAT_VERSION,
            "kind": "trial-outcomes",
            "unit_id": unit_id,
            "seeds": [int(s) for s in seeds],
            "outcomes": encode_nonfinite([asdict(o) for o in outcomes]),
        }
        doc["content_sha256"] = self._hash(doc)
        return atomic_write_text(
            self.path_for(unit_id),
            json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n",
        )

    def load(self, unit_id: str, seeds: Sequence[int]):
        """Reload a unit's outcomes, or ``None`` (quarantining the file)
        when it is missing, corrupt, or describes different seeds."""
        from repro.harness.persistence import decode_nonfinite, quarantine_file
        from repro.harness.runner import TrialOutcome

        path = self.path_for(unit_id)
        if not path.exists():
            return None
        try:
            doc = json.loads(path.read_text())
            if (
                doc.get("format_version") != self.FORMAT_VERSION
                or doc.get("kind") != "trial-outcomes"
                or doc.get("content_sha256") != self._hash(doc)
                or doc.get("seeds") != [int(s) for s in seeds]
            ):
                quarantine_file(path)
                return None
            return [
                TrialOutcome(**row) for row in decode_nonfinite(doc["outcomes"])
            ]
        except (OSError, json.JSONDecodeError, TypeError, KeyError, ValueError):
            quarantine_file(path)
            return None
