"""Durable execution: one streaming wave loop, timeouts, retries, degradation.

The paper's guarantees are w.h.p. statements, so every measured shape
comes from long multi-trial sweeps — which makes the *execution layer*
a single point of failure: one hung worker or one OOM-killed batch used
to lose the whole campaign.  This module is the harness's one
scheduler and the retry discipline around it:

* **One wave loop** — every unit of harness work (trial chunks of
  ``run_trials(processes=K)``, replica batches, campaign cells) runs
  through :func:`_run_wave`, which yields each unit's value or
  :class:`UnitFailure` the moment that unit finishes.  Forked waves run
  one child per unit, at most ``width`` alive, the next unit forking as
  soon as any child finishes.  Units are thunks, so closures need no
  pickling; only results cross the pipe.  Children are ordinary
  (non-daemonic) processes, so a cell's child may fork its own trial
  waves.  Unforked waves run the thunks in-process, in submission order.
* **Wall-clock timeouts** — the parent kills a unit's child when it
  exceeds its budget (``timeout_per_trial × trials`` per unit), then
  re-dispatches it with the *same trial seeds*.
* **Bounded retries with exponential backoff** — each failed unit is
  retried up to ``max_retries`` times, sleeping
  ``backoff_base · 2^attempt`` (capped) between waves; every failure
  spends from a per-campaign :class:`FailureBudget` so a systematically
  broken environment stops early instead of thrashing.
* **A graceful-degradation ladder** — :func:`run_ladder` falls to a
  cheaper tier on ``MemoryError`` (deterministic; retrying is
  pointless) or repeated worker death: the batched engine splits its
  replica batch into sub-batches and finally singletons; the
  process-parallel runner falls from ``processes=K`` to serial.  Trial
  seeds are preserved at every tier, so the *same trials* run wherever
  they land.

Equivalence contract: the *faultless* durable path is bit-identical to
the plain runner (same seeds, same chunking-independent outcomes; a
forked child computes exactly what the parent would).  Degradation
tiers preserve trial seeds; for the per-trial runner every tier is
bit-identical, while splitting a replica *batch* changes the batch-wide
round randomness — statistically equivalent distributions over the same
trials (see ``tests/test_batched_cross_validation.py``).

Activate the policy for a whole call tree (e.g. one experiment cell)
with :func:`use_policy`; :func:`~repro.harness.runner.run_trials` and
:func:`~repro.harness.runner.run_trials_batched` read it.  With no
active policy their ladder has one rung, no retries and no timeout, and
a failure propagates as raised.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import multiprocessing
import os
import time
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Callable, Iterator, Sequence

__all__ = [
    "DurablePolicy",
    "FailureEvent",
    "FailureBudget",
    "FailureBudgetExceeded",
    "UnitFailure",
    "DurableExecutionError",
    "use_policy",
    "active_policy",
    "run_ladder",
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
        """Account failures reported back from a finished campaign cell."""
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
        ``None`` disables timeouts (a one-group tier then runs
        in-process — the cheap path).
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


#: What the runners use with no active policy: one wave, no retries.
_PLAIN = DurablePolicy(max_retries=0)


@contextlib.contextmanager
def use_policy(policy: DurablePolicy | None, budget: FailureBudget | None = None):
    """Run ``run_trials``/``run_trials_batched`` under ``policy`` (and its
    ladder) for the duration of the block; ``None`` deactivates it."""
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


# ---------------------------------------------------------------------------
# The wave loop and the degradation ladder built on it
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
    units: Sequence[tuple[str, Callable[[], object], float | None]],
    *,
    width: int | None = None,
    fork: bool = True,
) -> Iterator[tuple[int, object]]:
    """Run a wave of units, yielding ``(index, value or UnitFailure)`` as
    each unit finishes.

    ``units`` lists (unit name, thunk, timeout).  Forked, each unit runs
    in its own child, at most ``width`` at once (default: all): thunks
    may be closures, since the child inherits them and only the return
    value crosses the pipe, and the next queued unit forks as soon as a
    finished one has been yielded, so uneven units never serialize the
    tail.  The parent sleeps in :func:`multiprocessing.connection.wait`
    on every child's pipe and exit sentinel until one reports, dies, or
    reaches its deadline.  Unforked (``fork=False``, or no ``fork`` start
    method), the thunks run in-process in submission order and timeouts
    do not apply.

    A failure in one unit never cancels the others.  When the parent
    raises (e.g. ``KeyboardInterrupt``) or closes the generator early,
    every running child is killed.
    """
    if width is None:
        width = max(1, len(units))
    if width < 1:
        raise ValueError("width must be >= 1")
    ctx = _fork_context() if fork else None
    if ctx is None:
        for idx, (unit, fn, _timeout) in enumerate(units):
            try:
                outcome = fn()
            except Exception as exc:  # noqa: BLE001 - reported like a child's
                outcome = UnitFailure("error", f"{type(exc).__name__}: {exc}", unit)
            yield idx, outcome
        return
    queue = list(enumerate(units))
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
                    outcome = child.poll()
                except UnitFailure as exc:
                    outcome = exc
                if outcome is not _PENDING:
                    del running[idx]
                    yield idx, outcome
    finally:
        for child in running.values():
            child.kill()


def _run_tier(
    tier: str,
    groups: list[list[int]],
    run_group: Callable[[list[int]], list],
    label: str,
    policy: DurablePolicy,
    budget: FailureBudget | None,
) -> list:
    """One ladder rung: the outcomes of every seed group, in group order.

    A lone group without a timeout runs in-process.  Otherwise each group
    is one forked unit, and failed units are retried in backoff-separated
    waves; the first failing unit's :class:`UnitFailure` is raised if any
    still fails after ``max_retries`` extra waves (a deterministic
    ``MemoryError`` raises at once, so the ladder degrades without
    useless retries)."""
    if len(groups) == 1 and policy.timeout_per_trial is None:
        return run_group(groups[0])
    results: dict[int, list] = {}
    failures: dict[int, UnitFailure] = {}
    for attempt in range(policy.max_retries + 1):
        todo = [idx for idx in range(len(groups)) if idx not in results]
        if not todo:
            break
        if attempt:
            policy.sleep(policy.backoff_delay(attempt - 1))
        failures = {}
        wave = [
            (
                f"{label} {idx + 1}/{len(groups)} ({len(groups[idx])} trials)",
                functools.partial(run_group, groups[idx]),
                policy.unit_timeout(len(groups[idx])),
            )
            for idx in todo
        ]
        for j, outcome in _run_wave(wave):
            if isinstance(outcome, UnitFailure):
                failures[todo[j]] = outcome
            else:
                results[todo[j]] = outcome
        for idx in sorted(failures):
            failure = failures[idx]
            if budget is not None:
                budget.spend(
                    FailureEvent(failure.kind, failure.detail, tier, failure.unit)
                )
            if failure.degrade_now:
                raise failure
    if failures:
        raise failures[min(failures)]
    return [outcome for idx in range(len(groups)) for outcome in results[idx]]


def run_ladder(
    tiers: list[tuple[str, list[list[int]]]],
    run_group: Callable[[list[int]], list],
    *,
    label: str,
) -> list:
    """Run trial-seed groups down a degradation ladder.

    ``tiers`` lists ``(tier name, seed groups)`` from the preferred rung
    down; ``run_group(seeds)`` returns one outcome per seed, and the
    outcomes of a rung are concatenated in group order.  Under the
    active policy a rung that keeps failing (or runs out of memory)
    hands the same seeds to the next one, and :class:`DurableExecutionError`
    reports a ladder with no rung left.  With no active policy only the
    first rung runs, once, and its failure propagates as raised.
    """
    ctx = _ACTIVE.get()
    if ctx is None:
        return _run_tier(*tiers[0], run_group, label, _PLAIN, None)
    last: UnitFailure | None = None
    for tier, groups in tiers:
        try:
            return _run_tier(tier, groups, run_group, label, ctx.policy, ctx.budget)
        except MemoryError as exc:  # an in-process rung
            last = UnitFailure("error", f"MemoryError: {exc}", f"{label} 1/1")
            ctx.budget.spend(FailureEvent(last.kind, last.detail, tier, last.unit))
        except UnitFailure as exc:
            last = exc
    raise DurableExecutionError(f"all execution tiers failed: {last}") from last
