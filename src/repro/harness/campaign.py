"""Resumable experiment campaigns over the full registry.

A *campaign* runs a set of registered experiments (by default all of
them, in :func:`~repro.harness.experiments.registry_order`) as one
durable unit of work:

* each finished experiment **cell** is persisted immediately as a
  crash-safe checkpoint (``<exp_id>-<profile>.json`` under the campaign
  directory, written via :func:`~repro.harness.persistence.save_table`'s
  atomic temp-file + ``os.replace`` + fsync path, content-hashed);
* a killed campaign **resumes**: ``resume=True`` reloads every valid
  checkpoint instead of re-running its cell, quarantines corrupt or
  truncated ones (``*.quarantined``), and re-runs exactly the missing
  cells — since every cell is deterministically seeded, the resumed
  tables are bit-identical to an uninterrupted run;
* every campaign runs through **one cell scheduler**: waves of
  :func:`~repro.harness.durable._run_wave` at most ``pool_workers``
  wide (one cell at a time when unset).  Cells fork when
  ``pool_workers`` is set or a timeout is configured (so a wedged cell
  can be killed), and otherwise run in-process in registry order.  A
  forked cell inherits whatever the parent built copy-on-write, only
  its table crosses the pipe, and it may fork its own trial waves;
* each cell is **completed the moment it reports** — verified, then
  checkpointed atomically, then its progress line — while its siblings
  keep running, so a SIGKILL loses only the cells still in flight;
* cells execute under a :class:`~repro.harness.durable.DurablePolicy`
  (hung-trial timeouts, bounded retries with exponential backoff, a
  campaign-wide failure budget); a failed cell is retried, after the
  backoff, in the next wave;
* a campaign-level **degradation ladder** mirrors the trial-level one:
  a cell whose profile requests ``engine="batched"`` falls back to
  ``engine="single"`` with ``processes=K`` and finally serial
  ``processes=1`` if the batched kernel keeps dying (same trial seeds;
  see the equivalence contract in :mod:`repro.harness.durable`).
  Trial seeds are derived inside each cell from its experiment id and
  profile, so tables are bit-identical for every ``pool_workers``.

:func:`render_campaign_text` regenerates the ``standard_results.txt`` /
``quick_results.txt`` archive text purely from checkpoints, so a
completed campaign directory is sufficient to rebuild the committed
archives without re-running anything; :func:`read_campaign_text` splits
an archive back into its tables.
"""

from __future__ import annotations

import contextlib
import re
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.harness.durable import (
    DurablePolicy,
    FailureBudget,
    FailureBudgetExceeded,
    FailureEvent,
    UnitFailure,
    _run_wave,
    use_policy,
)
from repro.harness.experiments import EXPERIMENTS, registry_order, run_experiment
from repro.harness.persistence import (
    ResultDocument,
    load_document,
    quarantine_file,
    save_table,
)
from repro.harness.verify import verify_experiment

__all__ = [
    "CampaignConfig",
    "CellResult",
    "CampaignReport",
    "checkpoint_path",
    "run_campaign",
    "render_campaign_text",
    "read_campaign_text",
]


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that defines one campaign run.

    ``overrides`` maps experiment id -> extra kwargs merged over the
    profile kwargs (used by tests to shrink cells; production campaigns
    leave it empty so checkpoints reproduce the published tables).
    Cells fork when ``pool_workers`` is set or a timeout is configured
    (:attr:`isolate_cells`), since killing a wedged cell requires it to
    live in a child process.
    """

    checkpoint_dir: str | Path
    profile: str = "quick"
    exp_ids: Sequence[str] | None = None
    resume: bool = False
    timeout_per_trial: float | None = None
    timeout_per_experiment: float | None = None
    max_retries: int = 2
    backoff_base: float = 0.5
    failure_budget: int = 16
    processes: int | None = None
    verify: bool = True
    overrides: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    #: Run cells in forked waves at most this wide.  ``None`` runs one
    #: cell at a time, in-process unless :attr:`isolate_cells`; ``1``
    #: still forks every cell (useful to prove it degrades to serial).
    pool_workers: int | None = None

    def policy(self) -> DurablePolicy:
        return DurablePolicy(
            timeout_per_trial=self.timeout_per_trial,
            max_retries=self.max_retries,
            backoff_base=self.backoff_base,
            failure_budget=self.failure_budget,
            processes=self.processes,
        )

    @property
    def isolate_cells(self) -> bool:
        return (
            self.timeout_per_trial is not None
            or self.timeout_per_experiment is not None
        )


@dataclass
class CellResult:
    """Outcome of one experiment cell within a campaign."""

    exp_id: str
    status: str  # "completed" | "resumed" | "failed"
    elapsed_s: float = 0.0
    attempts: int = 0
    tier: str = "profile"
    checks_passed: int | None = None
    checks_total: int | None = None
    error: str | None = None
    path: Path | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("completed", "resumed") and (
            self.checks_passed is None or self.checks_passed == self.checks_total
        )


@dataclass
class CampaignReport:
    """What a campaign did: per-cell results plus failure accounting."""

    profile: str
    checkpoint_dir: Path
    cells: list[CellResult] = field(default_factory=list)
    failures: list[FailureEvent] = field(default_factory=list)
    aborted: str | None = None

    @property
    def ok(self) -> bool:
        return self.aborted is None and all(c.ok for c in self.cells)

    def summary(self) -> str:
        done = sum(1 for c in self.cells if c.status == "completed")
        resumed = sum(1 for c in self.cells if c.status == "resumed")
        failed = sum(1 for c in self.cells if c.status == "failed")
        parts = [
            f"campaign [{self.profile}] in {self.checkpoint_dir}:",
            f"{done} completed, {resumed} resumed, {failed} failed,",
            f"{len(self.failures)} failure events",
        ]
        if self.aborted:
            parts.append(f"(ABORTED: {self.aborted})")
        return " ".join(parts)


def checkpoint_path(directory: str | Path, exp_id: str, profile: str) -> Path:
    """The checkpoint file one cell writes: ``<dir>/<exp_id>-<profile>.json``."""
    return Path(directory) / f"{exp_id}-{profile}.json"


def _cell_tiers(config: CampaignConfig, exp_id: str) -> list[tuple[str, dict]]:
    """The degradation ladder for one cell: profile kwargs as-is, then —
    only for cells that request the batched engine — the single-engine
    process tier and the serial tier."""
    exp = EXPERIMENTS[exp_id]
    kwargs = dict(exp.quick if config.profile == "quick" else exp.standard)
    kwargs.update(config.overrides.get(exp_id, {}))
    tiers: list[tuple[str, dict]] = [("profile", {})]
    if kwargs.get("engine") == "batched":
        k = config.processes or 2
        tiers.append((f"single+processes={k}", {"engine": "single"}))
        tiers.append(("single+serial", {"engine": "single"}))
    return tiers


def _cell_call(
    config: CampaignConfig,
    exp_id: str,
    tier: str,
    tier_overrides: dict,
    policy: DurablePolicy,
    budget: FailureBudget,
) -> Callable[[], tuple[object, float, list[FailureEvent]]]:
    """Build the thunk that runs one cell at one ladder tier.

    Returns ``(table, elapsed_s, failure_events)`` — the events are the
    trial-level failures the durable runner absorbed inside the cell, so
    the campaign can charge them against its own budget even when the
    cell ran in a forked child.  The cell's own budget is what the
    campaign has left when the cell starts."""
    overrides = dict(config.overrides.get(exp_id, {}))
    overrides.update(tier_overrides)
    if tier == "single+serial":
        processes = 1
    elif tier.startswith("single+processes"):
        processes = config.processes or 2
    else:
        processes = policy.processes

    def call() -> tuple[object, float, list[FailureEvent]]:
        cell_policy = replace(policy, processes=processes, failure_budget=budget.remaining)
        cell_budget = cell_policy.new_budget()
        start = time.perf_counter()
        with use_policy(cell_policy, cell_budget):
            table = run_experiment(exp_id, config.profile, **overrides)
        return table, time.perf_counter() - start, cell_budget.events

    return call


def _verify_cell(config: CampaignConfig, result: CellResult, table: object) -> None:
    """Record the cell's check tally; a cell that declares no checks
    keeps ``None`` (no ``checks k/n`` in its progress line)."""
    if config.verify and EXPERIMENTS[result.exp_id].checks:
        checks = verify_experiment(result.exp_id, table)
        result.checks_passed = sum(1 for c in checks if c.passed)
        result.checks_total = len(checks)


def _try_resume(
    config: CampaignConfig,
    exp_id: str,
    path: Path,
    progress: Callable[[str], None],
) -> CellResult | None:
    """Reload an existing checkpoint, quarantining it when invalid.

    Returns the resumed :class:`CellResult`, or ``None`` when the cell
    must (re-)run — because the file is absent, corrupt, or describes a
    different experiment/profile."""
    if not path.exists():
        return None
    doc = load_document(path, strict=False)
    if doc is None or doc.exp_id != exp_id or doc.profile != config.profile:
        quarantined = quarantine_file(path)
        progress(f"{exp_id}: checkpoint invalid, quarantined -> {quarantined.name}")
        return None
    if not config.resume:
        return None  # valid checkpoint, but a fresh run was requested
    result = CellResult(exp_id=exp_id, status="resumed", path=path)
    meta = doc.extra.get("campaign", {})
    result.elapsed_s = float(meta.get("elapsed_s", 0.0))
    result.tier = str(meta.get("tier", "profile"))
    _verify_cell(config, result, doc.table)
    progress(f"{exp_id}: resumed from checkpoint ({path.name})")
    return result


def run_campaign(
    config: CampaignConfig,
    *,
    progress: Callable[[str], None] | None = None,
) -> CampaignReport:
    """Run (or resume) a campaign; returns the per-cell report.

    Every still-pending cell contributes one unit (its current ladder
    tier) to a wave at most ``pool_workers`` wide; the next queued cell
    starts as soon as a running one has been completed, so a slow cell
    never blocks the rest of the registry.  Checkpoints are written only
    by this process, one atomic file per finished cell.  A failed cell
    (all ladder tiers exhausted) is recorded and the campaign moves on —
    except when the campaign-wide failure budget is exceeded, which
    kills the running cells and aborts the rest immediately.
    """
    progress = progress or (lambda line: None)
    if config.pool_workers is not None and config.pool_workers < 1:
        raise ValueError("pool_workers must be >= 1")
    directory = Path(config.checkpoint_dir)
    directory.mkdir(parents=True, exist_ok=True)
    order = registry_order(config.exp_ids)
    policy = config.policy()
    budget = policy.new_budget()
    report = CampaignReport(profile=config.profile, checkpoint_dir=directory)
    done: dict[str, CellResult] = {}

    pending: list[_PendingCell] = []
    for exp_id in order:
        path = checkpoint_path(directory, exp_id, config.profile)
        resumed = _try_resume(config, exp_id, path, progress)
        if resumed is not None:
            done[exp_id] = resumed
            continue
        pending.append(
            _PendingCell(exp_id=exp_id, path=path, tiers=_cell_tiers(config, exp_id))
        )

    if config.pool_workers is not None:
        progress(f"parallel plane: {config.pool_workers} worker(s)")
    fork = config.pool_workers is not None or config.isolate_cells
    try:
        while pending:
            wave = [(cell, *cell.current_tier) for cell in pending]
            units = [
                (
                    f"cell {cell.exp_id} [{tier}]",
                    _cell_call(config, cell.exp_id, tier, tier_overrides, policy, budget),
                    config.timeout_per_experiment,
                )
                for cell, tier, tier_overrides in wave
            ]
            retry_delay = 0.0
            finished = _run_wave(units, width=config.pool_workers or 1, fork=fork)
            with contextlib.closing(finished):
                for idx, outcome in finished:
                    cell, tier, _overrides = wave[idx]
                    cell.attempts_total += 1
                    if not isinstance(outcome, UnitFailure):
                        table, elapsed, events = outcome
                        budget.absorb(events)
                        done[cell.exp_id] = _complete_cell(
                            config, cell, tier, table, elapsed, progress
                        )
                        continue
                    _charge_failure(cell, tier, outcome, budget, progress)
                    if outcome.degrade_now or cell.attempt >= config.max_retries:
                        cell.tier_idx += 1
                        cell.attempt = 0
                        if cell.tier_idx >= len(cell.tiers):
                            done[cell.exp_id] = _fail_cell(cell, progress)
                    else:
                        cell.attempt += 1
                        retry_delay = max(
                            retry_delay, policy.backoff_delay(cell.attempt - 1)
                        )
            pending = [cell for cell in pending if cell.exp_id not in done]
            if pending and retry_delay > 0:
                policy.sleep(retry_delay)
    except FailureBudgetExceeded as exc:
        report.aborted = str(exc)
        progress(f"campaign aborted: {exc}")
    report.cells = [done[exp_id] for exp_id in order if exp_id in done]
    report.failures = list(budget.events)
    return report


@dataclass
class _PendingCell:
    """Scheduler state for one not-yet-finished cell."""

    exp_id: str
    path: Path
    tiers: list[tuple[str, dict]]
    tier_idx: int = 0
    attempt: int = 0  # retries used at the current tier
    attempts_total: int = 0
    last_error: str | None = None

    @property
    def current_tier(self) -> tuple[str, dict]:
        return self.tiers[self.tier_idx]


def _charge_failure(
    cell: _PendingCell,
    tier: str,
    failure: UnitFailure,
    budget: FailureBudget,
    progress: Callable[[str], None],
) -> None:
    """Spend one campaign failure on a cell attempt and report it.  A
    cell whose own budget ran out aborts the campaign."""
    budget.spend(
        FailureEvent(kind=failure.kind, detail=failure.detail, tier=tier, unit=failure.unit)
    )
    cell.last_error = str(failure)
    progress(f"{cell.exp_id}: {tier} attempt {cell.attempt + 1} failed: {cell.last_error}")
    if "FailureBudgetExceeded" in failure.detail:
        raise FailureBudgetExceeded(failure.detail)


def _fail_cell(cell: _PendingCell, progress: Callable[[str], None]) -> CellResult:
    """Record a cell whose every ladder tier is exhausted."""
    progress(
        f"{cell.exp_id}: FAILED after {cell.attempts_total} attempts: {cell.last_error}"
    )
    return CellResult(
        exp_id=cell.exp_id,
        status="failed",
        attempts=cell.attempts_total,
        error=cell.last_error,
        path=cell.path,
    )


def _complete_cell(
    config: CampaignConfig,
    cell: _PendingCell,
    tier: str,
    table: object,
    elapsed: float,
    progress: Callable[[str], None],
) -> CellResult:
    """Verify, checkpoint, then report one finished cell (one artifact
    for every ``pool_workers``, so resume and rendering stay
    bit-compatible)."""
    result = CellResult(
        exp_id=cell.exp_id,
        status="completed",
        elapsed_s=elapsed,
        attempts=cell.attempts_total,
        tier=tier,
        path=cell.path,
    )
    _verify_cell(config, result, table)
    save_table(
        table,
        cell.path,
        exp_id=cell.exp_id,
        profile=config.profile,
        extra={
            "campaign": {
                "elapsed_s": elapsed,
                "tier": tier,
                "attempts": result.attempts,
                "checks_passed": result.checks_passed,
                "checks_total": result.checks_total,
            }
        },
    )
    verdict = (
        ""
        if result.checks_total is None
        else f", checks {result.checks_passed}/{result.checks_total}"
    )
    progress(f"{cell.exp_id}: completed in {elapsed:.1f}s [{tier}]{verdict}")
    return result


def _campaign_documents(
    directory: str | Path, profile: str, exp_ids: Sequence[str] | None = None
) -> list[ResultDocument]:
    order = registry_order(exp_ids)
    docs = []
    for exp_id in order:
        path = checkpoint_path(directory, exp_id, profile)
        if not path.exists():
            raise FileNotFoundError(
                f"campaign checkpoint missing for {exp_id} [{profile}]: {path} "
                "(run the campaign to completion first)"
            )
        docs.append(load_document(path))
    return docs


def render_campaign_text(
    directory: str | Path, profile: str, exp_ids: Sequence[str] | None = None
) -> str:
    """Rebuild the results-archive text purely from campaign checkpoints.

    Emits the ``quick_results.txt`` / ``standard_results.txt`` format:
    per cell, in registry order, a blank line, the header
    ``### <id> — <claim>  [<profile>]`` and the rendered table.  The
    text depends on the tables alone (per-cell seconds stay in each
    checkpoint's ``campaign.elapsed_s``), so every run of one campaign,
    serial or pooled, renders the same bytes.
    :func:`read_campaign_text` is its inverse.
    """
    parts: list[str] = []
    for doc in _campaign_documents(directory, profile, exp_ids):
        claim = EXPERIMENTS[doc.exp_id].claim
        parts.append("")  # blank separator line before each block
        parts.append(f"### {doc.exp_id} — {claim}  [{profile}]")
        parts.append(doc.table.render())
    return "\n".join(parts) + "\n"


_SECTION_HEADER = re.compile(r"(\S+) — .*  \[\w+\]")


def read_campaign_text(text: str) -> dict[str, str]:
    """Split a results-archive text into ``{exp_id: rendered table}``.

    The inverse of :func:`render_campaign_text`; raises ``ValueError`` on
    text that it could not have written.
    """
    lead, *sections = text.split("\n### ")
    if lead or not text.endswith("\n"):
        raise ValueError("not a results archive: no leading '### ' section or final newline")
    blocks: dict[str, str] = {}
    for section in sections:
        header, _, block = section.partition("\n")
        match = _SECTION_HEADER.fullmatch(header)
        if match is None or match[1] in blocks:
            raise ValueError(f"bad or repeated section header: '### {header}'")
        blocks[match[1]] = block.removesuffix("\n")
    return blocks
