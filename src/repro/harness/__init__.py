"""Experiment harness: trial running, sweeps, tables, and the registry.

Use :func:`~repro.harness.experiments.run_experiment` to regenerate any of
the paper-claim reproductions and extensions (``E1``-``E19``) or
ablations (``A1``-``A3``); each returns an ASCII
:class:`~repro.harness.tables.Table`, and
:func:`~repro.harness.verify.verify_experiment` checks a table against
its claim's shape conditions.
"""

from repro.harness.runner import (
    TrialOutcome,
    run_trials,
    run_trials_batched,
    trial_seeds_for,
    trial_summary,
)
from repro.harness.sweep import grid, geometric_range
from repro.harness.tables import Table
from repro.harness.experiments import (
    EXPERIMENTS,
    Experiment,
    registry_order,
    run_experiment,
)
from repro.harness.persistence import (
    ResultLoadError,
    atomic_write_text,
    load_document,
    load_table,
    quarantine_file,
    save_table,
)
from repro.harness.durable import (
    DurablePolicy,
    FailureBudget,
    FailureBudgetExceeded,
    use_policy,
)
from repro.harness.campaign import (
    CampaignConfig,
    CampaignReport,
    render_campaign_text,
    run_campaign,
)
from repro.harness.reporting import build_report, collect_documents, write_report
from repro.harness.verify import CheckResult, verify_experiment

__all__ = [
    "TrialOutcome",
    "run_trials",
    "run_trials_batched",
    "trial_seeds_for",
    "trial_summary",
    "grid",
    "geometric_range",
    "Table",
    "EXPERIMENTS",
    "Experiment",
    "registry_order",
    "run_experiment",
    "save_table",
    "load_table",
    "load_document",
    "ResultLoadError",
    "atomic_write_text",
    "quarantine_file",
    "DurablePolicy",
    "FailureBudget",
    "FailureBudgetExceeded",
    "use_policy",
    "CampaignConfig",
    "CampaignReport",
    "run_campaign",
    "render_campaign_text",
    "build_report",
    "collect_documents",
    "write_report",
    "CheckResult",
    "verify_experiment",
]
