"""Markdown report generation from saved experiment results.

``repro experiments run-all`` leaves one JSON checkpoint per experiment
under its checkpoint directory (``campaign-checkpoints/`` by default);
:func:`build_report` assembles them into a single markdown document in
:func:`~repro.harness.experiments.registry_order` (the order
EXPERIMENTS.md follows), so the results archive can be regenerated
without re-running any sweep.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.harness.experiments import EXPERIMENTS, registry_order
from repro.harness.persistence import ResultDocument, load_document

__all__ = ["collect_documents", "build_report", "write_report"]


def collect_documents(results_dir: str | Path) -> list[ResultDocument]:
    """Load every ``*.json`` result under ``results_dir``, registry-ordered
    (documents of unregistered ids last)."""
    results_dir = Path(results_dir)
    docs = [load_document(p) for p in sorted(results_dir.glob("*.json"))]
    rank = {exp_id: i for i, exp_id in enumerate(registry_order())}
    return sorted(docs, key=lambda d: rank.get(d.exp_id, len(rank)))


def build_report(docs: list[ResultDocument], *, title: str | None = None) -> str:
    """Assemble result documents into one markdown report."""
    lines = [title or "# Experiment results", ""]
    if docs:
        profiles = sorted({d.profile for d in docs})
        versions = sorted({d.package_version for d in docs})
        newest = max(d.created_at for d in docs)
        lines += [
            f"Profiles: {', '.join(profiles)} · repro {', '.join(versions)} · "
            f"generated {time.strftime('%Y-%m-%d %H:%M', time.localtime(newest))}",
            "",
        ]
    for doc in docs:
        claim = (
            EXPERIMENTS[doc.exp_id].claim if doc.exp_id in EXPERIMENTS else "(unknown)"
        )
        lines += [
            f"## {doc.exp_id} — {claim}",
            "",
            "```",
            doc.table.render(),
            "```",
            "",
        ]
    return "\n".join(lines)


def write_report(
    results_dir: str | Path, output: str | Path, *, title: str | None = None
) -> Path:
    """Collect results and write the assembled report to ``output``."""
    docs = collect_documents(results_dir)
    output = Path(output)
    output.write_text(build_report(docs, title=title) + "\n")
    return output
