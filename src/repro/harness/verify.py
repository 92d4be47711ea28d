"""Shape verification: does a measured table reproduce its paper claim?

Each experiment's claim reduces to a handful of checkable *shape*
conditions (orderings, slopes, bands — see docs/reproducing.md).  Every
registered :class:`~repro.harness.experiments.Experiment` declares them
in its ``checks`` tuple, built from three kinds: a log-log
:class:`Slope` band, an :class:`AllTrue` column and a named
:class:`Predicate`.  :func:`verify_experiment` evaluates that tuple for
the campaign (``repro experiments run-all``), the CLI (``repro
experiments verify``) and programmatic use.

A check returns a :class:`CheckResult`; an experiment verifies when every
check passes.  Checks operate purely on the table (no re-simulation), so
they also run against archived JSON results such as campaign checkpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from repro.analysis.statistics import loglog_slope
from repro.harness.tables import Table

__all__ = ["CheckResult", "Slope", "AllTrue", "Predicate", "verify_experiment"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one shape check."""

    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}"


@dataclass(frozen=True)
class Slope:
    """The log-log slope of column ``y`` against column ``x`` lies strictly
    between ``lo`` and ``hi``.

    ``detail`` and ``note`` format the fit's ``slope`` and ``r2``.  A
    ``note`` is the table footnote :meth:`Experiment.run
    <repro.harness.experiments.Experiment.run>` appends, so the note and
    the verdict come from one fit.
    """

    x: str
    y: str
    lo: float
    hi: float = math.inf
    name: str = ""  # default: "slope(<y> vs <x>) in [<lo>, <hi>]"
    detail: str = "slope={slope:.2f} (R^2={r2:.3f})"
    note: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            default = f"slope({self.y} vs {self.x}) in [{self.lo}, {self.hi}]"
            object.__setattr__(self, "name", default)

    def fit(self, table: Table) -> dict[str, float]:
        slope, r2 = loglog_slope(table.column(self.x), table.column(self.y))
        return {"slope": slope, "r2": r2}

    def __call__(self, table: Table) -> CheckResult:
        fit = self.fit(table)
        passed = self.lo < fit["slope"] < self.hi
        return CheckResult(self.name, passed, self.detail.format(**fit))


@dataclass(frozen=True)
class AllTrue:
    """Every cell of the boolean ``column`` is true; ``detail`` may say
    ``{rows}``."""

    name: str
    column: str
    detail: str = ""

    def __call__(self, table: Table) -> CheckResult:
        passed = all(table.column(self.column))
        return CheckResult(self.name, passed, self.detail.format(rows=len(table.rows)))


@dataclass(frozen=True)
class Predicate:
    """``test`` gets the listed columns, in order, and returns
    ``(passed, detail)``.  A column is named by its header, or by its
    position where the header depends on the profile's parameters."""

    name: str
    columns: Sequence[str | int]
    test: Callable[..., tuple[bool, str]]

    def __call__(self, table: Table) -> CheckResult:
        values = [
            table.column(c) if isinstance(c, str) else [row[c] for row in table.rows]
            for c in self.columns
        ]
        passed, detail = self.test(*values)
        return CheckResult(self.name, bool(passed), detail)


Check = Union[Slope, AllTrue, Predicate]


def verify_experiment(exp_id: str, table: Table) -> list[CheckResult]:
    """Evaluate the checks ``EXPERIMENTS[exp_id]`` declares over ``table``."""
    # Imported here: the registry imports the check kinds from this module.
    from repro.harness.experiments import EXPERIMENTS

    if exp_id not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}")
    return [check(table) for check in EXPERIMENTS[exp_id].checks]
