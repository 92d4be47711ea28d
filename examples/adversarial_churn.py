#!/usr/bin/env python
"""Adversarial churn: when mobility actually hurts.

The mobile telephone model lets the topology change arbitrarily every τ
rounds — an *adversarial* dynamic graph. This example contrasts three
τ=1 regimes on the same double-star topology for b=0 rumor spreading:

* **static** — no churn at all;
* **oblivious churn** — fresh random relabeling every round (α, Δ
  preserved). Counter-intuitively this *helps*: mixing relocates the
  informed set past the hub bottleneck;
* **adaptive churn** — a worst-case adversary that watches who is
  informed and relabels every round to pack the informed set behind a
  single boundary vertex (α, Δ still preserved).

The gap between the oblivious and adaptive columns is the gap between
"random mobility" and the worst case the paper's theorems price.

Usage::

    python examples/adversarial_churn.py [leaves]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.algorithms import PushPullBatched
from repro.analysis.progress import SpreadCurve
from repro.core import VectorizedEngine
from repro.graphs import (
    PackingAdversary,
    PeriodicRelabelDynamicGraph,
    StaticDynamicGraph,
    families,
)
from repro.harness.tables import Table


def run_once(dg, n, seed):
    algo = PushPullBatched(np.array([2]))
    engine = VectorizedEngine(dg, algo, seed=seed)
    curve = SpreadCurve()
    curve.record(1)
    for r in range(1, 2_000_000):
        engine.step(r)
        curve.record(int(algo.informed_count(engine.state)[0]))
        if algo.converged(engine.state)[0]:
            return r, curve
    raise RuntimeError("did not complete")


def main() -> None:
    leaves = int(sys.argv[1]) if len(sys.argv) > 1 else 24
    trials = 5
    base = families.double_star(leaves)
    n = base.n

    table = Table(
        title=f"b=0 rumor spreading on a double star (n={n}, Delta={leaves + 1})",
        columns=["churn regime", "median rounds", "spread curve (informed count)"],
        notes=[
            "all three regimes present identical per-round alpha, Delta, tau=1",
            "adaptive = packing adversary observing the informed set each round",
        ],
    )
    regimes = [
        ("static", lambda t: StaticDynamicGraph(base)),
        ("oblivious tau=1", lambda t: PeriodicRelabelDynamicGraph(base, 1, seed=t)),
        ("adaptive tau=1", lambda t: PackingAdversary(base, tau=1)),
    ]
    for name, make_dg in regimes:
        rounds, last_curve = [], None
        for t in range(trials):
            r, curve = run_once(make_dg(t), n, seed=t)
            rounds.append(r)
            last_curve = curve
        table.add_row(name, float(np.median(rounds)), last_curve.spark(width=40))
    print(table.render())


if __name__ == "__main__":
    main()
