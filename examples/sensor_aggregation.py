#!/usr/bin/env python
"""Sensor aggregation: computing a crowd average over phone-to-phone links.

The paper's conclusion proposes data aggregation as a problem the mobile
telephone model opens. Scenario: phones in a disaster zone each measure a
local reading (temperature, signal strength, headcount estimate) and the
mesh must agree on the average with no infrastructure.

Pairwise averaging gossip fits the single-connection model natively: each
round, connected pairs replace their values with the mean. The global sum
is conserved, so every node converges to the true average; the topology's
expansion sets the speed. This example runs the aggregation over group
mobility (clusters of people moving together) and prints the error decay.

Usage::

    python examples/sensor_aggregation.py [n]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.algorithms import AveragingBatched
from repro.analysis.progress import sparkline
from repro.core import VectorizedEngine
from repro.graphs.mobility import GroupWaypointDynamicGraph
from repro.harness.tables import Table
from repro.util.rng import make_rng


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    tau = 6
    trials = 5
    eps = 1e-3

    table = Table(
        title=f"Averaging {n} sensor readings over group mobility (tau={tau})",
        columns=["groups", "median rounds", "final error", "error decay (log scale)"],
        notes=[
            "error = max |value - true mean|; readings ~ N(20, 5) degrees",
            "fewer groups = denser local clusters but sparser global contact",
        ],
    )
    for groups in (1, 2, 4, 8):
        rounds, final_err, last_curve = [], [], None
        for t in range(trials):
            readings = make_rng(100 + t, "readings").normal(20.0, 5.0, size=n)
            dg = GroupWaypointDynamicGraph(
                n, tau=tau, groups=groups, radius=0.3, speed=0.06, seed=200 + t
            )
            algo = AveragingBatched(readings, eps=eps)
            engine = VectorizedEngine(dg, algo, seed=t)
            errors = []
            for r in range(1, 2_000_000):
                engine.step(r)
                errors.append(float(algo.max_deviation(engine.state)[0]))
                if algo.converged(engine.state)[0]:
                    break
            rounds.append(r)
            final_err.append(errors[-1])
            last_curve = errors
        log_errs = np.log10(np.maximum(last_curve, 1e-12))
        table.add_row(
            groups,
            float(np.median(rounds)),
            float(np.median(final_err)),
            sparkline(log_errs, width=40),
        )
    print(table.render())


if __name__ == "__main__":
    main()
