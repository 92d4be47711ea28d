#!/usr/bin/env python
"""Quickstart: elect a leader in a simulated smartphone peer-to-peer network.

Runs all three of the paper's leader election algorithms on the same
topology and prints rounds-to-stabilization side by side, then shows the
same election under maximum topology churn (τ = 1).

Usage::

    python examples/quickstart.py [n] [degree]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.algorithms import (
    AsyncBitConvergenceBatched,
    BitConvergenceConfig,
    BitConvergenceBatched,
    BlindGossipBatched,
)
from repro.core import VectorizedEngine
from repro.graphs import PeriodicRelabelDynamicGraph, StaticDynamicGraph, families
from repro.harness.experiments import uid_keys_random
from repro.harness.tables import Table


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    degree = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    seed = 7

    topology = families.random_regular(n, degree, seed=seed)
    keys = uid_keys_random(n, seed)  # opaque UID keys, one per device
    config = BitConvergenceConfig(n_upper=n, delta_bound=degree, beta=1.0)

    def algorithms(trial_seed: int):
        return [
            ("blind gossip (b=0)", BlindGossipBatched(keys)),
            (
                "bit convergence (b=1)",
                BitConvergenceBatched(
                    keys, config, tag_seed=trial_seed, unique_tags=True
                ),
            ),
            (
                "async bit convergence (b=loglog n)",
                AsyncBitConvergenceBatched(
                    keys, config, tag_seed=trial_seed, unique_tags=True
                ),
            ),
        ]

    table = Table(
        title=f"Leader election on a {degree}-regular network of {n} devices",
        columns=["algorithm", "static rounds", "tau=1 churn rounds"],
        notes=["median over 5 trials; every run elects the same leader"],
    )
    for name, _ in algorithms(0):
        static_rounds, churn_rounds = [], []
        for t in range(5):
            algo = dict(algorithms(t))[name]
            eng = VectorizedEngine(StaticDynamicGraph(topology), algo, seed=t)
            res = eng.run(500_000)
            assert res.stabilized, f"{name} did not stabilize"
            static_rounds.append(res.rounds)

            algo = dict(algorithms(t))[name]
            eng = VectorizedEngine(
                PeriodicRelabelDynamicGraph(topology, 1, seed=t), algo, seed=t
            )
            res = eng.run(500_000)
            assert res.stabilized
            churn_rounds.append(res.rounds)
        table.add_row(
            name, float(np.median(static_rounds)), float(np.median(churn_rounds))
        )
    print(table.render())


if __name__ == "__main__":
    main()
