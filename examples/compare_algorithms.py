#!/usr/bin/env python
"""Head-to-head: every leader election algorithm on every topology regime.

A one-stop comparison of the paper's three leader election algorithms
(plus the classical-model baseline) across the four topology regimes the
theory distinguishes, reporting both latency (rounds) and radio work
(connections).

Usage::

    python examples/compare_algorithms.py [scale]

``scale`` multiplies the base sizes (default 1).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from repro.algorithms import (
    AsyncBitConvergenceBatched,
    BitConvergenceConfig,
    BitConvergenceBatched,
    BlindGossipBatched,
)
from repro.core import VectorizedEngine, classical_push_pull_leader
from repro.graphs import StaticDynamicGraph, families
from repro.harness.experiments import uid_keys_random
from repro.harness.tables import Table


def main() -> None:
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    trials = 5
    topologies = [
        ("clique (alpha~1)", families.clique(24 * scale)),
        ("regular d=6", families.random_regular(24 * scale, 6, seed=1)),
        ("ring (alpha~1/n)", families.ring(24 * scale)),
        ("double star (Delta~n/2)", families.double_star(11 * scale)),
    ]

    for topo_name, g in topologies:
        n = g.n
        keys = uid_keys_random(n, 7)
        cfg = BitConvergenceConfig(n_upper=n, delta_bound=g.max_degree, beta=1.0)
        algos = {
            "blind gossip (b=0)": lambda ts: BlindGossipBatched(keys),
            "bit convergence (b=1)": lambda ts: BitConvergenceBatched(
                keys, cfg, tag_seed=ts, unique_tags=True
            ),
            "async bit convergence": lambda ts: AsyncBitConvergenceBatched(
                keys, cfg, tag_seed=ts, unique_tags=True
            ),
        }
        table = Table(
            title=f"{topo_name}: n={n}, Delta={g.max_degree}",
            columns=["algorithm", "median rounds", "median connections"],
        )
        for name, make in algos.items():
            rounds, conns = [], []
            for t in range(trials):
                eng = VectorizedEngine(StaticDynamicGraph(g), make(t), seed=t)
                res = eng.run(2_000_000)
                assert res.stabilized, (topo_name, name)
                rounds.append(res.rounds)
                conns.append(eng.connections_made)
            table.add_row(name, float(np.median(rounds)), float(np.median(conns)))
        classical = [
            classical_push_pull_leader(
                StaticDynamicGraph(g), keys, max_rounds=2_000_000, seed=t
            ).rounds
            for t in range(trials)
        ]
        table.add_row(
            "classical baseline (unbounded accepts)",
            float(np.median(classical)),
            float("nan"),
        )
        table.notes.append(
            "classical baseline ignores the one-connection limit; its "
            "connection count is not comparable."
        )
        print(table.render())
        print()


if __name__ == "__main__":
    main()
