#!/usr/bin/env python
"""Network merge: two isolated meshes discover each other and re-elect.

Section VIII's self-stabilization scenario: two groups (say, two sides of
a collapsed bridge in a disaster zone) each ran leader election for a long
time and settled on their own leaders.  When connectivity is restored, the
combined network must converge to a *single* leader without any restart —
the non-synchronized bit convergence algorithm does this natively.

The example runs both components to convergence in isolation, bridges
them, continues from the exact per-device states, and reports the
re-stabilization time against a fresh-start baseline.

Usage::

    python examples/network_merge.py [component_size]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.algorithms import AsyncBitConvergenceBatched, BitConvergenceConfig
from repro.algorithms.bit_convergence import draw_id_tags
from repro.core import VectorizedEngine
from repro.graphs import StaticDynamicGraph, families
from repro.harness.experiments import uid_keys_random
from repro.harness.tables import Table


def main() -> None:
    comp_n = int(sys.argv[1]) if len(sys.argv) > 1 else 24
    degree = 4
    trials = 5
    n = 2 * comp_n
    config = BitConvergenceConfig(n_upper=n, delta_bound=degree + 1, beta=1.0)

    table = Table(
        title=f"Merging two converged meshes of {comp_n} devices each",
        columns=["trial", "comp A rounds", "comp B rounds", "merge rounds", "fresh union rounds"],
        notes=[
            "merge continues from the devices' converged states (no restart);",
            "Section VIII: the merged network re-stabilizes in ordinary "
            "stabilization time — same order as a fresh start.",
        ],
    )

    for t in range(trials):
        keys = uid_keys_random(n, 50 + t)
        tags = draw_id_tags(n, config, 60 + t, unique=True)
        g1 = families.random_regular(comp_n, degree, seed=70 + t)
        g2 = families.random_regular(comp_n, degree, seed=80 + t)

        comp_rounds = []
        states = []
        for comp, g, sl in ((0, g1, slice(0, comp_n)), (1, g2, slice(comp_n, n))):
            algo = AsyncBitConvergenceBatched(
                keys[sl], config, initial_pairs=(tags[sl], keys[sl])
            )
            eng = VectorizedEngine(StaticDynamicGraph(g), algo, seed=90 + 2 * t + comp)
            res = eng.run(1_000_000)
            assert res.stabilized
            comp_rounds.append(res.rounds)
            states.append((eng.state.ctag[0].copy(), eng.state.ckey[0].copy()))

        union = g1.union(g2, [(0, 0), (comp_n // 2, comp_n // 2)])
        init = (
            np.concatenate([states[0][0], states[1][0]]),
            np.concatenate([states[0][1], states[1][1]]),
        )
        algo = AsyncBitConvergenceBatched(keys, config, initial_pairs=init)
        eng = VectorizedEngine(StaticDynamicGraph(union), algo, seed=200 + t)
        merged = eng.run(1_000_000)
        assert merged.stabilized

        fresh_algo = AsyncBitConvergenceBatched(
            keys, config, initial_pairs=(tags, keys)
        )
        fresh_eng = VectorizedEngine(StaticDynamicGraph(union), fresh_algo, seed=300 + t)
        fresh = fresh_eng.run(1_000_000)
        assert fresh.stabilized

        table.add_row(t, comp_rounds[0], comp_rounds[1], merged.rounds, fresh.rounds)

    print(table.render())


if __name__ == "__main__":
    main()
