#!/usr/bin/env python
"""Festival mesh: leader election over a mobile crowd with no infrastructure.

The paper's motivating scenario: phones at a festival (or protest, or
disaster zone) form direct peer-to-peer links with whoever is in radio
range.  People move, so the topology churns; the crowd needs to agree on a
coordinator (e.g. to anchor message ordering for a mesh chat).

This example uses the random-waypoint mobility model: devices wander a
unit square, connect within a radio radius, and the unit-disk topology is
re-sampled every τ rounds.  We sweep the crowd's movement speed and watch
how stabilization time responds, and confirm that every run agrees on the
same single leader.

Usage::

    python examples/festival_mesh.py [n]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.algorithms import AsyncBitConvergenceBatched, BitConvergenceConfig
from repro.core import VectorizedEngine
from repro.graphs import RandomWaypointDynamicGraph
from repro.harness.experiments import uid_keys_random
from repro.harness.tables import Table


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 48
    tau = 8              # topology holds for 8 rounds between re-scans
    radius = 0.35        # radio range as a fraction of the festival grounds
    trials = 5

    # Phones join the mesh as people arrive: activations are staggered.
    config = BitConvergenceConfig(n_upper=n, delta_bound=n - 1, beta=1.0)
    keys = uid_keys_random(n, 11)

    table = Table(
        title=f"Festival mesh: {n} phones, radio radius {radius}, tau={tau}",
        columns=[
            "speed (area/epoch)",
            "median rounds",
            "median rounds after last join",
            "agreed on one leader",
        ],
        notes=[
            "async bit convergence (Section VIII): no synchronized starts, "
            "self-stabilizing, b = loglog(n)+O(1) advertising bits",
        ],
    )

    for speed in (0.0, 0.02, 0.05, 0.15):
        rounds, rounds_after = [], []
        agreed = True
        for t in range(trials):
            mobility = RandomWaypointDynamicGraph(
                n, tau=tau, radius=radius, speed=speed, seed=100 + t
            )
            rng = np.random.default_rng(200 + t)
            activations = rng.integers(1, 41, size=n)  # arrivals over 40 rounds
            activations[rng.integers(0, n)] = 1
            algo = AsyncBitConvergenceBatched(
                keys, config, tag_seed=300 + t, unique_tags=True
            )
            engine = VectorizedEngine(
                mobility, algo, seed=t, activation_rounds=activations
            )
            res = engine.run(2_000_000)
            assert res.stabilized, "mesh failed to elect a leader"
            rounds.append(res.rounds)
            rounds_after.append(res.rounds_after_last_activation)
            agreed &= bool(
                (algo.leaders(engine.state)[0] == engine.state.target_key[0]).all()
            )
        table.add_row(
            f"{speed:g}",
            float(np.median(rounds)),
            float(np.median(rounds_after)),
            agreed,
        )
    print(table.render())


if __name__ == "__main__":
    main()
