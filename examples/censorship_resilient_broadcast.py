#!/usr/bin/env python
"""Censorship-resilient broadcast: spreading a message without infrastructure.

The paper cites the Hong Kong protest use of phone-to-phone chat: a
message must reach everyone using only direct device links.  This example
compares the paper's rumor spreading strategies on a crowd topology with
an adversarially placed source (the far end of a line of dense clusters —
the paper's own hard instance):

* b=0 PUSH-PULL (no advertising bits — Corollary VI.6), and
* b=1 PPUSH (one advertising bit — Theorem V.2 machinery),

plus the classical telephone model baseline, which is what the same
strategy would cost if phones could accept unlimited simultaneous
connections (they cannot — that is the point of the mobile model).

Usage::

    python examples/censorship_resilient_broadcast.py [clusters]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.algorithms import PPushBatched, PushPullBatched
from repro.core import VectorizedEngine, classical_push_pull_rumor
from repro.graphs import StaticDynamicGraph, families
from repro.harness.tables import Table


def main() -> None:
    clusters = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    trials = 7

    table = Table(
        title="Broadcast to a chain of crowds (line of stars), source at one end",
        columns=[
            "cluster size",
            "n",
            "Delta",
            "classical model",
            "mobile b=0 (PUSH-PULL)",
            "mobile b=1 (PPUSH)",
        ],
        notes=[
            "rounds until every device knows the message (median of trials)",
            "the b=0/b=1 gap is the paper's headline: one advertising bit "
            "turns Delta^2 hub crossings into focused, near-constant ones",
        ],
    )

    for size in (clusters, clusters + 2, clusters + 4):
        g = families.line_of_stars(size, size)
        dg = StaticDynamicGraph(g)
        n, delta = g.n, g.max_degree
        source = np.array([g.n - 1])  # a point of the last star: worst case

        classical = [
            classical_push_pull_rumor(dg, int(source[0]), max_rounds=10**6, seed=t).rounds
            for t in range(trials)
        ]
        b0 = []
        b1 = []
        for t in range(trials):
            eng = VectorizedEngine(dg, PushPullBatched(source), seed=t)
            res = eng.run(10**6)
            assert res.stabilized
            b0.append(res.rounds)
            eng = VectorizedEngine(dg, PPushBatched(source), seed=t)
            res = eng.run(10**6)
            assert res.stabilized
            b1.append(res.rounds)
        table.add_row(
            size,
            n,
            delta,
            float(np.median(classical)),
            float(np.median(b0)),
            float(np.median(b1)),
        )
    print(table.render())


if __name__ == "__main__":
    main()
