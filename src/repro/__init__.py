"""repro: leader election in a smartphone peer-to-peer network.

A from-scratch reproduction of Calvin Newport, *Leader Election in a
Smartphone Peer-to-Peer Network* (IPDPS 2017): the **mobile telephone
model** simulator, the paper's three leader-election algorithms (blind
gossip, bit convergence, non-synchronized bit convergence), its rumor
spreading results (PUSH-PULL at b=0, PPUSH at b=1), and a harness that
regenerates the shape of every theorem in the paper's evaluation.

Quickstart
----------
>>> from repro.graphs import families, StaticDynamicGraph
>>> from repro.algorithms import BlindGossipBatched
>>> from repro.core import VectorizedEngine
>>> from repro.harness.experiments import uid_keys_random
>>> g = families.random_regular(64, 4, seed=1)
>>> keys = uid_keys_random(64, seed=1)
>>> engine = VectorizedEngine(StaticDynamicGraph(g),
...                           BlindGossipBatched(keys), seed=1)
>>> result = engine.run(max_rounds=100_000)
>>> result.stabilized
True

Layout
------
``repro.core``
    The mobile telephone model: round engines (reference + vectorized),
    payload budgets, UID black boxes, the classical-model baseline.
``repro.algorithms``
    Blind gossip, PUSH-PULL, PPUSH, bit convergence, async bit
    convergence — each as a readable per-node protocol and a NumPy kernel.
``repro.graphs``
    Static graph families (including the paper's line-of-stars lower
    bound construction), dynamic graphs with the ``τ`` stability
    contract, and random-waypoint mobility.
``repro.analysis``
    Vertex expansion, cut matchings (Hopcroft-Karp), every closed-form
    bound in the paper, and trial statistics.
``repro.harness``
    Seeded multi-trial running and the per-claim experiment registry.
"""

from repro import algorithms, analysis, core, graphs, harness, util

__version__ = "1.0.0"

__all__ = ["algorithms", "analysis", "core", "graphs", "harness", "util", "__version__"]
