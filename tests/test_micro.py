"""Tests validating engine micro-dynamics against exact probabilities.

The closed forms in repro.analysis.micro are checked three ways: against
brute-force enumeration of the probability model itself, against the
exact round law of ``exact_law.py`` at the sizes it enumerates, and
against measured connection frequencies from live engine runs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from exact_law import blind_round_law, neighbours
from repro.analysis.micro import (
    blind_pair_good_probability,
    double_star_crossing_probability,
    expected_inverse_one_plus_binomial,
    star_hub_accept_probability,
)
from repro.core.vectorized import VectorizedEngine
from repro.graphs import families
from repro.graphs.dynamic import StaticDynamicGraph
from repro.harness.experiments import uid_keys_random


class TestInverseBinomialIdentity:
    @pytest.mark.parametrize("k,p", [(0, 0.5), (3, 0.5), (7, 0.25), (12, 0.9)])
    def test_matches_direct_sum(self, k, p):
        direct = sum(
            math.comb(k, j) * p**j * (1 - p) ** (k - j) / (1 + j)
            for j in range(k + 1)
        )
        assert expected_inverse_one_plus_binomial(k, p) == pytest.approx(direct)

    def test_p_zero(self):
        assert expected_inverse_one_plus_binomial(5, 0.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_inverse_one_plus_binomial(-1, 0.5)
        with pytest.raises(ValueError):
            expected_inverse_one_plus_binomial(3, 1.5)


class TestClosedFormsSanity:
    def test_double_star_scaling(self):
        # P ~ 2/Delta^2: quadrupling the leaf count divides the
        # probability by ~16 (the exact ratio ((33*17)/(9*5)) ~ 12.5-13.5
        # at finite size).
        p8 = double_star_crossing_probability(8)
        p32 = double_star_crossing_probability(32)
        assert 10.0 < p8 / p32 < 16.0

    def test_pair_good_probability_matches_paper_floor(self):
        # Exact value 1/(4 deg_u deg_v) >= the paper's 1/(4 Delta^2) floor.
        assert blind_pair_good_probability(4, 8) == pytest.approx(1 / 128)
        delta = 8
        assert blind_pair_good_probability(3, 8) >= 1 / (4 * delta**2)


def connect_probability(law, pairs) -> float:
    """P(one of the directed ``(proposer, acceptor)`` pairs connects)."""
    return sum(q for m, q in law.items() if any(c in pairs for c in m))


class TestClosedFormsMatchExactRoundLaw:
    """Each closed form is a one-round marginal of the exact round law."""

    @pytest.mark.parametrize("leaves", [1, 2, 3, 4])
    def test_star_hub_accept(self, leaves):
        law = blind_round_law(families.star(leaves + 1))
        assert connect_probability(law, {(1, 0)}) == pytest.approx(
            star_hub_accept_probability(leaves), abs=1e-12
        )

    @pytest.mark.parametrize("leaves", [1, 2])
    def test_double_star_crossing(self, leaves):
        law = blind_round_law(families.double_star(leaves))
        assert connect_probability(law, {(0, 1), (1, 0)}) == pytest.approx(
            double_star_crossing_probability(leaves), abs=1e-12
        )

    @pytest.mark.parametrize(
        "graph",
        [families.star(4), families.path(5), families.double_star(2)],
        ids=["star4", "path5", "double_star2"],
    )
    def test_pair_good_is_the_exact_floor(self, graph):
        """Every directed edge connects at least as often as it is *good*,
        and exactly as often when the acceptor has no other neighbour."""
        law = blind_round_law(graph)
        nbrs = neighbours(graph)
        for u in range(graph.n):
            for v in nbrs[u]:
                p = connect_probability(law, {(u, v)})
                good = blind_pair_good_probability(len(nbrs[u]), len(nbrs[v]))
                if len(nbrs[v]) == 1:
                    assert p == pytest.approx(good, abs=1e-12)
                else:
                    assert p > good


class TestEngineMatchesClosedForm:
    """Measured per-round frequencies vs exact formulas (fixed seeds)."""

    def _measure_connection_rate(self, graph, edge, rounds, seed, *, directed=False):
        """Per-round frequency of ``edge`` connecting.

        ``directed=True`` counts only connections where ``edge[0]`` is the
        proposer and ``edge[1]`` the acceptor.
        """
        from repro.algorithms.blind_gossip import BlindGossipBatched

        keys = uid_keys_random(graph.n, seed)
        eng = VectorizedEngine(
            StaticDynamicGraph(graph), BlindGossipBatched(keys), seed=seed
        )
        hits = 0
        a, b = edge

        def on_conn(r, winners, acceptors):
            nonlocal hits
            for s, t in zip(winners, acceptors):
                if directed:
                    hits += int(s) == a and int(t) == b
                else:
                    hits += {int(s), int(t)} == {a, b}

        eng.on_connections = on_conn
        for r in range(1, rounds + 1):
            eng.step(r)
        return hits / rounds

    def test_double_star_crossing_rate(self):
        leaves = 6
        g = families.double_star(leaves)
        exact = double_star_crossing_probability(leaves)
        measured = self._measure_connection_rate(g, (0, 1), rounds=40_000, seed=0)
        # 40k rounds, p ~ 0.01: ~400 expected hits; 3-sigma ~ 15%.
        assert measured == pytest.approx(exact, rel=0.2)

    def test_star_leaf_hub_rate(self):
        # The formula is the *directed* leaf-proposes / hub-accepts event;
        # the edge can also connect hub->leaf, so count directionally.
        leaves = 5
        g = families.star(leaves + 1)
        exact = star_hub_accept_probability(leaves)
        measured = self._measure_connection_rate(
            g, (1, 0), rounds=30_000, seed=1, directed=True
        )
        assert measured == pytest.approx(exact, rel=0.1)

    def test_reference_engine_double_star_crossing_rate(self):
        """The same exact formula also validates the reference engine."""
        from repro.algorithms.blind_gossip import make_blind_gossip_nodes
        from repro.core.engine import ReferenceEngine
        from repro.core.payload import UIDSpace

        leaves = 4
        g = families.double_star(leaves)
        us = UIDSpace(g.n, seed=0)
        nodes = make_blind_gossip_nodes(us)
        eng = ReferenceEngine(StaticDynamicGraph(g), nodes, seed=2, collect_trace=True)
        rounds = 8_000
        eng.run(rounds, lambda ps: False)
        hits = sum(
            1
            for rec in eng.trace.rounds
            for s, t in rec.connections
            if {int(s), int(t)} == {0, 1}
        )
        exact = double_star_crossing_probability(leaves)
        assert hits / rounds == pytest.approx(exact, rel=0.25)
