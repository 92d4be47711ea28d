"""Every engine tier against the exact small-n law of the model.

Each oracle test draws stabilization rounds from one engine tier at fixed
seeds and compares them with the exact law of ``exact_law.py`` by a χ²
test at significance :data:`ALPHA`: over random seeds a correct engine
fails each test with probability ``ALPHA``.  EXPERIMENTS.md tabulates
every test with its tier, graph and trial count.  The mutation tests
inject a known semantic fault into the batched tier and require the same
test to reject it.
"""

from __future__ import annotations

from functools import cache

import numpy as np
import pytest

from exact_law import (
    blind_round_law,
    chi_square_pvalue,
    k_gossip_law,
    matching_pvalue,
    ppush_law,
    push_pull_law,
)
from repro.algorithms.averaging import AveragingBatched
from repro.algorithms.blind_gossip import BlindGossipBatched, make_blind_gossip_nodes
from repro.algorithms.k_gossip import KGossipBatched
from repro.algorithms.ppush import PPushBatched, make_ppush_nodes
from repro.algorithms.push_pull import PushPullBatched, make_push_pull_nodes
from repro.core import batched
from repro.core.batched import BatchedVectorizedEngine
from repro.core.engine import ReferenceEngine
from repro.core.monitor import all_leaders_are, rumor_complete
from repro.core.payload import UIDSpace
from repro.core.vectorized import VectorizedEngine
from repro.graphs import families
from repro.graphs.dynamic import StaticDynamicGraph

#: Significance level of every oracle test (its false-fail rate).
ALPHA = 1e-3
#: Trials per tier: the single-trial tiers pay per trial, the batched tier
#: runs all of them as one batch.
TRIALS = {"reference": 200, "vectorized": 200, "batched": 3000}
#: Trials of the forced-sparse and k-gossip tests, whose single-engine
#: rounds cost more: the batched tier keeps its power.
COSTLY_TRIALS = {"vectorized": 100, "batched": 3000}
MAX_ROUNDS = 100_000
TIERS = ("reference", "vectorized", "batched")

#: Blind gossip graphs with the UIDSpace seed that places the minimum UID.
BLIND_CASES = {
    "star5": (families.star(5), 1),
    "path5": (families.path(5), 0),
    "clique6": (families.clique(6), 0),
    "path5_end": (families.path(5), 3),
    "lollipop3_2_end": (families.lollipop(3, 2), 5),
    "ring6": (families.ring(6), 0),
}
#: Default-mode cases, run on every tier.
DENSE_BLIND = ("star5", "path5", "clique6")
#: Forced-sparse cases: diameter > 2 and the minimum UID at the rim, so
#: the undone set's 2-hop closure leaves done nodes out.
SPARSE_BLIND = ("path5_end", "lollipop3_2_end", "ring6")
#: PUSH-PULL graphs with their source vertex.
PUSH_PULL_CASES = {
    "star5": (families.star(5), 0),
    "ring5": (families.ring(5), 0),
    "bipartite2_3": (families.complete_bipartite(2, 3), 2),
}
#: PPUSH graphs with their source vertex; every law here is random (on a
#: path or from a star's leaf PPUSH takes a fixed number of rounds).
PPUSH_CASES = {
    "clique5": (families.clique(5), 0),
    "double_star2": (families.double_star(2), 2),
    "lollipop4_2": (families.lollipop(4, 2), 5),
}
#: k-gossip graphs (n <= 4: the knowledge chain has up to 2^12 states).
K_GOSSIP_CASES = {
    "clique3": families.clique(3),
    "path3": families.path(3),
    "ring4": families.ring(4),
}


@cache
def blind_law(case: str) -> np.ndarray:
    """Exact law of a blind gossip case (clique6's takes ~0.2 s: built once)."""
    graph, uid_seed = BLIND_CASES[case]
    return push_pull_law(graph, [UIDSpace(graph.n, seed=uid_seed).winner_vertex()])


def _uid_keys(us: UIDSpace) -> np.ndarray:
    return np.array([us.uid_of(v)._key for v in range(len(us))], dtype=np.int64)


def sample_rounds(
    tier, graph, kernel, nodes=None, stop=None, *, sparse=None, trials=TRIALS
):
    """Stabilization rounds of ``trials[tier]`` trials at seeds ``0, 1, …``.

    ``kernel()`` builds the array algorithm; the reference tier runs
    ``nodes()`` until ``stop``.  Under ``sparse="force"`` an array engine
    must engage sparse rounds exactly when the kernel is sparse-compatible.
    """
    dg = StaticDynamicGraph(graph)
    trials = trials[tier]

    def array_engine(algo, **seeds):
        cls = BatchedVectorizedEngine if tier == "batched" else VectorizedEngine
        eng = cls(dg, algo, sparse=sparse, **seeds)
        if sparse == "force":
            assert (eng._sparse_limit is not None) == algo.sparse_compatible
        return eng

    if tier == "batched":
        res = array_engine(kernel(), seeds=np.arange(trials)).run(MAX_ROUNDS)
        assert res.stabilized.all()
        return res.rounds
    rounds = []
    for seed in range(trials):
        if tier == "reference":
            res = ReferenceEngine(dg, nodes(), seed=seed).run(MAX_ROUNDS, stop)
        else:
            res = array_engine(kernel(), seed=seed).run(MAX_ROUNDS)
        assert res.stabilized
        rounds.append(res.rounds)
    return np.asarray(rounds)


def blind_gossip_sample(tier, graph, uid_seed, *, sparse=None, trials=TRIALS):
    us = UIDSpace(graph.n, seed=uid_seed)
    return sample_rounds(
        tier,
        graph,
        lambda: BlindGossipBatched(_uid_keys(us)),
        lambda: make_blind_gossip_nodes(us),
        all_leaders_are(us.min_uid()),
        sparse=sparse,
        trials=trials,
    )


class TestBlindGossip:
    @pytest.mark.parametrize("case", DENSE_BLIND)
    @pytest.mark.parametrize("tier", TIERS)
    def test_matches_exact_law(self, tier, case):
        graph, uid_seed = BLIND_CASES[case]
        sample = blind_gossip_sample(tier, graph, uid_seed)
        assert chi_square_pvalue(sample, blind_law(case)) > ALPHA

    @pytest.mark.parametrize("case", SPARSE_BLIND)
    @pytest.mark.parametrize("tier", ("vectorized", "batched"))
    def test_forced_sparse_rounds_match_exact_law(self, tier, case):
        """Every round runs on the undone set's 2-hop closure."""
        graph, uid_seed = BLIND_CASES[case]
        sample = blind_gossip_sample(
            tier, graph, uid_seed, sparse="force", trials=COSTLY_TRIALS
        )
        assert chi_square_pvalue(sample, blind_law(case)) > ALPHA


class TestPushPull:
    @pytest.mark.parametrize("case", PUSH_PULL_CASES)
    @pytest.mark.parametrize("tier", TIERS)
    def test_matches_exact_law(self, tier, case):
        graph, source = PUSH_PULL_CASES[case]
        sample = sample_rounds(
            tier,
            graph,
            lambda: PushPullBatched(np.array([source])),
            lambda: make_push_pull_nodes(UIDSpace(graph.n, seed=0), {source}),
            rumor_complete,
        )
        assert chi_square_pvalue(sample, push_pull_law(graph, [source])) > ALPHA

    @pytest.mark.parametrize("case", PUSH_PULL_CASES)
    @pytest.mark.parametrize("tier", ("vectorized", "batched"))
    def test_forced_sparse_mode_matches_exact_law(self, tier, case):
        """PUSH-PULL is not sparse-compatible: forcing sparse rounds must
        fall back to dense rounds with the same law."""
        graph, source = PUSH_PULL_CASES[case]
        sample = sample_rounds(
            tier,
            graph,
            lambda: PushPullBatched(np.array([source])),
            sparse="force",
            trials=COSTLY_TRIALS,
        )
        assert chi_square_pvalue(sample, push_pull_law(graph, [source])) > ALPHA


class TestPPush:
    @pytest.mark.parametrize("case", PPUSH_CASES)
    @pytest.mark.parametrize("tier", TIERS)
    def test_matches_exact_law(self, tier, case):
        graph, source = PPUSH_CASES[case]
        sample = sample_rounds(
            tier,
            graph,
            lambda: PPushBatched(np.array([source])),
            lambda: make_ppush_nodes(UIDSpace(graph.n, seed=0), {source}),
            rumor_complete,
        )
        assert chi_square_pvalue(sample, ppush_law(graph, [source])) > ALPHA


class TestKGossip:
    @pytest.mark.parametrize("case", K_GOSSIP_CASES)
    @pytest.mark.parametrize("tier", ("vectorized", "batched"))
    def test_matches_exact_law(self, tier, case):
        graph = K_GOSSIP_CASES[case]
        sample = sample_rounds(tier, graph, KGossipBatched, trials=COSTLY_TRIALS)
        assert chi_square_pvalue(sample, k_gossip_law(graph)) > ALPHA


class TestAveraging:
    """Averaging runs blind gossip's round: its matchings must follow the
    exact round law, and each connected pair must end the round holding
    its pairwise mean while every other value stays put."""

    REPLICAS, ROUNDS = 500, 8

    @pytest.mark.parametrize(
        "graph",
        [families.star(5), families.path(5), families.double_star(2)],
        ids=["star5", "path5", "double_star2"],
    )
    def test_round_matching_law_and_pairwise_mean(self, graph):
        values = np.random.default_rng(0).random(graph.n)
        eng = BatchedVectorizedEngine(
            StaticDynamicGraph(graph),
            AveragingBatched(values),
            seeds=np.arange(self.REPLICAS),
            collect_trace=True,
        )
        counts: dict = {}
        for r in range(1, self.ROUNDS + 1):
            before = eng.state.values.copy()
            eng.step(r)
            after = eng.state.values
            expect = before.copy()
            pairs = eng.trace.connections[-1]
            reps = eng.trace.connection_reps[-1]
            mean = (before[reps, pairs[:, 0]] + before[reps, pairs[:, 1]]) / 2
            expect[reps, pairs[:, 0]] = mean
            expect[reps, pairs[:, 1]] = mean
            assert np.array_equal(after, expect)
            for t in range(self.REPLICAS):
                m = tuple(sorted(map(tuple, pairs[reps == t].tolist())))
                counts[m] = counts.get(m, 0) + 1
        assert matching_pvalue(counts, blind_round_law(graph)) > ALPHA


class TestMutantsAreRejected:
    """Each known semantic fault, injected into the batched tier, must fail
    the blind-gossip oracle test at :data:`ALPHA`: three faults of the
    round, and a sparse round that drops the closure's second hop."""

    @staticmethod
    def pvalue(case, sparse=None):
        graph, uid_seed = BLIND_CASES[case]
        sample = blind_gossip_sample("batched", graph, uid_seed, sparse=sparse)
        return chi_square_pvalue(sample, blind_law(case))

    def test_receiver_accepts_highest_id_proposer(self, monkeypatch):
        def accept_highest(senders, targets, rng):
            order = np.lexsort((senders, targets))
            senders, targets = senders[order], targets[order]
            last = np.append(targets[1:] != targets[:-1], True)[: targets.size]
            return targets[last], senders[last]

        monkeypatch.setattr(batched, "segmented_uniform_accept_pairs", accept_highest)
        assert self.pvalue("star5") < ALPHA

    def test_proposer_can_also_receive(self, monkeypatch):
        def connect_all(proposed, proposers, targets, rng):
            return batched.segmented_uniform_accept_pairs(proposers, targets, rng)

        monkeypatch.setattr(batched, "connect", connect_all)
        assert self.pvalue("path5") < ALPHA

    def test_non_uniform_neighbour_pick(self, monkeypatch):
        def pick_low(self, graph, sflat):
            # The unmasked pick with its uniform offsets squared toward
            # each sender's first neighbour (every vertex here has one).
            rows = self._row_of[sflat]
            d = self._degrees(graph)[rows]
            offsets = (self._rng.random(d.size) ** 2 * d).astype(np.int64)
            return sflat, (sflat - rows) + graph.indices[graph.indptr[rows] + offsets]

        monkeypatch.setattr(BatchedVectorizedEngine, "_pick_shared", pick_low)
        assert self.pvalue("star5") < ALPHA

    def test_sparse_round_without_second_hop(self, monkeypatch):
        def one_hop(self, dg, r, limit):
            # Sender coins for U ∪ N(U) only: rival proposers two hops
            # from the undone set never compete.
            if not self.build():
                return None
            graph = dg.graph_at(r)
            return graph, self._hop(graph, self.idx, limit)

        monkeypatch.setattr(batched.SparseFrontier, "closure", one_hop)
        assert self.pvalue("path5_end", sparse="force") < ALPHA
