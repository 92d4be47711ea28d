"""Exact law of one mobile-telephone round, and of the small-n chains it drives.

Test-only reference (only tests import it, like ``csrops_loop_reference.py``).
The paper fixes the round (Sections II, V and VI): each node sends with its
own probability, a sender proposes to one of its eligible neighbours
uniformly, a node that proposed cannot receive, and a receiver accepts one
of its arrivals uniformly.  For ``n <= 6`` that law is enumerated outright
(:func:`round_law`), and the chain it drives -- the informed set of blind
gossip, PUSH-PULL and PPUSH, or the knowledge matrix of k-gossip -- is
iterated exactly to the law of its stabilization round
(:func:`hitting_law`).  :func:`chi_square_pvalue` compares an engine's
sample of stabilization rounds with that law.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from functools import cache
from typing import Callable, Hashable, Sequence

import numpy as np
from scipy import sparse, stats

#: A round's connections: sorted ``(proposer, acceptor)`` pairs.
Matching = tuple[tuple[int, int], ...]
#: :func:`hitting_law` stops once less mass than this is still undone.
TAIL_MASS = 1e-12
#: ... or after this many rounds (a chain that cannot finish).
MAX_ROUNDS = 100_000
#: χ² bins are pooled until each expects at least this many samples.
MIN_EXPECTED = 5.0


def neighbours(graph) -> list[tuple[int, ...]]:
    """Each vertex's neighbours, ascending."""
    indptr, indices = graph.indptr, graph.indices.tolist()
    return [tuple(indices[indptr[u] : indptr[u + 1]]) for u in range(graph.n)]


def round_law(
    send_prob: Sequence[float], eligible: Sequence[Sequence[int]]
) -> dict[Matching, float]:
    """Law of one round's connections.

    Node ``u`` sends with probability ``send_prob[u]`` and proposes to a
    uniform member of ``eligible[u]``; a sender without eligible targets
    makes no proposal and may receive.  A node that proposed cannot
    receive, and every other target accepts one of its arrivals uniformly.
    """
    choices = []
    for p, targets in zip(send_prob, eligible):
        if p == 0.0 or not targets:
            choices.append([(None, 1.0)])
            continue
        options = [(t, p / len(targets)) for t in targets]
        if p < 1.0:
            options.append((None, 1.0 - p))
        choices.append(options)
    law: dict[Matching, float] = defaultdict(float)
    for profile in itertools.product(*choices):
        prob = math.prod(q for _, q in profile)
        incoming: dict[int, list[int]] = defaultdict(list)
        for u, (t, _) in enumerate(profile):
            if t is not None and profile[t][0] is None:
                incoming[t].append(u)
        receivers = sorted(incoming)
        share = prob / math.prod(len(incoming[v]) for v in receivers)
        for winners in itertools.product(*(incoming[v] for v in receivers)):
            law[tuple(sorted(zip(winners, receivers)))] += share
    return dict(law)


def blind_round_law(graph) -> dict[Matching, float]:
    """The b = 0 round: a fair send coin and a uniform neighbour pick."""
    nbrs = neighbours(graph)
    return round_law([0.5] * graph.n, nbrs)


def hitting_law(
    start: Hashable,
    transitions: Callable[[Hashable], dict[Hashable, float]],
    done: Callable[[Hashable], bool],
) -> np.ndarray:
    """``pmf[r]`` = P(the chain is first ``done`` after round ``r``).

    Enumerates the states reachable from ``start``, builds the transient
    block of the transition matrix once and iterates it with NumPy until
    less than :data:`TAIL_MASS` of the mass is left undone.
    """
    if done(start):
        return np.array([1.0])
    index = {start: 0}
    order = [start]
    rows, cols, vals = [], [], []
    absorb = []
    # ``order`` grows while it is walked: every reachable state gets a row.
    for i, state in enumerate(order):
        exit_mass = 0.0
        for nxt, p in transitions(state).items():
            if done(nxt):
                exit_mass += p
                continue
            j = index.setdefault(nxt, len(order))
            if j == len(order):
                order.append(nxt)
            rows.append(i)
            cols.append(j)
            vals.append(p)
        absorb.append(exit_mass)
    k = len(order)
    q = sparse.csr_matrix((vals, (rows, cols)), shape=(k, k)).T.tocsr()
    a = np.asarray(absorb)
    v = np.zeros(k)
    v[0] = 1.0
    pmf = [0.0]
    while v.sum() > TAIL_MASS and len(pmf) <= MAX_ROUNDS:
        pmf.append(float(a @ v))
        v = q @ v
    return np.asarray(pmf)


def spread(
    state: int, matching: Matching, *, push: bool = True, pull: bool = True
) -> int:
    """Informed bitmask after one round's connections (pre-round reads)."""
    nxt = state
    for p, a in matching:
        if push and state >> p & 1:
            nxt |= 1 << a
        if pull and state >> a & 1:
            nxt |= 1 << p
    return nxt


def _informed_law(n: int, sources: Sequence[int], step) -> np.ndarray:
    """Law of the first round after which all ``n`` nodes are informed."""
    full = (1 << n) - 1
    return hitting_law(sum(1 << s for s in set(sources)), step, lambda s: s == full)


def push_pull_law(graph, sources: Sequence[int]) -> np.ndarray:
    """Completion law of b = 0 PUSH-PULL from the informed ``sources``.

    It is also blind gossip's stabilization law with the minimum UID at
    the one source: both endpoints keep the smaller UID, so the holders of
    the minimum are PUSH-PULL's informed set.
    """
    law = blind_round_law(graph)

    def step(state: int) -> dict[int, float]:
        out: dict[int, float] = defaultdict(float)
        for m, q in law.items():
            out[spread(state, m)] += q
        return out

    return _informed_law(graph.n, sources, step)


def ppush_law(graph, sources: Sequence[int]) -> np.ndarray:
    """Completion law of PPUSH: informed nodes always send, and only to
    uninformed neighbours; uninformed nodes only receive."""
    nbrs = neighbours(graph)

    def step(state: int) -> dict[int, float]:
        informed = [bool(state >> u & 1) for u in range(graph.n)]
        eligible = [
            tuple(v for v in nbrs[u] if not informed[v]) if informed[u] else ()
            for u in range(graph.n)
        ]
        out: dict[int, float] = defaultdict(float)
        for m, q in round_law([float(i) for i in informed], eligible).items():
            out[spread(state, m, pull=False)] += q
        return out

    return _informed_law(graph.n, sources, step)


@cache
def _receive(row: int, other: int) -> tuple[tuple[int, float], ...]:
    """A knowledge row's law after one uniform rumor from ``other``'s row."""
    out: dict[int, float] = defaultdict(float)
    share = 1.0 / bin(other).count("1")
    for r in range(other.bit_length()):
        if other >> r & 1:
            out[row | 1 << r] += share
    return tuple(out.items())


def k_gossip_law(graph) -> np.ndarray:
    """Completion law of k-gossip: every node starts with its own rumor, and
    each connection carries one uniform known rumor per direction.

    A state is the tuple of knowledge rows (bit ``r`` of row ``u``: node
    ``u`` knows rumor ``r``); matched rows change independently.
    """
    n = graph.n
    law = blind_round_law(graph)
    full = (1 << n) - 1

    def step(rows: tuple[int, ...]) -> dict[tuple[int, ...], float]:
        out: dict[tuple[int, ...], float] = defaultdict(float)
        for m, q in law.items():
            ends = [(p, a) for p, a in m] + [(a, p) for p, a in m]
            options = [_receive(rows[u], rows[v]) for u, v in ends]
            for combo in itertools.product(*options):
                nxt = list(rows)
                prob = q
                for (u, _), (row, pr) in zip(ends, combo):
                    nxt[u] = row
                    prob *= pr
                out[tuple(nxt)] += prob
        return out

    start = tuple(1 << u for u in range(n))
    return hitting_law(start, step, lambda rows: all(r == full for r in rows))


def chi_square_pvalue(sample: Sequence[int], pmf: np.ndarray) -> float:
    """χ² goodness-of-fit p-value of stabilization rounds against ``pmf``.

    Adjacent rounds are pooled from the left until each bin expects at
    least :data:`MIN_EXPECTED` trials; the last bin holds the whole tail,
    including whatever mass ``pmf`` left past its end.  A law with a
    single bin gives ``nan``, which fails every ``p > α`` test.
    """
    sample = np.asarray(sample, dtype=np.int64)
    size = sample.size
    counts = np.bincount(np.minimum(sample, pmf.size - 1), minlength=pmf.size)
    tail = np.append(pmf[:-1], 1.0 - pmf[:-1].sum()) * size
    observed, expected = [], []
    obs = exp = 0.0
    for o, e in zip(counts, tail):
        obs += o
        exp += e
        if exp >= MIN_EXPECTED:
            observed.append(obs)
            expected.append(exp)
            obs = exp = 0.0
    if expected:
        observed[-1] += obs
        expected[-1] += exp
    return float(stats.chisquare(observed, expected).pvalue)


def matching_pvalue(counts: dict[Matching, int], law: dict[Matching, float]) -> float:
    """χ² p-value of observed round matchings against the exact round law.

    Matchings expected fewer than :data:`MIN_EXPECTED` times are pooled
    into one bin; a matching the law gives probability zero fails
    outright.
    """
    assert set(counts) <= set(law), set(counts) - set(law)
    size = sum(counts.values())
    observed, expected, rest_obs, rest_exp = [], [], 0, 0.0
    for m, q in law.items():
        if q * size >= MIN_EXPECTED:
            observed.append(counts.get(m, 0))
            expected.append(q * size)
        else:
            rest_obs += counts.get(m, 0)
            rest_exp += q * size
    if rest_exp:
        observed.append(rest_obs)
        expected.append(rest_exp)
    return float(stats.chisquare(observed, expected).pvalue)
