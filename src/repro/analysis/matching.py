"""Maximum bipartite matchings and cut-matching quantities.

Paper Section V connects a graph's vertex expansion to the *edge
independence number* ``ν(B(S))`` of the bipartite cut graph ``B(S)``
(bipartitions ``S`` and ``V \\ S``, crossing edges only):

    Lemma V.1:  γ = min_{S, |S| ≤ n/2}  ν(B(S)) / |S|   ≥   α / 4.

``ν(B(S))`` is the true per-round information capacity across the cut in
the mobile telephone model, since each node joins at most one connection
per round.  This module implements Hopcroft-Karp maximum matching from
scratch (networkx is used only as a test oracle), cut matchings, and the
exact ``γ`` by subset enumeration for small graphs.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from repro.graphs.static import Graph

__all__ = [
    "hopcroft_karp",
    "cut_matching",
    "cut_matching_size",
    "gamma_exact",
]

_INF = float("inf")
GAMMA_EXACT_LIMIT = 18  # largest n gamma_exact accepts
GAMMA_REPORT_LIMIT = 14  # largest n for which ``repro graph`` reports γ


def hopcroft_karp(
    n_left: int, n_right: int, adj: Sequence[Sequence[int]]
) -> tuple[int, np.ndarray, np.ndarray]:
    """Maximum matching of a bipartite graph via Hopcroft-Karp.

    Parameters
    ----------
    n_left, n_right
        Sizes of the two bipartitions.
    adj
        ``adj[u]`` lists the right-vertices adjacent to left-vertex ``u``.

    Returns
    -------
    size, match_left, match_right
        Matching size; ``match_left[u]`` is the right partner of left
        vertex ``u`` (or -1), and symmetrically ``match_right``.

    Notes
    -----
    Runs in ``O(E·√V)``; phases alternate a BFS layering from free left
    vertices with DFS augmentation along shortest alternating paths.
    """
    match_l = np.full(n_left, -1, dtype=np.int64)
    match_r = np.full(n_right, -1, dtype=np.int64)
    dist = np.zeros(n_left, dtype=np.float64)

    def bfs() -> bool:
        q: deque[int] = deque()
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0.0
                q.append(u)
            else:
                dist[u] = _INF
        found = False
        while q:
            u = q.popleft()
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1.0
                    q.append(int(w))
        return found

    def dfs(u: int) -> bool:
        for v in adj[u]:
            w = match_r[v]
            if w == -1 or (dist[w] == dist[u] + 1.0 and dfs(int(w))):
                match_l[u] = v
                match_r[v] = u
                return True
        dist[u] = _INF
        return False

    size = 0
    while bfs():
        for u in range(n_left):
            if match_l[u] == -1 and dfs(u):
                size += 1
    return size, match_l, match_r


def cut_matching(g: Graph, s_set: Iterable[int]) -> list[tuple[int, int]]:
    """A maximum matching on ``B(S)`` as ``(u_in_S, v_outside)`` pairs.

    ``B(S)`` is the bipartite graph with bipartitions ``(S, V \\ S)`` and
    the edges of ``g`` crossing the cut (paper Section V).
    """
    s_arr = np.asarray(sorted(set(int(x) for x in s_set)), dtype=np.int64)
    if s_arr.size == 0:
        return []
    if s_arr.min() < 0 or s_arr.max() >= g.n:
        raise ValueError("S contains out-of-range vertices")
    in_s = np.zeros(g.n, dtype=bool)
    in_s[s_arr] = True
    right_verts = np.flatnonzero(~in_s)
    right_index = np.full(g.n, -1, dtype=np.int64)
    right_index[right_verts] = np.arange(right_verts.size)
    adj: list[list[int]] = []
    for u in s_arr:
        nbrs = g.neighbors(int(u))
        adj.append([int(right_index[v]) for v in nbrs if not in_s[v]])
    _, match_l, _ = hopcroft_karp(s_arr.size, right_verts.size, adj)
    return [
        (int(s_arr[i]), int(right_verts[match_l[i]]))
        for i in range(s_arr.size)
        if match_l[i] >= 0
    ]


def cut_matching_size(g: Graph, s_set: Iterable[int]) -> int:
    """``ν(B(S))``: maximum number of concurrent connections across the cut."""
    return len(cut_matching(g, s_set))


def gamma_exact(g: Graph) -> float:
    """Exact ``γ = min_{S, 0 < |S| ≤ n/2} ν(B(S))/|S|`` by enumeration.

    Exponential in ``n``; intended for the Lemma V.1 verification
    experiments (``n ≤ ~14``).
    """
    n = g.n
    if n < 2:
        raise ValueError("gamma needs n >= 2")
    if n > GAMMA_EXACT_LIMIT:
        raise ValueError(f"gamma_exact is exponential; use n <= {GAMMA_EXACT_LIMIT}")
    best = _INF
    verts = range(n)
    for size in range(1, n // 2 + 1):
        for s in combinations(verts, size):
            nu = cut_matching_size(g, s)
            best = min(best, nu / size)
            if best == 0.0:
                return 0.0
    return float(best)
