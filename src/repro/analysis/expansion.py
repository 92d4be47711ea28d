"""Vertex expansion: exact computation, estimates, and bounds.

Paper Section II defines, for a connected graph ``G = (V, E)``:

    ∂S   = { v ∉ S : N(v) ∩ S ≠ ∅ }          (the boundary of S)
    α(S) = |∂S| / |S|
    α    = min_{S ⊂ V, 0 < |S| ≤ n/2} α(S)    (the vertex expansion)

``α`` ranges from ``Θ(1)`` (well connected) down to ``Θ(1/n)``.  Exact
computation is NP-hard in general; we provide:

* :func:`vertex_expansion_exact` — every subset at once from one ``2ⁿ``-entry
  neighbour-mask table (int64, 2 MiB at ``n = 18``), ``n ≤ 18``;
* :func:`vertex_expansion_upper` — the best (smallest) ``α(S)`` over
  randomized BFS-ball sweeps, degree sweeps, and greedy local search; any
  witnessed set gives a valid *upper* bound on ``α``;
* :func:`vertex_expansion_spectral_lower` — a Cheeger-type *lower* bound
  ``α ≥ (λ₂/2)·(δ_min/Δ)`` derived from edge conductance;
* :func:`vertex_expansion` — dispatcher (exact when feasible, else the
  sweep upper bound, which is the standard practical surrogate).
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.graphs.static import Graph
from repro.graphs.dynamic import DynamicGraph
from repro.util.csrops import gather_rows
from repro.util.rng import make_rng

__all__ = [
    "boundary",
    "alpha_of_set",
    "vertex_expansion_exact",
    "vertex_expansion_upper",
    "spectral_gap",
    "vertex_expansion_spectral_lower",
    "vertex_expansion",
    "dynamic_vertex_expansion",
]

_EXACT_LIMIT = 18


def _boundary(g: Graph, s_set: Iterable[int]) -> tuple[np.ndarray, int]:
    """``(∂S, |S|)``, deduplicating and range-checking ``S`` once."""
    s_arr = np.asarray(sorted(set(int(x) for x in s_set)), dtype=np.int64)
    if s_arr.size and (s_arr[0] < 0 or s_arr[-1] >= g.n):
        raise ValueError("S contains out-of-range vertices")
    in_s = np.zeros(g.n, dtype=bool)
    in_s[s_arr] = True
    touched = np.zeros(g.n, dtype=bool)
    touched[gather_rows(g.indptr, g.indices, s_arr)] = True
    return np.flatnonzero(touched & ~in_s), s_arr.size


def boundary(g: Graph, s_set: Iterable[int]) -> np.ndarray:
    """``∂S``: vertices outside ``S`` adjacent to at least one vertex of ``S``."""
    return _boundary(g, s_set)[0]


def alpha_of_set(g: Graph, s_set: Iterable[int]) -> float:
    """``α(S) = |∂S| / |S|`` for a non-empty vertex set."""
    bd, size = _boundary(g, s_set)
    if not size:
        raise ValueError("S must be non-empty")
    return bd.size / size


_POPCOUNT8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _popcount(x: np.ndarray, bits: int) -> np.ndarray:
    """Set bits of each non-negative entry of ``x`` below bit ``bits``."""
    return sum(_POPCOUNT8[(x >> shift) & 0xFF] for shift in range(0, bits, 8))


def vertex_expansion_exact(g: Graph) -> float:
    """Exact ``α``: ``min |U[S] & ~S| / |S|`` over masks with ``0 < |S| ≤ n/2``.

    ``U[S | 1<<v] = U[S] | nbr[v]`` fills the neighbour-mask table for all
    ``2ⁿ`` masks; float64 division of the two popcounts gives the same
    double as ``alpha_of_set``.  Exponential; restricted to ``n ≤ 18``.
    """
    n = g.n
    if n < 2:
        raise ValueError("expansion needs n >= 2")
    if n > _EXACT_LIMIT:
        raise ValueError(f"vertex_expansion_exact requires n <= {_EXACT_LIMIT}")
    union = np.zeros(1 << n, dtype=np.int64)
    for v in range(n):
        nbr = np.bitwise_or.reduce(1 << g.neighbors(v), initial=0)
        union[1 << v : 2 << v] = union[: 1 << v] | nbr
    masks = np.arange(1 << n, dtype=np.int64)
    size = _popcount(masks, n)
    bd = _popcount(union & ~masks, n)
    keep = (size > 0) & (size <= n // 2)
    return float((bd[keep] / size[keep]).min())


def _bfs_order(g: Graph, root: int, *, degree_sorted: bool = False) -> list[int]:
    """Vertices in BFS order from ``root``.

    With ``degree_sorted`` each discovered frontier is visited in ascending
    degree order, which makes prefix sweeps absorb a star's points before
    its center — the minimizing pattern on star-like graphs.
    """
    seen = np.zeros(g.n, dtype=bool)
    seen[root] = True
    order = [root]
    frontier = [root]
    deg = g.degrees
    while frontier:
        nxt: list[int] = []
        for u in frontier:
            for v in g.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    nxt.append(int(v))
        if degree_sorted:
            nxt.sort(key=lambda v: int(deg[v]))
        order.extend(nxt)
        frontier = nxt
    return order


def _fiedler_order(g: Graph) -> list[int]:
    """Vertices sorted by the normalized-Laplacian Fiedler vector.

    Spectral sweep cuts are the classic Cheeger-rounding heuristic; prefix
    cuts of this ordering find low-conductance (and usually low vertex
    expansion) sets on elongated graphs.
    """
    n = g.n
    deg = g.degrees.astype(np.float64)
    if deg.min() == 0:
        return list(range(n))
    a = np.zeros((n, n), dtype=np.float64)
    for u in range(n):
        a[u, g.neighbors(u)] = 1.0
    dinv = 1.0 / np.sqrt(deg)
    lap = np.eye(n) - (dinv[:, None] * a) * dinv[None, :]
    _, vecs = np.linalg.eigh(lap)
    fiedler = vecs[:, 1] * dinv  # back to the D^{-1/2}-weighted embedding
    return [int(i) for i in np.argsort(fiedler)]


def _local_search(g: Graph, s: set[int], max_steps: int = 200) -> tuple[set[int], float]:
    """Greedy vertex swaps that reduce ``α(S)`` while keeping ``|S| ≤ n/2``."""
    half = g.n // 2
    cur = alpha_of_set(g, s)
    for _ in range(max_steps):
        improved = False
        bset = set(boundary(g, s).tolist())
        # Try absorbing a boundary vertex (grows S, often shrinks ∂S).
        for v in list(bset):
            if len(s) >= half:
                break
            cand = s | {v}
            a = alpha_of_set(g, cand)
            if a < cur:
                s, cur = cand, a
                improved = True
                break
        if improved:
            continue
        # Try dropping a vertex of S whose removal keeps the set non-empty.
        for v in list(s):
            if len(s) <= 1:
                break
            cand = s - {v}
            a = alpha_of_set(g, cand)
            if a < cur:
                s, cur = cand, a
                improved = True
                break
        if not improved:
            break
    return s, cur


def vertex_expansion_upper(
    g: Graph, *, seed: int | None = 0, tries: int = 16
) -> float:
    """Best ``α(S)`` found by BFS-ball sweeps plus greedy local search.

    Every candidate ``S`` witnesses ``α ≤ α(S)``, so the return value is a
    certified upper bound on the true expansion (and equals it on the
    structured families used in tests).
    """
    n = g.n
    if n < 2:
        raise ValueError("expansion needs n >= 2")
    half = n // 2
    rng = make_rng(seed, "expansion-upper")
    best = math.inf
    best_set: set[int] = set()

    def sweep(order: list[int]) -> None:
        nonlocal best, best_set
        in_s = np.zeros(n, dtype=bool)
        touched = np.zeros(n, dtype=bool)
        bd = 0  # |∂S| maintained incrementally along the prefix sweep
        for size, u in enumerate(order[:half], start=1):
            in_s[u] = True
            if touched[u]:
                bd -= 1
            for v in g.neighbors(u):
                if not in_s[v] and not touched[v]:
                    touched[v] = True
                    bd += 1
            a = bd / size
            if a < best:
                best = a
                best_set = set(order[:size])

    roots = list(rng.choice(n, size=min(tries, n), replace=False))
    for root in roots:
        # Plain and degree-sorted BFS ball sweeps.
        sweep(_bfs_order(g, int(root)))
        sweep(_bfs_order(g, int(root), degree_sorted=True))
    # Ascending-degree prefix (catches star-like minima).
    sweep([int(x) for x in np.argsort(g.degrees, kind="stable")])
    # Spectral (Fiedler) sweep, both ends.
    if n <= 2048:
        forder = _fiedler_order(g)
        sweep(forder)
        sweep(forder[::-1])
    if best_set:
        _, refined = _local_search(g, best_set)
        best = min(best, refined)
    return float(best)


def spectral_gap(g: Graph) -> float:
    """``λ₂`` of the normalized Laplacian (the spectral gap).

    Controls mixing/diffusion speed: averaging gossip's per-connection
    contraction and the Cheeger bounds both run through this quantity.
    """
    n = g.n
    if n < 2:
        raise ValueError("spectral gap needs n >= 2")
    deg = g.degrees.astype(np.float64)
    if deg.min() == 0:
        return 0.0
    a = np.zeros((n, n), dtype=np.float64)
    for u in range(n):
        a[u, g.neighbors(u)] = 1.0
    dinv = 1.0 / np.sqrt(deg)
    lap = np.eye(n) - (dinv[:, None] * a) * dinv[None, :]
    evals = np.linalg.eigvalsh(lap)
    return float(max(evals[1], 0.0))


def vertex_expansion_spectral_lower(g: Graph) -> float:
    """Cheeger-type lower bound ``α ≥ (λ₂ / 2) · (δ_min / Δ)``.

    Derivation: for any ``S`` with ``|S| ≤ n/2``, the crossing edge count
    satisfies ``e(S, S̄) ≤ |∂S| · Δ`` and the volume ``vol(S) ≥ |S|·δ_min``;
    Cheeger's inequality gives conductance ``φ(S) = e(S,S̄)/vol(S) ≥ λ₂/2``
    with ``λ₂`` the second eigenvalue of the normalized Laplacian.  Chaining
    the three yields the bound.  Weak but certified.
    """
    n = g.n
    if n < 2:
        raise ValueError("expansion needs n >= 2")
    deg = g.degrees.astype(np.float64)
    if deg.min() == 0:
        return 0.0
    lam2 = spectral_gap(g)
    return (lam2 / 2.0) * (float(deg.min()) / float(deg.max()))


def vertex_expansion(g: Graph, *, seed: int | None = 0) -> float:
    """Best available estimate of ``α``.

    Exact for ``n ≤ 18``; otherwise the sweep/local-search upper bound,
    which is exact on the structured families used throughout the paper's
    arguments (prefix cuts are the minimizers there) and the standard
    practical surrogate elsewhere.
    """
    if g.n <= _EXACT_LIMIT:
        return vertex_expansion_exact(g)
    return vertex_expansion_upper(g, seed=seed)


def dynamic_vertex_expansion(dg: DynamicGraph, horizon: int, *, seed: int | None = 0) -> float:
    """``α`` of a dynamic graph: the minimum over its epochs in ``1..horizon``."""
    step = 1 if math.isinf(dg.tau) else int(dg.tau)
    rounds = [1] if math.isinf(dg.tau) else list(range(1, horizon + 1, step))
    return min(vertex_expansion(dg.graph_at(r), seed=seed) for r in rounds)
