"""Static graph family generators.

Every generator returns a :class:`repro.graphs.static.Graph`.  Families are
chosen to cover the regimes the paper reasons about:

* **well connected** (``α = O(1)``): clique, hypercube, random regular,
  complete bipartite, dense Erdős–Rényi — where epidemic spreading is fast;
* **poorly connected** (``α = O(1/n)``): path, ring, star, barbell — where
  spreading is slow;
* the paper's explicit **lower-bound construction**: :func:`line_of_stars`,
  a line of ``√n`` stars of ``√n`` points each (Section VI, "Analysis
  Optimality"), on which blind gossip needs ``Ω(Δ²·√n) = Ω(Δ²/√α)`` rounds.

The ``*_expansion`` functions record closed-form vertex expansion values
used to sanity-check the numeric estimators in
:mod:`repro.analysis.expansion`.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.graphs.static import Graph
from repro.util.rng import make_rng

__all__ = [
    "clique",
    "path",
    "ring",
    "star",
    "double_star",
    "line_of_stars",
    "wheel",
    "torus",
    "caterpillar",
    "binary_tree",
    "grid",
    "hypercube",
    "complete_bipartite",
    "barbell",
    "lollipop",
    "random_regular",
    "random_bipartite_regular",
    "staircase_bipartite",
    "erdos_renyi",
    "connected_erdos_renyi",
    "FAMILY_BUILDERS",
    "clique_expansion",
    "path_expansion",
    "star_expansion",
    "line_of_stars_expansion",
]


# ---------------------------------------------------------------------------
# Deterministic families
# ---------------------------------------------------------------------------


def clique(n: int) -> Graph:
    """Complete graph K_n (``α ≈ 1``, ``Δ = n - 1``)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(n: int) -> Graph:
    """Path / line graph (``α = Θ(1/n)``, ``Δ = 2``)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def ring(n: int) -> Graph:
    """Cycle C_n (``α = Θ(1/n)``, ``Δ = 2``). Requires ``n >= 3``."""
    if n < 3:
        raise ValueError("ring needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    """Star with one hub (vertex 0) and ``n - 1`` leaves (``Δ = n - 1``)."""
    if n < 2:
        raise ValueError("star needs n >= 2")
    return Graph(n, [(0, i) for i in range(1, n)])


def double_star(leaves_per_hub: int) -> Graph:
    """Two hubs joined by an edge, each with its own leaves.

    The minimal network showing the ``Δ²`` bottleneck of blind gossip: the
    hub-to-hub edge connects with probability ``≈ 1/Δ²`` per round.
    """
    if leaves_per_hub < 1:
        raise ValueError("leaves_per_hub must be >= 1")
    k = leaves_per_hub
    # hubs 0 and 1; leaves of hub0: 2..k+1; leaves of hub1: k+2..2k+1.
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(k)]
    edges += [(1, 2 + k + i) for i in range(k)]
    return Graph(2 * k + 2, edges)


def line_of_stars(num_stars: int, points_per_star: int) -> Graph:
    """The paper's Section VI lower-bound construction.

    ``num_stars`` star centers ``u_1 … u_s`` arranged in a line, each
    connected to its own ``points_per_star`` points.  With
    ``num_stars = points_per_star = √n`` this is the network on which blind
    gossip requires ``Ω(Δ²·√n) ⊆ Ω(Δ²/√α)`` rounds: the smallest UID placed
    at ``u_1`` must cross every hub-to-hub edge, each crossing succeeding
    with probability ``≈ 1/Δ²``.

    Vertex layout: centers are ``0 .. num_stars-1`` (in line order); the
    points of center ``i`` are the ``points_per_star`` vertices starting at
    ``num_stars + i * points_per_star``.
    """
    if num_stars < 1 or points_per_star < 0:
        raise ValueError("num_stars >= 1 and points_per_star >= 0 required")
    s, p = num_stars, points_per_star
    edges: list[tuple[int, int]] = [(i, i + 1) for i in range(s - 1)]
    for i in range(s):
        base = s + i * p
        edges += [(i, base + j) for j in range(p)]
    return Graph(s + s * p, edges)


def wheel(n: int) -> Graph:
    """Wheel W_n: a hub connected to every vertex of an (n-1)-cycle.

    Well connected (``α = Θ(1)``) with one dominant-degree vertex — a
    useful contrast to the star, whose leaves have no rim.
    """
    if n < 4:
        raise ValueError("wheel needs n >= 4")
    rim = n - 1
    edges = [(0, i) for i in range(1, n)]
    edges += [(1 + i, 1 + (i + 1) % rim) for i in range(rim)]
    return Graph(n, edges)


def torus(rows: int, cols: int) -> Graph:
    """2-D torus grid (wrap-around grid; ``Δ = 4``, ``α = Θ(1/√n)``)."""
    if rows < 3 or cols < 3:
        raise ValueError("torus needs rows, cols >= 3")
    edges = set()
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            right = r * cols + (c + 1) % cols
            down = ((r + 1) % rows) * cols + c
            edges.add((min(u, right), max(u, right)))
            edges.add((min(u, down), max(u, down)))
    return Graph(rows * cols, sorted(edges))


def caterpillar(spine: int, legs_per_vertex: int) -> Graph:
    """Caterpillar: a path with ``legs_per_vertex`` pendant leaves per spine vertex.

    A tunable interpolation between the path (0 legs) and the line of
    stars (many legs); ``Δ = legs_per_vertex + 2``.
    """
    if spine < 1 or legs_per_vertex < 0:
        raise ValueError("spine >= 1 and legs_per_vertex >= 0 required")
    edges = [(i, i + 1) for i in range(spine - 1)]
    for i in range(spine):
        base = spine + i * legs_per_vertex
        edges += [(i, base + j) for j in range(legs_per_vertex)]
    return Graph(spine * (1 + legs_per_vertex), edges)


def binary_tree(n: int) -> Graph:
    """Complete-ish binary tree on ``n`` vertices (heap indexing)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Graph(n, [((i - 1) // 2, i) for i in range(1, n)])


def grid(rows: int, cols: int) -> Graph:
    """2-D grid (``α = Θ(1/√n)``, ``Δ = 4``)."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((u, u + 1))
            if r + 1 < rows:
                edges.append((u, u + cols))
    return Graph(rows * cols, edges)


def hypercube(dim: int) -> Graph:
    """Boolean hypercube Q_dim (``n = 2^dim``, ``Δ = dim``, ``α = Θ(1/√dim)``)."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    n = 1 << dim
    edges = [(u, u ^ (1 << b)) for u in range(n) for b in range(dim) if u < (u ^ (1 << b))]
    return Graph(n, edges)


def complete_bipartite(a: int, b: int) -> Graph:
    """Complete bipartite graph K_{a,b}."""
    if a < 1 or b < 1:
        raise ValueError("both sides must be non-empty")
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def barbell(clique_size: int, bridge_len: int = 0) -> Graph:
    """Two cliques of ``clique_size`` joined by a path of ``bridge_len`` vertices.

    A classic low-expansion graph: ``α = Θ(1/clique_size)``.
    """
    if clique_size < 2:
        raise ValueError("clique_size must be >= 2")
    k, b = clique_size, bridge_len
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges += [(k + u, k + v) for u in range(k) for v in range(u + 1, k)]
    chain = [k - 1] + [2 * k + i for i in range(b)] + [k]
    edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    return Graph(2 * k + b, edges)


def lollipop(clique_size: int, tail_len: int) -> Graph:
    """Clique with a pendant path of ``tail_len`` vertices."""
    if clique_size < 2 or tail_len < 1:
        raise ValueError("clique_size >= 2 and tail_len >= 1 required")
    k = clique_size
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    chain = [k - 1] + [k + i for i in range(tail_len)]
    edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    return Graph(k + tail_len, edges)


# ---------------------------------------------------------------------------
# Random families
# ---------------------------------------------------------------------------


def random_regular(n: int, d: int, seed: int | None = None, max_tries: int = 50) -> Graph:
    """Random ``d``-regular simple connected graph.

    Samples a uniform pairing of the ``n·d`` half-edges (configuration
    model) and repairs self-loops and multi-edges with random double-edge
    swaps — rejection alone fails for ``d ≳ 6`` since the probability of a
    simple pairing decays like ``exp(-d²/4)``.  Disconnected results (rare
    for ``d ≥ 3``) trigger a resample.
    """
    if n * d % 2 != 0:
        raise ValueError("n*d must be even")
    if d >= n:
        raise ValueError("d must be < n")
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = make_rng(seed, "random_regular", n, d)
    # Above this edge count the dict-based repair's O(m) Python setup
    # dominates generation (5.1 s at n=2^18, d=8 on a 2-CPU x86-64 box,
    # against 0.10 s for the vectorized repair, which detects the O(d^2)
    # expected bad edges with array ops instead).  The small-n path is
    # kept verbatim so existing seeds reproduce the exact graphs they
    # always produced.
    large = n * d // 2 >= _LARGE_REPAIR_EDGES
    for _ in range(max_tries):
        # rng.shuffle draws what rng.permutation(stubs) draws, without its
        # copy, and the same for any dtype: int32 stubs hold the pairs in
        # the CSR's own id dtype, which build_csr reads without a copy.
        # The repair rewires the pairs in place through u/v views.
        pairs = np.repeat(np.arange(n, dtype=np.int32), d)
        rng.shuffle(pairs)
        pairs = pairs.reshape(-1, 2)
        u, v = pairs[:, 0], pairs[:, 1]
        repaired = (
            _repair_multigraph_vectorized(u, v, n, rng)
            if large
            else _repair_multigraph(u, v, rng)
        )
        if repaired:
            g = Graph(n, pairs)
            del pairs, u, v  # the graph holds its own CSR; free them before the BFS
            if g.is_connected():
                return g
    raise RuntimeError(f"failed to sample a connected {d}-regular graph on {n} vertices")


#: Edge-count threshold above which ``random_regular`` switches to the
#: vectorized multigraph repair (same distribution family, different RNG
#: consumption — seeds below the threshold keep their historical graphs).
_LARGE_REPAIR_EDGES = 262_144


#: Edges per block when :func:`_repeat_followers` recomputes edge keys.
_KEY_BLOCK = 1 << 16


def _edge_keys(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Int64 keys ``min·n + max`` of the edges ``(u[i], v[i])``.

    Computed as ``min·(n - 1) + u + v`` into one int64 buffer, so int32
    endpoints are widened element by element, never as whole arrays.
    """
    key = np.empty(u.shape, dtype=np.int64)
    np.minimum(u, v, out=key)
    key *= n - 1
    key += u
    key += v
    return key


def _repeat_followers(
    u: np.ndarray, v: np.ndarray, n: int, sorted_keys: np.ndarray
) -> np.ndarray:
    """Mask of every occurrence of a repeated edge after its first.

    Every occurrence of a duplicated edge beyond its first (in index
    order) is bad; the first stays put, since rewiring the others makes
    it unique.  ``sorted_keys`` are the sorted :func:`_edge_keys` of the
    edges.  Only the few repeated keys' occurrences are found, by
    recomputing the keys a block of edges at a time, and put in index
    order.
    """
    follow = np.zeros(u.size, dtype=bool)
    repeated = sorted_keys[1:][sorted_keys[1:] == sorted_keys[:-1]]
    if repeated.size:
        # Prefilter on the low 16 bits, then test exactly.
        table = np.zeros(1 << 16, dtype=bool)
        table[repeated & 0xFFFF] = True
        occ, occ_key = [], []
        for lo in range(0, u.size, _KEY_BLOCK):
            key = _edge_keys(u[lo : lo + _KEY_BLOCK], v[lo : lo + _KEY_BLOCK], n)
            hit = np.flatnonzero(table[key & 0xFFFF])
            hit = hit[np.isin(key[hit], repeated)]
            occ.append(hit + lo)
            occ_key.append(key[hit])
        key = np.concatenate(occ_key)
        order = np.argsort(key, kind="stable")
        occ, key = np.concatenate(occ)[order], key[order]
        follow[occ[1:][key[1:] == key[:-1]]] = True
    return follow


def _repair_multigraph_vectorized(
    u: np.ndarray, v: np.ndarray, n: int, rng, max_steps: int = 100_000
) -> bool:
    """Large-m variant of :func:`_repair_multigraph`.

    Self-loops and duplicate edges are found with one in-place sort of
    the canonical edge keys; only the expected-O(d²) offenders then go
    through the Python double-edge-swap loop, with edge-multiset
    membership served by binary search on the sorted keys plus a small
    delta dict of the swaps applied so far.
    """
    m = u.shape[0]
    sorted_keys = _edge_keys(u, v, n)
    sorted_keys.sort()
    pending = np.flatnonzero(
        _repeat_followers(u, v, n, sorted_keys) | (u == v)
    ).tolist()
    if not pending:
        return True

    delta: dict[int, int] = {}

    def count(k: int) -> int:
        base = int(
            np.searchsorted(sorted_keys, k, side="right")
            - np.searchsorted(sorted_keys, k, side="left")
        )
        return base + delta.get(k, 0)

    steps = 0
    while pending:
        i = pending[-1]
        a, b = int(u[i]), int(v[i])
        k = min(a, b) * n + max(a, b)
        if a != b and count(k) <= 1:
            # A previous swap already repaired this edge (it was picked as
            # a partner, or its duplicate group shrank to one).
            pending.pop()
            continue
        if steps >= max_steps:
            return False
        steps += 1
        j = int(rng.integers(0, m))
        x, y = int(u[j]), int(v[j])
        if j == i or {a, b} & {x, y}:
            continue
        k1 = min(a, x) * n + max(a, x)
        k2 = min(b, y) * n + max(b, y)
        if k1 == k2 or count(k1) or count(k2):
            continue
        kj = min(x, y) * n + max(x, y)
        delta[k] = delta.get(k, 0) - 1
        delta[kj] = delta.get(kj, 0) - 1
        delta[k1] = delta.get(k1, 0) + 1
        delta[k2] = delta.get(k2, 0) + 1
        u[i], v[i] = a, x
        u[j], v[j] = b, y
        pending.pop()
    return True


def _repair_multigraph(u: np.ndarray, v: np.ndarray, rng, max_steps: int = 100_000) -> bool:
    """Remove self-loops and duplicate edges by random double-edge swaps.

    A swap replaces edges ``(a,b), (x,y)`` with ``(a,x), (b,y)`` when the
    four endpoints are distinct and neither new edge already exists.  This
    preserves every vertex degree, so regularity survives.  Returns True
    once the edge arrays describe a simple graph, False if ``max_steps``
    random swaps did not suffice (caller resamples).
    """
    m = u.shape[0]

    def norm(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a <= b else (b, a)

    counts: dict[tuple[int, int], int] = {}
    key_to_idx: dict[tuple[int, int], set[int]] = {}
    for i in range(m):
        k = norm(int(u[i]), int(v[i]))
        counts[k] = counts.get(k, 0) + 1
        key_to_idx.setdefault(k, set()).add(i)

    def key_is_bad(k: tuple[int, int]) -> bool:
        c = counts.get(k, 0)
        return c > 0 and (k[0] == k[1] or c > 1)

    bad_keys = {k for k in counts if key_is_bad(k)}

    def detach(i: int) -> None:
        k = norm(int(u[i]), int(v[i]))
        counts[k] -= 1
        key_to_idx[k].discard(i)
        if counts[k] == 0:
            del counts[k]
            del key_to_idx[k]
        if not key_is_bad(k):
            bad_keys.discard(k)

    def attach(i: int) -> None:
        k = norm(int(u[i]), int(v[i]))
        counts[k] = counts.get(k, 0) + 1
        key_to_idx.setdefault(k, set()).add(i)
        if key_is_bad(k):
            bad_keys.add(k)

    for _ in range(max_steps):
        if not bad_keys:
            return True
        kk = next(iter(bad_keys))
        i = next(iter(key_to_idx[kk]))
        j = int(rng.integers(0, m))
        a, b, x, y = int(u[i]), int(v[i]), int(u[j]), int(v[j])
        # Endpoint sets must be disjoint (this still allows repairing a
        # self-loop a==b against a partner edge, and a partner self-loop
        # x==y: the new edges (a,x),(b,y) are then loop-free).
        if j == i or {a, b} & {x, y}:
            continue
        k1, k2 = norm(a, x), norm(b, y)
        if k1 == k2 or counts.get(k1, 0) or counts.get(k2, 0):
            continue
        detach(i)
        detach(j)
        u[i], v[i] = a, x
        u[j], v[j] = b, y
        attach(i)
        attach(j)
    return not bad_keys


def random_bipartite_regular(
    m: int, d: int, seed: int | None = None, max_tries: int = 200
) -> Graph:
    """Random ``d``-regular bipartite graph on sides of size ``m`` each.

    Built as the union of ``d`` random perfect matchings between left
    vertices ``0..m-1`` and right vertices ``m..2m-1``.  A random union
    almost surely contains duplicate edges (≈ ``d²/2`` in expectation), so
    duplicates are repaired by uniform transpositions within the offending
    matching; disconnection triggers a full resample.  By König's theorem a
    ``d``-regular bipartite graph always has a perfect matching of size
    ``m`` — exactly the premise of Theorem V.2, which experiment E2
    exercises.
    """
    if d < 1 or d > m:
        raise ValueError("need 1 <= d <= m")
    if d == m:
        return complete_bipartite(m, m)
    rng = make_rng(seed, "bipartite_regular", m, d)
    for _ in range(max_tries):
        perms = [rng.permutation(m) for _ in range(d)]
        # Swap-repair: while matching j duplicates an edge of an earlier
        # matching at left vertex u, transpose p_j[u] with a random slot.
        ok = False
        for _repair in range(50 * d * d + 100):
            seen: dict[tuple[int, int], int] = {}
            dup: tuple[int, int] | None = None
            for j, p in enumerate(perms):
                for u in range(m):
                    key = (u, int(p[u]))
                    if key in seen:
                        dup = (j, u)
                        break
                    seen[key] = j
                if dup is not None:
                    break
            if dup is None:
                ok = True
                break
            j, u = dup
            w = int(rng.integers(0, m))
            perms[j][u], perms[j][w] = perms[j][w], perms[j][u]
        if not ok:
            continue
        left = np.tile(np.arange(m), d)
        right = np.concatenate(perms)
        g = Graph(2 * m, np.stack([left, right + m], axis=1))
        if g.is_connected():
            return g
    raise RuntimeError(f"failed to sample a connected {d}-regular bipartite graph")


def staircase_bipartite(m: int) -> Graph:
    """Nested-neighborhood bipartite graph: left ``i`` ~ right ``0..i``.

    The classic hard instance for random matching strategies (the
    structure behind Theorem V.2's ``Δ^{1/r}`` factor): the graph has a
    perfect matching of size ``m`` (left ``i`` with right ``i``), but
    random proposals pile onto the low-index right vertices — left vertex
    0 *must* connect to right vertex 0, yet every other left vertex also
    proposes to it with some probability, and the nesting repeats at every
    scale.  Contention resolves only gradually over stable rounds.

    Left vertices are ``0..m-1``; right vertices are ``m..2m-1``; left
    ``i`` is adjacent to rights ``m..m+i``.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    edges = [(i, m + j) for i in range(m) for j in range(i + 1)]
    return Graph(2 * m, edges)


def erdos_renyi(n: int, p: float, seed: int | None = None) -> Graph:
    """Erdős–Rényi G(n, p) (possibly disconnected)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = make_rng(seed, "erdos_renyi", n)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    return Graph(n, np.stack([iu[mask], ju[mask]], axis=1))


def connected_erdos_renyi(
    n: int, p: float, seed: int | None = None, max_tries: int = 200
) -> Graph:
    """G(n, p) conditioned on connectivity (rejection sampling)."""
    for t in range(max_tries):
        g = erdos_renyi(n, p, seed=None if seed is None else seed + 7919 * t)
        if g.is_connected():
            return g
    raise RuntimeError(f"failed to sample a connected G({n},{p}) graph")


# ---------------------------------------------------------------------------
# Analytic vertex expansion (closed forms used as estimator oracles)
# ---------------------------------------------------------------------------


def clique_expansion(n: int) -> float:
    """Exact α of K_n: minimized at ``|S| = ⌊n/2⌋`` where ``∂S = V \\ S``."""
    if n < 2:
        raise ValueError("expansion needs n >= 2")
    s = n // 2
    return (n - s) / s


def path_expansion(n: int) -> float:
    """Exact α of the path: a prefix of ``⌊n/2⌋`` vertices has one boundary vertex."""
    if n < 2:
        raise ValueError("expansion needs n >= 2")
    return 1.0 / (n // 2)


def star_expansion(n: int) -> float:
    """Exact α of the star: ``⌊n/2⌋`` leaves have only the hub as boundary."""
    if n < 3:
        raise ValueError("star expansion needs n >= 3")
    return 1.0 / (n // 2)


def line_of_stars_expansion(num_stars: int, points_per_star: int) -> float:
    """Exact α of the line-of-stars.

    The minimizing cut takes a prefix of whole stars *plus any number of
    points of the next star*: its boundary is the single next center.
    Since point counts fill every integer size up to ``(s-1)(1+p)+p``, the
    optimum is ``α = 1/⌊n/2⌋`` with ``n = s(1+p)`` — exactly as for the
    path and the star.
    """
    s, p = num_stars, points_per_star
    if s < 2:
        raise ValueError("need at least two stars")
    n = s * (1 + p)
    return 1.0 / (n // 2)


FAMILY_BUILDERS: dict[str, Callable[..., Graph]] = {
    "clique": clique,
    "path": path,
    "ring": ring,
    "star": star,
    "double_star": double_star,
    "line_of_stars": line_of_stars,
    "wheel": wheel,
    "torus": torus,
    "caterpillar": caterpillar,
    "binary_tree": binary_tree,
    "grid": grid,
    "hypercube": hypercube,
    "complete_bipartite": complete_bipartite,
    "barbell": barbell,
    "lollipop": lollipop,
    "random_regular": random_regular,
    "random_bipartite_regular": random_bipartite_regular,
    "staircase_bipartite": staircase_bipartite,
    "erdos_renyi": erdos_renyi,
    "connected_erdos_renyi": connected_erdos_renyi,
}
