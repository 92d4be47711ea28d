"""Immutable static graph representation.

A :class:`Graph` is an undirected simple graph over vertices ``0..n-1``
stored in CSR form.  It is the unit the round engines consume: a dynamic
graph (see :mod:`repro.graphs.dynamic`) is a round-indexed sequence of
these.

Instances are immutable; all mutation-like operations return new graphs.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.util.csrops import canonical_csr, csr_degrees, gather_rows, unique_nodes

__all__ = ["Graph"]


class Graph:
    """Undirected simple graph in CSR form.

    Parameters
    ----------
    n
        Number of vertices.
    edges
        Iterable of ``(u, v)`` undirected edges.  Self-loops and duplicates
        are rejected.
    """

    __slots__ = ("_n", "_indptr", "_indices", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray):
        if n <= 0:
            raise ValueError(f"graph must have at least one vertex, got n={n}")
        edge_arr = np.asarray(
            [(u, v) for (u, v) in edges] if not isinstance(edges, np.ndarray) else edges,
            dtype=np.int64,
        ).reshape(-1, 2)
        # Canonical (min, max) orientation, lexicographically sorted for
        # stable equality, from one sort of int64 edge keys.
        self._n = int(n)
        self._edges, self._indptr, self._indices = canonical_csr(self._n, edge_arr)
        self._edges.setflags(write=False)
        self._indptr.setflags(write=False)
        self._indices.setflags(write=False)

    @classmethod
    def _from_csr(
        cls,
        n: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        edges: np.ndarray,
    ) -> "Graph":
        """Rehydrate from already-built CSR arrays, trusting them.

        Used by unpickling and the shared-memory plane: the arrays were
        produced by ``__init__`` once, so re-canonicalizing and rebuilding
        the CSR here would only burn time.  Arrays are frozen (mmap-backed
        shared segments arrive read-only already).
        """
        graph = object.__new__(cls)
        graph._n = int(n)
        graph._indptr = indptr
        graph._indices = indices
        graph._edges = edges
        for arr in (indptr, indices, edges):
            if arr.flags.writeable:
                arr.setflags(write=False)
        return graph

    def __reduce__(self):
        from repro.util import shm

        store = shm.active_graph_store()
        if store is not None:
            name = store.publish_graph(self)
            if name is not None:
                # Ship a segment reference: the receiving process maps the
                # CSR zero-copy instead of unpickling megabytes of arrays.
                return (shm._load_graph_segment, (store.prefix, name))
        return (Graph._from_csr, (self._n, self._indptr, self._indices, self._edges))

    # -- basic accessors --------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._edges.shape[0]

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointers (read-only)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column indices (read-only, per-row sorted)."""
        return self._indices

    @property
    def edges(self) -> np.ndarray:
        """Canonical ``(m, 2)`` edge array (read-only, lexicographically sorted)."""
        return self._edges

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbor array of vertex ``u`` (a read-only view)."""
        return self._indices[self._indptr[u] : self._indptr[u + 1]]

    def degree(self, u: int) -> int:
        """Degree of vertex ``u``."""
        return int(self._indptr[u + 1] - self._indptr[u])

    @property
    def degrees(self) -> np.ndarray:
        """Degree array for all vertices."""
        return csr_degrees(self._indptr)

    @property
    def max_degree(self) -> int:
        """Maximum degree Δ (0 for an edgeless graph)."""
        return int(self.degrees.max()) if self._n else 0

    def has_edge(self, u: int, v: int) -> bool:
        """True when ``{u, v}`` is an edge."""
        nb = self.neighbors(u)
        i = np.searchsorted(nb, v)
        return bool(i < nb.size and nb[i] == v)

    # -- structure --------------------------------------------------------

    def is_connected(self) -> bool:
        """True when the graph is connected (single vertex counts as connected)."""
        if self._n == 1:
            return True
        seen = np.zeros(self._n, dtype=bool)
        frontier = np.array([0], dtype=np.int64)
        seen[0] = True
        while frontier.size:
            # Expand the whole frontier at once via CSR gather.
            nxt = gather_rows(self._indptr, self._indices, frontier)
            if nxt.size == 0:
                break
            nxt = nxt[~seen[nxt]]
            if nxt.size == 0:
                break
            nxt = unique_nodes(nxt)
            seen[nxt] = True
            frontier = nxt
        return bool(seen.all())

    def connected_components(self) -> list[np.ndarray]:
        """Vertex sets of the connected components (each sorted)."""
        comp = np.full(self._n, -1, dtype=np.int64)
        cid = 0
        for root in range(self._n):
            if comp[root] >= 0:
                continue
            comp[root] = cid
            stack = [root]
            while stack:
                u = stack.pop()
                for v in self.neighbors(u):
                    if comp[v] < 0:
                        comp[v] = cid
                        stack.append(int(v))
            cid += 1
        return [np.flatnonzero(comp == c) for c in range(cid)]

    def relabel(self, perm: np.ndarray) -> "Graph":
        """Return the isomorphic graph with vertex ``u`` renamed ``perm[u]``."""
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (self._n,) or not np.array_equal(
            np.sort(perm), np.arange(self._n)
        ):
            raise ValueError("perm must be a permutation of 0..n-1")
        if self._edges.size == 0:
            return Graph(self._n, np.empty((0, 2), dtype=np.int64))
        return Graph(self._n, perm[self._edges])

    def union(self, other: "Graph", bridge_edges: Iterable[tuple[int, int]]) -> "Graph":
        """Disjoint union with ``other`` plus bridging edges.

        Vertices of ``other`` are shifted by ``self.n``; ``bridge_edges`` are
        given as ``(u_in_self, v_in_other)`` pairs.  Used by the
        self-stabilization experiments (paper Section VIII) to join two
        long-running components.
        """
        off = self._n
        shifted = other._edges + off if other._edges.size else other._edges
        bridges = np.asarray(
            [(u, v + off) for (u, v) in bridge_edges], dtype=np.int64
        ).reshape(-1, 2)
        all_edges = np.concatenate(
            [self._edges.reshape(-1, 2), shifted.reshape(-1, 2), bridges]
        )
        return Graph(self._n + other._n, all_edges)

    # -- interop ----------------------------------------------------------

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (used by test oracles)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self._n))
        g.add_edges_from(map(tuple, self._edges))
        return g

    @classmethod
    def from_networkx(cls, g) -> "Graph":
        """Build from a :class:`networkx.Graph` with integer labels ``0..n-1``."""
        n = g.number_of_nodes()
        if sorted(g.nodes) != list(range(n)):
            raise ValueError("networkx graph must be labelled 0..n-1")
        return cls(n, np.asarray(list(g.edges), dtype=np.int64).reshape(-1, 2))

    # -- equality / repr ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and np.array_equal(self._edges, other._edges)

    def __hash__(self) -> int:
        return hash((self._n, self._edges.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.num_edges}, Δ={self.max_degree})"
