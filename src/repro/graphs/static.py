"""Immutable static graph representation.

A :class:`Graph` is an undirected simple graph over vertices ``0..n-1``
stored in CSR form, and only in CSR form: its canonical edge array is
derived from the CSR on demand.  It is the unit the round engines
consume: a dynamic graph (see :mod:`repro.graphs.dynamic`) is a
round-indexed sequence of these.

Every way of making a graph (an edge list, a family, :meth:`Graph.relabel`,
:meth:`Graph.union`, unpickling) leaves the same dtypes: int64 ``indptr``,
because it holds arc offsets, and int32 ``indices``, half the bytes of
the largest array.  ``edges`` stays int64.

Instances are immutable; all mutation-like operations return new graphs.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.util.csrops import build_csr, csr_degrees, distinct_ids, gather_rows

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

    __slots__ = ("_n", "_indptr", "_indices", "_indices_intp", "_edges", "_connected")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray):
        if n <= 0:
            raise ValueError(f"graph must have at least one vertex, got n={n}")
        if not isinstance(edges, np.ndarray):
            edges = np.asarray([(u, v) for (u, v) in edges], dtype=np.int64)
        self._set_csr(int(n), *build_csr(int(n), edges))

    def _set_csr(self, n: int, indptr: np.ndarray, indices: np.ndarray) -> None:
        self._n = n
        self._indptr = indptr
        self._indices = indices
        self._indices_intp: np.ndarray | None = None
        self._edges: np.ndarray | None = None
        self._connected: bool | None = None
        indptr.setflags(write=False)
        indices.setflags(write=False)

    @classmethod
    def _from_csr(cls, n: int, indptr: np.ndarray, indices: np.ndarray) -> "Graph":
        """Rehydrate from already-built CSR arrays, trusting them.

        Used by unpickling and :meth:`relabel`: the arrays are already
        canonical, so re-canonicalizing and rebuilding the CSR here would
        only burn time.  Arrays are frozen, as ``__init__`` leaves them,
        and take the CSR dtypes (int64 ``indptr``, int32 ``indices``),
        which costs a copy only for an array of another dtype.
        """
        graph = object.__new__(cls)
        graph._set_csr(
            int(n),
            np.asarray(indptr, dtype=np.int64),
            np.asarray(indices, dtype=np.int32),
        )
        return graph

    def __reduce__(self):
        return (Graph._from_csr, (self._n, self._indptr, self._indices))

    # -- basic accessors --------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._indices.shape[0] // 2

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointers (read-only, int64: they are arc offsets)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column indices (read-only, int32, per-row sorted)."""
        return self._indices

    @property
    def indices_intp(self) -> np.ndarray:
        """``indices`` as intp (read-only), built on first access and cached.

        For per-vertex Python loops that index arrays with neighbor
        lists: NumPy indexes with a small int32 array several times
        slower than with an intp one.  It is a second copy of the
        largest array, so the array engines never ask for it.
        """
        if self._indices_intp is None:
            self._indices_intp = self._indices.astype(np.intp)
            self._indices_intp.setflags(write=False)
        return self._indices_intp

    @property
    def edges(self) -> np.ndarray:
        """Canonical int64 ``(m, 2)`` edge array (read-only, lexicographically sorted).

        Derived from the CSR on first access and then cached.
        """
        if self._edges is None:
            self._edges = self._upper_arcs()
            self._edges.setflags(write=False)
        return self._edges

    def _upper_arcs(self) -> np.ndarray:
        """The arcs ``(row, col)`` with ``col > row``: the canonical edges,
        already in lexicographic order."""
        rows = np.repeat(np.arange(self._n, dtype=np.int64), csr_degrees(self._indptr))
        upper = self._indices > rows
        return np.stack([rows[upper], self._indices[upper]], axis=1, dtype=np.int64)

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
        """True when the graph is connected (single vertex counts as connected).

        Computed on first call and cached: the graph is immutable.
        """
        if self._connected is None:
            # Level-synchronous BFS from vertex 0.  Each level gathers its
            # rows n/16 at a time, so a wide level never holds all of its
            # neighbour lists at once.
            seen = np.zeros(self._n, dtype=bool)
            mark = np.zeros(self._n, dtype=bool)
            frontier = np.zeros(1, dtype=np.int64)
            seen[0] = True
            step = max(1024, self._n >> 4)
            while frontier.size:
                parts = []
                for lo in range(0, frontier.size, step):
                    nxt = gather_rows(self._indptr, self._indices, frontier[lo : lo + step])
                    parts.append(distinct_ids(nxt[~seen[nxt]], mark, self._n))
                    seen[parts[-1]] = True
                frontier = np.concatenate(parts)
            self._connected = bool(seen.all())
        return self._connected

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
        """Return the isomorphic graph with vertex ``u`` renamed ``perm[u]``.

        A relabeling of a simple graph is simple, so nothing is checked
        again: one sort of the relabeled arc keys ``perm[u]·n + perm[v]``,
        taken straight from the CSR, yields the sorted neighbor lists, and
        vertex ``perm[u]`` inherits the degree of ``u``.
        """
        n = self._n
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        deg = csr_degrees(self._indptr)
        arcs = np.repeat(perm * n, deg)
        arcs += perm[self._indices]
        arcs.sort()
        np.remainder(arcs, n, out=arcs)
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[1:][perm] = deg
        np.cumsum(indptr, out=indptr)
        graph = Graph._from_csr(n, indptr, arcs.astype(np.int32))
        graph._connected = self._connected  # isomorphic: same connectivity
        return graph

    def union(self, other: "Graph", bridge_edges: Iterable[tuple[int, int]]) -> "Graph":
        """Disjoint union with ``other`` plus bridging edges.

        Vertices of ``other`` are shifted by ``self.n``; ``bridge_edges`` are
        given as ``(u_in_self, v_in_other)`` pairs.  Used by the
        self-stabilization experiments (paper Section VIII) to join two
        long-running components.
        """
        off = self._n
        bridges = np.asarray(
            [(u, v + off) for (u, v) in bridge_edges], dtype=np.int64
        ).reshape(-1, 2)
        all_edges = np.concatenate([self._upper_arcs(), other._upper_arcs() + off, bridges])
        return Graph(self._n + other._n, all_edges)

    # -- interop ----------------------------------------------------------

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (used by test oracles)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self._n))
        g.add_edges_from(self._upper_arcs().tolist())
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
        # The CSR of a simple graph is canonical, so it decides equality.
        return (
            self._n == other._n
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:
        return hash((self._n, self._indptr.tobytes(), self._indices.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.num_edges}, Δ={self.max_degree})"
