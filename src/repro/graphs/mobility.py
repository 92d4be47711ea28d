"""Random-waypoint mobility: a physically-motivated dynamic graph.

The abstract churn generators in :mod:`repro.graphs.dynamic` exercise the
stability contract directly; this module provides the kind of dynamic
graph the paper's motivation describes — *people carrying phones* — as a
random-waypoint model:

* ``n`` devices move in the unit square; each picks a waypoint uniformly
  at random, moves toward it at its speed, then picks a new one;
* the topology of an epoch is the unit-disk graph of radius ``radius`` on
  the positions at the epoch's start, held for ``τ`` rounds;
* because the model requires connected topologies, disconnected unit-disk
  snapshots are *repaired* by the shortest device pairs that join their
  components into one, modelling a minimal relay overlay.

Determinism: positions are a pure function of ``(seed, epoch)`` computed by
advancing the walk epoch-by-epoch from its initial state; epochs are cached
so that ``graph_at`` may be called out of order.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.dynamic import DynamicGraph, epoch_of_round
from repro.graphs.static import Graph
from repro.util.rng import make_rng

__all__ = ["RandomWaypointDynamicGraph", "GroupWaypointDynamicGraph", "unit_disk_graph"]


def unit_disk_graph(positions: np.ndarray, radius: float, *, repair: bool = True) -> Graph:
    """Unit-disk graph of ``positions`` with optional connectivity repair.

    Parameters
    ----------
    positions
        ``(n, 2)`` array of points in the unit square.
    radius
        Connection radius: ``u ~ v`` iff ``|pos_u - pos_v| <= radius``.
    repair
        When true, add the shortest edges that join the unit-disk
        components into one (see :func:`_bridges`).
    """
    pos = np.asarray(positions, dtype=np.float64)
    n = pos.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    pair_d2 = np.sum((pos[iu] - pos[ju]) ** 2, axis=-1)
    mask = pair_d2 <= radius * radius
    edges = np.stack([iu[mask], ju[mask]], axis=1)
    if repair:
        edges = np.concatenate([edges, _bridges(n, iu, ju, pair_d2, mask)])
    return Graph(n, edges)


def _bridges(
    n: int, iu: np.ndarray, ju: np.ndarray, pair_d2: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """Shortest pairs ``(iu[k], ju[k])`` joining the unit-disk components.

    One Kruskal pass with union-find over the ``n`` vertices: the
    unit-disk edges (``mask``) first, then the other pairs stably sorted
    by length, each pair that still joins two components being a bridge.
    Equal lengths keep pair order, so the bridges are exactly those of
    repeatedly adding the globally shortest pair between two components
    (the first such pair on ties).  Returns them as a ``(k, 2)`` array.
    """
    rest = np.flatnonzero(~mask)
    rest = rest[np.argsort(pair_d2[rest], kind="stable")]
    order = np.concatenate([np.flatnonzero(mask), rest])
    root = list(range(n))
    components, bridges = n, []
    for k, u, v in zip(order.tolist(), iu[order].tolist(), ju[order].tolist()):
        if components == 1:
            break
        while root[u] != u:
            root[u] = u = root[root[u]]
        while root[v] != v:
            root[v] = v = root[root[v]]
        if u != v:
            root[u] = v
            components -= 1
            if not mask[k]:
                bridges.append(k)
    return np.stack([iu[bridges], ju[bridges]], axis=1)


class GroupWaypointDynamicGraph(DynamicGraph):
    """Clustered mobility: groups share waypoints, members jitter locally.

    Models crowds (protest blocs, tour groups): the network is ``groups``
    clusters of roughly equal size; each cluster follows its own random
    waypoint walk, and each member's position is the cluster anchor plus a
    bounded personal offset re-sampled per epoch.  Intra-cluster topology
    stays dense while inter-cluster contact depends on anchors drifting
    within radio range — producing exactly the merge/split behaviour the
    self-stabilization experiments care about.

    Connectivity is repaired the same way as the base model (minimal
    bridge edges), so the formal model's connected-topology requirement
    always holds.
    """

    def __init__(
        self,
        n: int,
        tau: int,
        *,
        groups: int = 3,
        radius: float = 0.3,
        speed: float = 0.05,
        spread: float = 0.08,
        seed: int | None = None,
    ):
        if n < 2:
            raise ValueError("need at least two devices")
        if tau < 1:
            raise ValueError("tau must be >= 1")
        if not 1 <= groups <= n:
            raise ValueError("groups must be in [1, n]")
        if radius <= 0 or speed < 0 or spread < 0:
            raise ValueError("radius positive; speed and spread non-negative")
        self.n = n
        self.tau = tau
        self._groups = groups
        self._radius = radius
        self._speed = speed
        self._spread = spread
        self._seed = seed
        rng = make_rng(seed, "group-init")
        self._member_group = rng.integers(0, groups, size=n)
        self._anchor0 = rng.random((groups, 2))
        self._way0 = rng.random((groups, 2))
        self._states: dict[int, tuple[np.ndarray, np.ndarray]] = {
            0: (self._anchor0, self._way0)
        }
        self._graphs: dict[int, Graph] = {}
        self._last_epoch = 0

    def _advance(self, pos, way, e):
        rng = make_rng(self._seed, "group-epoch", e)
        delta = way - pos
        dist = np.linalg.norm(delta, axis=1)
        arrive = dist <= self._speed
        newpos = pos.copy()
        moving = ~arrive & (dist > 0)
        newpos[moving] = pos[moving] + delta[moving] * (self._speed / dist[moving, None])
        newpos[arrive] = way[arrive]
        newway = way.copy()
        if np.any(arrive):
            newway[arrive] = rng.random((int(arrive.sum()), 2))
        return newpos, newway

    def _state(self, e: int):
        if e in self._states:
            return self._states[e]
        pos, way = self._states[self._last_epoch]
        for step in range(self._last_epoch, e):
            pos, way = self._advance(pos, way, step + 1)
            self._states[step + 1] = (pos, way)
        self._last_epoch = max(self._last_epoch, e)
        return self._states[e]

    def graph_at(self, r: int) -> Graph:
        e = epoch_of_round(r, self.tau)
        g = self._graphs.get(e)
        if g is None:
            anchors, _ = self._state(e)
            rng = make_rng(self._seed, "group-jitter", e)
            offsets = (rng.random((self.n, 2)) - 0.5) * 2 * self._spread
            positions = np.clip(anchors[self._member_group] + offsets, 0.0, 1.0)
            g = unit_disk_graph(positions, self._radius, repair=True)
            if len(self._graphs) > 4096:
                self._graphs.clear()
            self._graphs[e] = g
        return g


class RandomWaypointDynamicGraph(DynamicGraph):
    """Random-waypoint mobility quantized to ``τ``-stable epochs.

    Parameters
    ----------
    n
        Number of devices.
    tau
        Rounds per epoch (stability factor).
    radius
        Unit-disk connection radius.
    speed
        Distance moved per *epoch* (the walk advances once per epoch so the
        declared stability is honoured exactly).
    seed
        Root seed for initial placement and waypoint choices.
    """

    def __init__(
        self,
        n: int,
        tau: int,
        *,
        radius: float = 0.3,
        speed: float = 0.05,
        seed: int | None = None,
    ):
        if n < 2:
            raise ValueError("need at least two devices")
        if tau < 1:
            raise ValueError("tau must be >= 1")
        if radius <= 0 or speed < 0:
            raise ValueError("radius must be positive and speed non-negative")
        self.n = n
        self.tau = tau
        self._radius = radius
        self._speed = speed
        self._seed = seed
        rng = make_rng(seed, "waypoint-init")
        self._pos0 = rng.random((n, 2))
        self._way0 = rng.random((n, 2))
        # Sequentially-computed epoch states: epoch -> (positions, waypoints).
        self._states: dict[int, tuple[np.ndarray, np.ndarray]] = {
            0: (self._pos0, self._way0)
        }
        self._graphs: dict[int, Graph] = {}
        self._last_epoch = 0

    def _advance(self, pos: np.ndarray, way: np.ndarray, e: int):
        """One epoch step of the waypoint walk (vectorized over devices)."""
        rng = make_rng(self._seed, "waypoint-epoch", e)
        delta = way - pos
        dist = np.linalg.norm(delta, axis=1)
        arrive = dist <= self._speed
        newpos = pos.copy()
        moving = ~arrive & (dist > 0)
        newpos[moving] = pos[moving] + delta[moving] * (self._speed / dist[moving, None])
        newpos[arrive] = way[arrive]
        newway = way.copy()
        if np.any(arrive):
            newway[arrive] = rng.random((int(arrive.sum()), 2))
        return newpos, newway

    def _state(self, e: int) -> tuple[np.ndarray, np.ndarray]:
        if e in self._states:
            return self._states[e]
        # Advance sequentially from the last materialized epoch.
        pos, way = self._states[self._last_epoch]
        for step in range(self._last_epoch, e):
            pos, way = self._advance(pos, way, step + 1)
            self._states[step + 1] = (pos, way)
        self._last_epoch = max(self._last_epoch, e)
        return self._states[e]

    def graph_at(self, r: int) -> Graph:
        e = epoch_of_round(r, self.tau)
        g = self._graphs.get(e)
        if g is None:
            pos, _ = self._state(e)
            g = unit_disk_graph(pos, self._radius, repair=True)
            if len(self._graphs) > 4096:
                self._graphs.clear()
            self._graphs[e] = g
        return g
