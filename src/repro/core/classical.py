"""The classical telephone model, as a baseline engine.

The classical model (Frieze-Grimmett) differs from the mobile telephone
model in the one property the paper identifies as decisive: a node may
accept an **unbounded** number of incoming connections per round.  In the
classical PUSH-PULL strategy every node calls one uniformly random
neighbor each round and the rumor crosses each call in both directions.

The paper uses this model as the reference point: on stable graphs,
classical PUSH-PULL spreads a rumor in ``O((1/α)·polylog n)`` rounds,
whereas blind gossip in the mobile model needs ``Θ(Δ²)`` more — the cost
of the single-connection restriction (experiment E10).
"""

from __future__ import annotations

import numpy as np

from repro.core.trace import RunResult
from repro.graphs.dynamic import DynamicGraph
from repro.util.csrops import segmented_random_pick
from repro.util.rng import make_rng

__all__ = ["classical_push_pull_rumor", "classical_push_pull_leader"]


def classical_push_pull_rumor(
    dg: DynamicGraph,
    source: int,
    *,
    max_rounds: int,
    seed: int | None = None,
) -> RunResult:
    """Classical-model PUSH-PULL rumor spreading from ``source``.

    Each round every node calls one uniformly random neighbor; a call
    between an informed and an uninformed endpoint informs the latter
    (PUSH if the caller is informed, PULL otherwise).  Unbounded accepts:
    every call connects.

    Returns a :class:`~repro.core.trace.RunResult` whose ``rounds`` is the
    first round after which all nodes are informed.
    """
    n = dg.n
    if not 0 <= source < n:
        raise ValueError("source out of range")
    rng = make_rng(seed, "classical-rumor")
    informed = np.zeros(n, dtype=bool)
    informed[source] = True
    for r in range(1, max_rounds + 1):
        graph = dg.graph_at(r)
        callers, callees = segmented_random_pick(graph.indptr, graph.indices, rng)
        crossed = informed[callers] | informed[callees]
        informed[callers[crossed]] = True
        informed[callees[crossed]] = True
        if informed.all():
            return RunResult(stabilized=True, rounds=r, rounds_after_last_activation=r)
    return RunResult(
        stabilized=bool(informed.all()),
        rounds=max_rounds,
        rounds_after_last_activation=max_rounds,
    )


def classical_push_pull_leader(
    dg: DynamicGraph,
    uid_keys: np.ndarray,
    *,
    max_rounds: int,
    seed: int | None = None,
) -> RunResult:
    """Classical-model min-UID gossip (leader election baseline).

    Every node calls one random neighbor per round and both endpoints keep
    the smaller of their current minimum UIDs.  Stabilizes when all nodes
    hold the global minimum.
    """
    n = dg.n
    keys = np.asarray(uid_keys, dtype=np.int64)
    if keys.shape != (n,):
        raise ValueError("uid_keys must have one key per vertex")
    rng = make_rng(seed, "classical-leader")
    best = keys.copy()
    target_key = int(keys.min())
    for r in range(1, max_rounds + 1):
        graph = dg.graph_at(r)
        callers, callees = segmented_random_pick(graph.indptr, graph.indices, rng)
        lo = np.minimum(best[callers], best[callees])
        # Unbounded accepts: apply all calls; a callee contacted repeatedly
        # ends with the min over its calls via the minimum-reduce below.
        np.minimum.at(best, callers, lo)
        np.minimum.at(best, callees, lo)
        if (best == target_key).all():
            return RunResult(stabilized=True, rounds=r, rounds_after_last_activation=r)
    return RunResult(
        stabilized=bool((best == target_key).all()),
        rounds=max_rounds,
        rounds_after_last_activation=max_rounds,
    )
