"""Per-row loop formulation of the csrops pick and accept kernels.

Test-only reference.  Each kernel walks every row in a plain Python loop
but consumes the Generator exactly as the vectorized kernels do: one
``rng.integers(0, counts)`` over the rows that can pick, in ascending
(replica, row) order, and one ``rng.random(groups)`` per acceptance.
Equal draws over equal counts select equal entries, so the vectorized
kernels must agree with these bit for bit.  (These are the count/locate
kernels the removed numba backend compiled, kept as plain Python.)

``TABLE`` maps the public kernel names to these implementations.  Every
pick returns compact ``(senders, targets)`` pairs; :func:`pick_grid`
turns a pick's flat pairs into a ``(T, n)`` grid and :func:`subset_grid`
a subset pick's pairs into an array aligned with its rows.
"""

from __future__ import annotations

import numpy as np

from repro.util.csrops import _check_mask, _require_bool


def _check_masks(indptr, indices, neighbor_mask, flat_mask, lead=()):
    if flat_mask is not None:
        _check_mask("flat_mask", flat_mask, lead + indices.shape)
    if neighbor_mask is not None:
        _check_mask("neighbor_mask", neighbor_mask, lead + (indptr.shape[0] - 1,))


def _pick_cells(indptr, indices, rng, cells):
    """Pick for each ``(row, neighbor_mask, flat_mask)`` cell, in order."""
    entries = [
        [
            p
            for p in range(indptr[u], indptr[u + 1])
            if (nmask is None or nmask[indices[p]]) and (fmask is None or fmask[p])
        ]
        for u, nmask, fmask in cells
    ]
    out = np.full(len(cells), -1, dtype=np.int64)
    drawn = [i for i, e in enumerate(entries) if e]
    if drawn:
        j = rng.integers(0, np.array([len(entries[i]) for i in drawn], dtype=np.int64))
        for i, ji in zip(drawn, j):
            out[i] = indices[entries[i][ji]]
    return out


def segmented_random_pick(
    indptr, indices, rng, *, active=None, neighbor_mask=None, flat_mask=None
):
    n = indptr.shape[0] - 1
    if active is None:
        active = np.ones(n, dtype=bool)
    _require_bool("active", active)
    _check_masks(indptr, indices, neighbor_mask, flat_mask)
    rows = np.array([u for u in range(n) if active[u]], dtype=np.int64)
    out = _pick_cells(
        indptr, indices, rng, [(u, neighbor_mask, flat_mask) for u in rows]
    )
    return rows[out >= 0], out[out >= 0]


def segmented_random_pick_subset(indptr, indices, rng, vertices):
    vertices = np.asarray(vertices, dtype=np.int64)
    out = _pick_cells(indptr, indices, rng, [(int(v), None, None) for v in vertices])
    return vertices[out >= 0], out[out >= 0]


def batched_random_pick(
    indptr, indices, rng, active, *, neighbor_mask=None, flat_mask=None
):
    _require_bool("active", active)
    if active.ndim != 2 or indptr.shape[0] != active.shape[1] + 1:
        raise ValueError("active must have shape (T, n)")
    T, n = active.shape
    _check_masks(indptr, indices, neighbor_mask, flat_mask, lead=(T,))
    cells = [(t, u) for t in range(T) for u in range(n) if active[t, u]]
    out = _pick_cells(
        indptr,
        indices,
        rng,
        [
            (
                u,
                None if neighbor_mask is None else neighbor_mask[t],
                None if flat_mask is None else flat_mask[t],
            )
            for t, u in cells
        ],
    )
    picked = [(t * n + u, t * n + p) for (t, u), p in zip(cells, out) if p >= 0]
    senders, targets = np.array(picked, dtype=np.int64).reshape(-1, 2).T
    return senders.copy(), targets.copy()


def pick_grid(pairs, T, n):
    """Scatter a pick's flat ``(senders, targets)`` pairs to a ``(T, n)``
    grid of local picks, ``-1`` where a row did not pick."""
    senders, targets = pairs
    grid = np.full(T * n, -1, dtype=np.int64)
    grid[senders] = targets % n
    return grid.reshape(T, n)


def subset_grid(indptr, vertices, pairs):
    """A subset pick's ``(senders, targets)`` aligned with ``vertices``,
    ``-1`` where a row did not pick.

    Asserts the senders are exactly the listed rows that have a neighbor,
    in their given order (repeats included)."""
    senders, targets = pairs
    vertices = np.asarray(vertices, dtype=np.int64)
    has = indptr[vertices + 1] > indptr[vertices]
    assert np.array_equal(senders, vertices[has])
    grid = np.full(vertices.size, -1, dtype=np.int64)
    grid[has] = targets
    return grid


def segmented_uniform_accept_pairs(senders, targets, rng):
    senders = np.asarray(senders, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if senders.shape != targets.shape:
        raise ValueError("senders and targets must have equal shape")
    groups: dict[int, list[int]] = {}
    for s, t in zip(senders.tolist(), targets.tolist()):
        groups.setdefault(t, []).append(s)
    receivers = sorted(groups)
    u = rng.random(len(receivers)) if receivers else np.empty(0)
    winners = [groups[t][int(x * len(groups[t]))] for t, x in zip(receivers, u)]
    return np.array(receivers, dtype=np.int64), np.array(winners, dtype=np.int64)


TABLE = {
    "segmented_random_pick": segmented_random_pick,
    "segmented_random_pick_subset": segmented_random_pick_subset,
    "segmented_uniform_accept_pairs": segmented_uniform_accept_pairs,
    "batched_random_pick": batched_random_pick,
}
