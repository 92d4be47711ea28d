"""Segmented operations on CSR adjacency structures.

The vectorized round engine (:mod:`repro.core.vectorized`) represents the
current topology as a CSR pair ``(indptr, indices)`` and needs two
primitives executed once per simulated round:

``segmented_random_pick``
    every *sender* chooses one neighbor uniformly at random, optionally
    restricted by a boolean predicate over neighbors (e.g. "neighbors
    currently advertising tag 1");

``segmented_uniform_accept``
    every *receiver* with at least one incoming proposal accepts one
    uniformly at random.

Both are fully vectorized (no per-node Python loop); this is the hot path
identified when profiling large sweeps, per the optimize-the-bottleneck
workflow.  The reference engine implements the same semantics with plain
per-node loops and the two are cross-validated in the test suite.

The batched round engine (:mod:`repro.core.batched`) runs ``T``
independent replicas of one configuration at once and needs the same two
primitives with a leading replica axis:

``batched_random_pick``
    per-replica uniform neighbor choice over a *shared* CSR topology,
    with ``(T, n)``/``(T, nnz)`` masks — one kernel dispatch covers all
    replicas of a round;

``batched_uniform_accept``
    per-(replica, receiver) uniform acceptance over flat proposal arrays
    carrying a replica id — one sort covers all replicas.

Replicas with *distinct* topologies come in two tiers.  Isomorphic churn
(relabelings of one shared base graph — the dominant dynamic workload) is
served by :func:`batched_permuted_pick`, which routes each replica's pick
through its ``(n,)`` relabel permutation against the single base CSR, so
no per-round graph construction or restacking happens at all.  Genuinely
structure-changing replicas are handled by :func:`stack_csr`, which
assembles a block-diagonal CSR so the plain segmented kernels batch over
``T·n`` vertices directly.

Sparse-activity rounds (the large-n path) add two subset primitives:
:func:`gather_rows` (concatenated neighbor lists of a row subset, used
for frontier expansion) and :func:`segmented_random_pick_subset` (uniform
neighbor choice for an explicit row subset, so a round whose active
frontier is small never touches the full ``(n,)``/``(nnz,)`` arrays).

Masked picks
------------
Every masked pick — batched, single-replica and row-subset — runs
through one kernel, :func:`_pick_eligible`: per-row eligible counts from
a single ``np.add.reduceat`` over the eligibility, one bounded draw per
row with an eligible neighbor, and a direct lookup of the ``j``-th
eligible entry in the flat list of eligible positions.  Replicas with no
sender or no eligible entry are dropped before the eligibility gather.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "build_csr",
    "canonical_csr",
    "all_distinct",
    "csr_degrees",
    "gather_rows",
    "unique_nodes",
    "segmented_random_pick",
    "segmented_random_pick_subset",
    "segmented_uniform_accept",
    "segmented_uniform_accept_pairs",
    "batched_random_pick",
    "batched_permuted_pick",
    "batched_uniform_accept",
    "invert_permutations",
    "stack_csr",
]


def _require_bool(name: str, mask: np.ndarray) -> None:
    if mask.dtype != np.bool_:
        raise TypeError(
            f"{name} must have dtype bool, got {mask.dtype} (a non-boolean "
            "mask would be summed, not tested, by the eligibility count)"
        )


def _check_mask(name: str, mask: np.ndarray, shape: tuple[int, ...]) -> None:
    _require_bool(name, mask)
    if mask.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {mask.shape}")


#: Largest vertex count whose pair keys ``u·n + v`` (all ``< n²``) fit in
#: int64; :func:`canonical_csr` refuses larger ``n``.
MAX_KEY_N = 3_037_000_499


def canonical_csr(
    n: int, edges: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical edge array and CSR adjacency of an undirected edge list.

    Each edge becomes one int64 key ``min(u, v)·n + max(u, v)``; one sort
    of those keys yields the lexicographically sorted ``(min, max)`` edge
    array and exposes duplicates as equal neighbors.  Each arc becomes
    ``src·n + dst``, so one sort of the ``2m`` arc keys yields every
    row's sorted neighbor list at once.

    Returns
    -------
    edges, indptr, indices
        The ``(m, 2)`` canonical edges, CSR row pointers (length
        ``n + 1``) and the concatenated sorted neighbor lists.

    Raises
    ------
    ValueError
        When ``n·n`` overflows int64 (checked before anything is
        allocated), or on an endpoint outside ``0..n-1``, a self-loop or
        a duplicate edge (in either orientation).
    """
    if n > MAX_KEY_N:
        raise ValueError(
            f"n={n} exceeds {MAX_KEY_N}: edge keys u*n+v would overflow int64"
        )
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise ValueError("edge endpoint out of range")
    u, v = edges[:, 0], edges[:, 1]
    if np.any(u == v):
        raise ValueError("self-loops are not allowed")
    keys = np.minimum(u, v) * n + np.maximum(u, v)
    keys.sort()
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError("duplicate edges are not allowed")
    lo, hi = np.divmod(keys, n)
    # Symmetrize: each undirected edge contributes two directed arcs.
    src = np.concatenate([lo, hi])
    arcs = src * n
    arcs[: lo.size] += hi
    arcs[lo.size :] += lo
    arcs.sort()
    np.remainder(arcs, n, out=arcs)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return np.stack([lo, hi], axis=1), indptr, arcs


def build_csr(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Build a CSR adjacency ``(indptr, indices)`` from an undirected edge list.

    Parameters
    ----------
    n
        Number of vertices (labelled ``0..n-1``).
    edges
        ``(m, 2)`` integer array of undirected edges.  Self-loops and
        duplicate edges are rejected.

    Returns
    -------
    indptr, indices
        Standard CSR row pointers (length ``n + 1``) and, for each vertex,
        its sorted neighbor list.
    """
    _, indptr, indices = canonical_csr(n, edges)
    return indptr, indices


def csr_degrees(indptr: np.ndarray) -> np.ndarray:
    """Vertex degrees from CSR row pointers."""
    return indptr[1:] - indptr[:-1]


def _subset_flat_positions(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat CSR positions of ``rows``' entries, concatenated in row order.

    Returns ``(pos, starts, ends)`` where ``pos`` indexes ``indices`` and
    ``starts[i]..ends[i]`` delimit row ``i``'s segment inside ``pos``.
    """
    deg = indptr[rows + 1] - indptr[rows]
    ends = np.cumsum(deg)
    starts = ends - deg
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return np.empty(0, dtype=np.int64), starts, ends
    pos = (
        np.arange(total, dtype=np.int64)
        - np.repeat(starts, deg)
        + np.repeat(indptr[rows], deg)
    )
    return pos, starts, ends


def gather_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Concatenated CSR entries (neighbor lists) of ``rows``, in row order.

    The frontier-expansion primitive of the sparse-activity path: one
    vectorized gather replaces a per-row Python loop of slices.  Rows may
    repeat; empty rows contribute nothing.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return np.empty(0, dtype=np.int64)
    pos, _, _ = _subset_flat_positions(indptr, rows)
    return indices[pos]


def unique_nodes(ids: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer id array.

    Result-identical to :func:`numpy.unique` but via an explicit
    sort-and-diff — NumPy ≥ 2.3 routes ``unique`` through a hash table
    that is an order of magnitude slower at the few-thousand-element
    sizes frontier rounds produce every round.
    """
    if ids.size <= 1:
        return ids.astype(np.int64, copy=True).reshape(-1)
    a = np.sort(ids.reshape(-1))
    keep = np.empty(a.size, dtype=bool)
    keep[0] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def all_distinct(ids: np.ndarray) -> bool:
    """True when no value repeats in ``ids`` (the UID / exclusivity checks)."""
    return unique_nodes(ids).size == ids.size


def _pick_eligible(
    indptr: np.ndarray,
    rng: np.random.Generator,
    active: np.ndarray,
    eligible: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One uniform eligible entry per active row of every replica.

    The masked-pick kernel shared by every public pick.  ``active`` is an
    ``(L, n)`` sender mask and ``eligible`` an ``(L, nnz)`` per-entry
    eligibility over the CSR described by ``indptr``.  Rows that are
    active and have an eligible entry draw ``j`` from one
    ``rng.integers(0, counts)`` call, in ascending (replica, row) order,
    and pick the ``j``-th eligible entry of their row.

    Returns
    -------
    (cells, pos)
        ``cells`` are flat ``(L, n)`` indices of the rows that picked,
        ascending; ``pos`` are the flat ``(L, nnz)`` positions of their
        picks.
    """
    L, nnz = eligible.shape
    n = indptr.shape[0] - 1
    flat = eligible.reshape(L * nnz)
    # Non-empty rows tile [0, nnz) back to back (the first starts at 0, the
    # last ends at nnz), so their starts alone delimit every row segment
    # of every replica for one reduceat; isolated rows never index it.
    nonempty = np.flatnonzero(indptr[1:] > indptr[:-1])
    k = nonempty.size
    starts = indptr[nonempty]
    if L > 1:
        starts = (starts[None, :] + (np.arange(L, dtype=np.int64) * nnz)[:, None]).reshape(L * k)
    counts = np.add.reduceat(flat.view(np.uint8), starts, dtype=np.int64)
    if k < n:
        active = active[:, nonempty]
    cells = np.flatnonzero(active.reshape(L * k) & (counts > 0))
    if cells.size == 0:
        return cells, cells
    j = rng.integers(0, counts[cells])
    before = np.cumsum(counts)
    before -= counts  # eligible entries ahead of each row, across replicas
    pos = np.flatnonzero(flat)[before[cells] + j]
    if k < n:
        rep = cells // k
        cells = rep * n + nonempty[cells - rep * k]
    return cells, pos


def segmented_random_pick(
    indptr: np.ndarray,
    indices: np.ndarray,
    rng: np.random.Generator,
    *,
    active: np.ndarray | None = None,
    neighbor_mask: np.ndarray | None = None,
    flat_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Uniform random neighbor choice for every (active) row.

    For each row ``u`` with ``active[u]`` true, picks one entry uniformly at
    random from the row's neighbor list, optionally restricted to neighbors
    ``v`` with ``neighbor_mask[v]`` true and/or to CSR entries ``i`` with
    ``flat_mask[i]`` true (a per-*entry* mask, for eligibility that depends
    on the (row, neighbor) pair rather than the neighbor alone).  Rows that
    are inactive, empty, or whose restriction leaves no eligible neighbor
    get ``-1``.

    Parameters
    ----------
    indptr, indices
        CSR adjacency.
    rng
        Generator used for the per-row uniform draws.
    active
        Boolean array over rows; ``None`` means all rows are active.
    neighbor_mask
        Boolean ``(n,)`` array over vertices restricting eligible
        neighbors; ``None`` means every neighbor is eligible.
    flat_mask
        Boolean array aligned with ``indices`` restricting eligible CSR
        entries; combined (AND) with ``neighbor_mask`` when both given.

    Returns
    -------
    numpy.ndarray
        ``pick`` of length ``n`` with ``pick[u]`` the chosen neighbor of
        ``u`` or ``-1``.
    """
    n = indptr.shape[0] - 1
    pick = np.full(n, -1, dtype=np.int64)
    if active is None:
        active = np.ones(n, dtype=bool)
    else:
        _require_bool("active", active)

    if neighbor_mask is None and flat_mask is None:
        deg = csr_degrees(indptr)
        rows = np.flatnonzero(active & (deg > 0))
        if rows.size == 0:
            return pick
        offsets = rng.integers(0, deg[rows])
        pick[rows] = indices[indptr[rows] + offsets]
        return pick

    if flat_mask is not None:
        _check_mask("flat_mask", flat_mask, indices.shape)
    if neighbor_mask is not None:
        _check_mask("neighbor_mask", neighbor_mask, (n,))
        eligible = neighbor_mask[indices]
        if flat_mask is not None:
            eligible &= flat_mask
    else:
        eligible = flat_mask
    if eligible.size == 0:
        return pick
    # The single-replica case of the batched kernel: T = 1.
    rows, pos = _pick_eligible(indptr, rng, active[None, :], eligible[None, :])
    pick[rows] = indices[pos]
    return pick


def segmented_random_pick_subset(
    indptr: np.ndarray,
    indices: np.ndarray,
    rng: np.random.Generator,
    vertices: np.ndarray,
    *,
    neighbor_mask: np.ndarray | None = None,
    flat_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Uniform random neighbor choice for an explicit row subset.

    Sparse-frontier form of :func:`segmented_random_pick`: only the rows
    listed in ``vertices`` are touched, so the cost is
    ``O(sum deg(vertices))`` instead of ``O(nnz)``.  Masks keep their
    global shapes (``neighbor_mask`` over vertices, ``flat_mask`` aligned
    with ``indices``); there is no ``active`` mask — callers pass exactly
    the rows that should pick.

    Returns
    -------
    numpy.ndarray
        ``pick`` aligned with ``vertices``: the chosen neighbor of
        ``vertices[i]`` or ``-1`` when no neighbor is eligible.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    k = vertices.size
    pick = np.full(k, -1, dtype=np.int64)
    if flat_mask is not None:
        _check_mask("flat_mask", flat_mask, indices.shape)
    if neighbor_mask is not None:
        _check_mask("neighbor_mask", neighbor_mask, (indptr.shape[0] - 1,))
    if k == 0:
        return pick

    if neighbor_mask is None and flat_mask is None:
        deg = indptr[vertices + 1] - indptr[vertices]
        rows = np.flatnonzero(deg > 0)
        if rows.size == 0:
            return pick
        offsets = rng.integers(0, deg[rows])
        pick[rows] = indices[indptr[vertices[rows]] + offsets]
        return pick

    # Masked: gather the selected rows' CSR segments into one flat run —
    # itself a CSR over the k selected rows — and run the masked kernel on
    # that O(sum deg(vertices)) run instead of the full nnz array.
    pos, starts, _ = _subset_flat_positions(indptr, vertices)
    if pos.size == 0:
        return pick
    nbrs = indices[pos]
    if neighbor_mask is not None:
        eligible = neighbor_mask[nbrs]
        if flat_mask is not None:
            eligible &= flat_mask[pos]
    else:
        eligible = flat_mask[pos]
    run_indptr = np.append(starts, pos.size)
    rows, loc = _pick_eligible(
        run_indptr, rng, np.ones((1, k), dtype=bool), eligible[None, :]
    )
    pick[rows] = nbrs[loc]
    return pick


def segmented_uniform_accept(
    senders: np.ndarray,
    targets: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Uniform acceptance of one incoming proposal per receiver.

    Given parallel arrays ``senders``/``targets`` (``senders[i]`` proposed to
    ``targets[i]``), selects for each distinct target one proposer uniformly
    at random, matching the model's rule that a receiving node accepts an
    incoming proposal chosen uniformly from the arrivals.

    Returns
    -------
    numpy.ndarray
        ``accepted`` of length ``n`` with ``accepted[v]`` the sender whose
        proposal ``v`` accepted, or ``-1`` if ``v`` received none.
    """
    accepted = np.full(n, -1, dtype=np.int64)
    receivers, winners = segmented_uniform_accept_pairs(senders, targets, rng)
    accepted[receivers] = winners
    return accepted


def segmented_uniform_accept_pairs(
    senders: np.ndarray,
    targets: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Compact form of :func:`segmented_uniform_accept`.

    Same acceptance rule and identical RNG consumption, but instead of a
    dense length-``n`` array it returns the parallel pair
    ``(receivers, winners)``: each distinct target exactly once, with the
    sender whose proposal it accepted.  The engines' hot path uses this
    form to avoid materializing (and re-scanning) a dense per-vertex
    array when only the established connections matter.
    """
    senders = np.asarray(senders, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if senders.shape != targets.shape:
        raise ValueError("senders and targets must have equal shape")
    if senders.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    # Stable-by-target order via a unique composite key: quicksort on
    # distinct keys yields exactly the (target, input-position) order a
    # stable sort would, at a fraction of the cost of kind="stable" on
    # the raw (highly duplicated) targets.
    m = targets.size
    order = np.argsort(targets * m + np.arange(m, dtype=np.int64))
    s_sorted = senders[order]
    t_sorted = targets[order]
    # Group boundaries: starts[i]..starts[i+1] share one target.
    is_start = np.empty(t_sorted.size, dtype=bool)
    is_start[0] = True
    np.not_equal(t_sorted[1:], t_sorted[:-1], out=is_start[1:])
    starts = np.flatnonzero(is_start)
    ends = np.concatenate([starts[1:], [t_sorted.size]])
    sizes = ends - starts
    # floor(u * size), u ~ U[0, 1): uniform over each group up to an
    # O(size / 2^53) rounding bias, at about half the cost of a
    # per-element bounded integer draw.
    chosen = starts + (rng.random(starts.size) * sizes).astype(np.int64)
    return t_sorted[starts], s_sorted[chosen]


def batched_random_pick(
    indptr: np.ndarray,
    indices: np.ndarray,
    rng: np.random.Generator,
    active: np.ndarray,
    *,
    neighbor_mask: np.ndarray | None = None,
    flat_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Per-replica uniform neighbor choice over one *shared* CSR topology.

    Semantically equivalent to calling :func:`segmented_random_pick` once
    per replica with that replica's masks, but all ``T`` replicas are
    served by one masked-kernel call — the per-round NumPy dispatch
    overhead is paid once instead of ``T`` times.

    Parameters
    ----------
    indptr, indices
        CSR adjacency shared by every replica (static-topology runs).
    rng
        Generator for the per-(replica, row) uniform draws.
    active
        ``(T, n)`` boolean sender mask (required: it fixes the replica
        count ``T``).
    neighbor_mask
        Optional ``(T, n)`` boolean per-replica vertex eligibility.
    flat_mask
        Optional ``(T, nnz)`` boolean per-replica CSR-entry eligibility,
        combined (AND) with ``neighbor_mask`` when both given.

    Returns
    -------
    numpy.ndarray
        ``(T, n)`` picks; ``pick[t, u]`` is the chosen neighbor of ``u``
        in replica ``t`` or ``-1``.
    """
    _require_bool("active", active)
    if active.ndim != 2:
        raise ValueError("active must have shape (T, n)")
    T, n = active.shape
    if indptr.shape[0] != n + 1:
        raise ValueError("active rows must match the CSR vertex count")
    nnz = indices.shape[0]
    pick = np.full((T, n), -1, dtype=np.int64)

    if neighbor_mask is None and flat_mask is None:
        deg = csr_degrees(indptr)
        rep, rows = np.nonzero(active & (deg > 0)[None, :])
        if rep.size == 0:
            return pick
        offsets = rng.integers(0, deg[rows])
        pick[rep, rows] = indices[indptr[rows] + offsets]
        return pick

    # A replica with no sender or no eligible vertex/entry makes no draw,
    # so dropping it before the (T, nnz) gather leaves the draws unchanged.
    live = active.any(axis=1)
    if neighbor_mask is not None:
        _check_mask("neighbor_mask", neighbor_mask, (T, n))
        live &= neighbor_mask.any(axis=1)
    if flat_mask is not None:
        _check_mask("flat_mask", flat_mask, (T, nnz))
        live &= flat_mask.any(axis=1)
    reps = np.flatnonzero(live)
    if reps.size == 0 or nnz == 0:
        return pick
    if reps.size < T:
        active = active[reps]
        if neighbor_mask is not None:
            neighbor_mask = neighbor_mask[reps]
        if flat_mask is not None:
            flat_mask = flat_mask[reps]
    if neighbor_mask is not None:
        eligible = np.take(neighbor_mask, indices, axis=1)
        if flat_mask is not None:
            eligible &= flat_mask
    else:
        eligible = flat_mask
    cells, pos = _pick_eligible(indptr, rng, active, eligible)
    rep = cells // n
    if reps.size < T:
        cells = cells + (reps[rep] - rep) * n
    pick.reshape(T * n)[cells] = indices[pos - rep * nnz]
    return pick


def batched_permuted_pick(
    indptr: np.ndarray,
    indices: np.ndarray,
    rng: np.random.Generator,
    perm: np.ndarray,
    active: np.ndarray,
    *,
    neighbor_mask: np.ndarray | None = None,
    perm_inv: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-replica uniform neighbor pick through per-replica *relabelings*.

    Replica ``t``'s round topology is the shared base CSR with vertex
    ``u`` renamed ``perm[t, u]`` (``Graph.relabel`` semantics).  This is
    the isomorphic-churn fast path: semantically identical to relabeling
    the base graph per replica and running :func:`segmented_random_pick`
    on each (or on their stacked CSR), but no relabeled graph, re-sorted
    CSR, or block-diagonal stack is ever built — sender and eligibility
    masks are gathered back to base coordinates, the pick runs against
    the one base CSR, and the chosen neighbors are mapped forward.

    Relabeling is a bijection on each vertex's neighbor set, so a uniform
    choice among eligible base neighbors *is* a uniform choice among
    eligible current-label neighbors.

    Parameters
    ----------
    indptr, indices
        Base CSR adjacency shared by every replica.
    rng
        Generator for the per-sender uniform draws.
    perm
        ``(T, n)`` relabel permutations; ``perm[t, u]`` is base vertex
        ``u``'s current label in replica ``t``.
    active
        ``(T, n)`` boolean sender mask in *current* labels.
    neighbor_mask
        Optional ``(T, n)`` per-replica vertex eligibility, in current
        labels.
    perm_inv
        Optional precomputed :func:`invert_permutations` of ``perm``
        (callers that hold ``perm`` fixed across an epoch cache it).

    Returns
    -------
    (senders_flat, targets_flat)
        Compact parallel flat arrays in current labels
        (``flat = t*n + v``): each sender that found an eligible neighbor,
        with its pick.
    """
    _require_bool("active", active)
    if active.ndim != 2:
        raise ValueError("active must have shape (T, n)")
    T, n = active.shape
    if perm.shape != (T, n):
        raise ValueError("perm must have shape (T, n)")
    if indptr.shape[0] != n + 1:
        raise ValueError("active rows must match the CSR vertex count")
    p_flat = perm.reshape(T * n)

    if neighbor_mask is None:
        if perm_inv is None:
            perm_inv = invert_permutations(perm)
        # Unmasked: gather senders to base vertices, draw one neighbor
        # offset each against the base degrees, map the pick forward.
        sflat = np.flatnonzero(active)
        rows = sflat % n
        base_off = sflat - rows
        u = perm_inv.reshape(T * n)[sflat]
        d = (indptr[u + 1] - indptr[u])
        ok = d > 0
        if not ok.all():
            sflat, base_off, u, d = sflat[ok], base_off[ok], u[ok], d[ok]
        if sflat.size == 0:
            return sflat, sflat
        # floor(u * d) for u ~ U[0, 1): uniform over [0, d) up to an
        # O(d / 2^53) rounding bias — immaterial here, and roughly half
        # the cost of a per-element bounded integer draw.
        offsets = (rng.random(d.size) * d).astype(np.int64)
        w = indices[indptr[u] + offsets]
        return sflat, base_off + p_flat[base_off + w]

    # Masked: transport both masks to base coordinates
    # (mask_base[t, u] = mask[t, perm[t, u]]), pick on the base CSR, then
    # map both endpoints forward.
    active_base = np.take_along_axis(active, perm, axis=1)
    nb_base = np.take_along_axis(neighbor_mask, perm, axis=1)
    picks = batched_random_pick(
        indptr, indices, rng, active_base, neighbor_mask=nb_base
    )
    pf = picks.reshape(T * n)
    sel = np.flatnonzero(pf >= 0)  # flat *base* ids t*n + u
    rows = sel % n
    base_off = sel - rows
    sflat = base_off + p_flat[sel]
    tflat = base_off + p_flat[base_off + pf[sel]]
    return sflat, tflat


def invert_permutations(perm: np.ndarray) -> np.ndarray:
    """Row-wise inverse of a ``(T, n)`` batch of permutations.

    ``inv[t, perm[t, u]] == u`` — one scatter for the whole batch.
    """
    inv = np.empty_like(perm)
    np.put_along_axis(
        inv, perm, np.arange(perm.shape[1], dtype=perm.dtype)[None, :], axis=1
    )
    return inv


def batched_uniform_accept(
    rep: np.ndarray,
    senders: np.ndarray,
    targets: np.ndarray,
    T: int,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Uniform acceptance of one incoming proposal per (replica, receiver).

    Proposals across all replicas arrive as parallel flat arrays
    (``senders[i]`` proposed to ``targets[i]`` inside replica ``rep[i]``);
    a single stable sort on the combined ``(replica, target)`` key groups
    every replica's arrivals at once — equivalent to ``T`` independent
    :func:`segmented_uniform_accept` calls, at one dispatch cost.

    Returns
    -------
    numpy.ndarray
        ``(T, n)`` with ``accepted[t, v]`` the sender whose proposal ``v``
        accepted in replica ``t``, or ``-1``.
    """
    rep = np.asarray(rep, dtype=np.int64)
    senders = np.asarray(senders, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if not (rep.shape == senders.shape == targets.shape):
        raise ValueError("rep, senders, and targets must have equal shape")
    if rep.size and (targets.min() < 0 or targets.max() >= n):
        raise ValueError("target out of range")
    if rep.size and (rep.min() < 0 or rep.max() >= T):
        raise ValueError("replica id out of range")
    flat = segmented_uniform_accept(senders, rep * n + targets, T * n, rng)
    return flat.reshape(T, n)


def stack_csr(
    csrs: Sequence[tuple[np.ndarray, np.ndarray]], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Block-diagonal CSR of ``T`` replica topologies on ``n`` vertices each.

    Replica ``t``'s vertex ``v`` becomes global vertex ``t*n + v``; no
    edges cross replicas.  The plain segmented kernels applied to the
    stacked CSR then batch a round over all replicas even when their
    topologies differ (dynamic/adversarial graphs).
    """
    T = len(csrs)
    if T == 0:
        raise ValueError("need at least one replica CSR")
    nnz_off = np.zeros(T + 1, dtype=np.int64)
    for t, (ip, _) in enumerate(csrs):
        if ip.shape[0] != n + 1:
            raise ValueError("every replica CSR must cover n vertices")
        nnz_off[t + 1] = nnz_off[t] + ip[-1]
    indptr = np.empty(T * n + 1, dtype=np.int64)
    indptr[0] = 0
    indices = np.empty(nnz_off[-1], dtype=np.int64)
    for t, (ip, ind) in enumerate(csrs):
        indptr[t * n + 1 : (t + 1) * n + 1] = ip[1:] + nnz_off[t]
        indices[nnz_off[t] : nnz_off[t + 1]] = ind + t * n
    return indptr, indices
