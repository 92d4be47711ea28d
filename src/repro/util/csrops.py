"""Segmented operations on CSR adjacency structures.

The vectorized round engine (:mod:`repro.core.vectorized`) represents the
current topology as a CSR pair ``(indptr, indices)`` and needs two
primitives executed once per simulated round:

``segmented_random_pick``
    every *sender* chooses one neighbor uniformly at random, optionally
    restricted by a boolean predicate over neighbors (e.g. "neighbors
    currently advertising tag 1"), and the result is compact
    ``(senders, targets)`` pairs;

``segmented_uniform_accept_pairs``
    every *receiver* with at least one incoming proposal accepts one
    uniformly at random.

Both are fully vectorized (no per-node Python loop); this is the hot path
identified when profiling large sweeps, per the optimize-the-bottleneck
workflow.  The reference engine implements the same semantics with plain
per-node loops and the two are cross-validated in the test suite.

The batched round engine (:mod:`repro.core.batched`) runs ``T``
independent replicas of one configuration at once.  It accepts over flat
``t*n + v`` ids with the same ``segmented_uniform_accept_pairs`` (one
sort covers all replicas) and picks with :func:`batched_random_pick`:
per-replica uniform neighbor choice over a *shared* CSR topology, with
``(T, n)``/``(T, nnz)`` masks — one kernel dispatch covers all replicas
of a round, and the result is compact flat ``(senders, targets)`` pairs.

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

Every pick returns compact pairs: no kernel writes an ``(n,)`` grid of
picks for its caller to compact again.  The unmasked one-topology pick
is the subset pick over the active rows, and it draws the offsets of
rows of equal degree (every row of a regular graph) with one
scalar-bound call (:func:`~repro.util.rng.uniform_below`), which yields
the same draws as a bound per row.

Masked picks
------------
Every masked pick — batched and single-replica — runs through one
kernel, :func:`_pick_eligible`, in two steps.  The *build*
(:class:`_EligibleIndex`) takes per-row eligible counts from a single
``np.add.reduceat`` over the eligibility, their exclusive prefix and the
flat positions of the eligible entries.  The *draw* makes one bounded
draw per sender row with an eligible neighbor and looks up the ``j``-th
eligible entry of its row directly.  Replicas with no sender or no
eligible entry are dropped before the eligibility gather.  The build
depends only on the eligibility, and in bit convergence that holds for a
whole group of rounds, so :func:`batched_random_pick` can keep it in a
:class:`PickMemo` and draw from it again while the CSR arrays, masks and
replicas kept are unchanged; the draws are the same either way.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.util.rng import uniform_below

__all__ = [
    "build_csr",
    "all_distinct",
    "csr_degrees",
    "gather_rows",
    "unique_nodes",
    "distinct_ids",
    "segmented_random_pick",
    "segmented_random_pick_subset",
    "segmented_uniform_accept_pairs",
    "batched_random_pick",
    "batched_permuted_pick",
    "PickMemo",
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


#: Largest id count whose pair keys ``u·n + v`` (all ``< n²``) fit in
#: int64: the bound of the accept kernel's ``target·m + i`` keys.
MAX_KEY_N = 3_037_000_499

#: Largest vertex count, and largest edge count, :func:`build_csr` takes:
#: vertex ids are stored as int32 ``indices``, and the build keeps int32
#: edge ids while it sorts.
MAX_CSR_N = 2**31 - 1

#: :func:`build_csr` sorts its int64 arc keys in up to this many bands of
#: whole rows, so it never holds a key for every arc at once.
_BANDS = 8
#: Fewest arcs per band: a CSR of fewer than twice this sorts in one band.
_BAND_MIN_ARCS = 1 << 15
#: About this many edges per column are sampled to place the band bounds.
_BAND_SAMPLE = 1 << 12
#: Bits of a block-local edge id in a partition key; the band sits above.
_LOCAL_BITS = 28
#: A band's keys are gathered, and written out, in this many steps, of
#: at least ``_MIN_STEP`` arcs each.
_STEPS = 8
_MIN_STEP = 1 << 14


def build_csr(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency ``(indptr, indices)`` of an undirected edge list.

    ``indptr`` is int64 (it holds arc offsets) and ``indices`` int32.
    Each arc becomes one int64 key ``src·n + dst``: sorting the keys
    yields every row's sorted neighbor list, a duplicate edge (in either
    orientation) shows up as a repeated key, and the sorted keys' rows
    give the row lengths.  A large CSR sorts its keys in bands of whole
    rows (:func:`_row_bands`), each band's neighbor ids written straight
    into ``indices``; until then ``indices`` holds the ids of the edges
    each band's arcs come from (:func:`_partition_edges`).  So the build
    holds the edges, the CSR and one band's keys, never widens an int32
    edge array to int64, and counts row lengths band by band rather than
    scattering ``2m`` increments over all ``n`` rows.

    Parameters
    ----------
    n
        Number of vertices (labelled ``0..n-1``).
    edges
        ``(m, 2)`` integer array of undirected edges.

    Returns
    -------
    indptr, indices
        CSR row pointers (length ``n + 1``) and the concatenated sorted
        neighbor lists.

    Raises
    ------
    ValueError
        When ``n`` or the edge count exceeds :data:`MAX_CSR_N` (checked
        before the edges are read or anything is allocated), or on an
        endpoint outside ``0..n-1``, a self-loop or a duplicate edge (in
        either orientation).
    """
    if n > MAX_CSR_N:
        raise ValueError(
            f"n={n} exceeds {MAX_CSR_N}: vertex ids would overflow int32 indices"
        )
    edges = np.asarray(edges)
    if edges.dtype != np.int32 and edges.dtype != np.int64:
        edges = edges.astype(np.int64)
    edges = edges.reshape(-1, 2)
    m = edges.shape[0]
    if m > MAX_CSR_N:
        raise ValueError(f"{m} edges exceed {MAX_CSR_N}: edge ids would overflow int32")
    if m and (edges.min() < 0 or edges.max() >= n):
        raise ValueError("edge endpoint out of range")
    u, v = edges[:, 0], edges[:, 1]
    if np.any(u == v):
        raise ValueError("self-loops are not allowed")
    indices = np.empty(2 * m, dtype=np.int32)
    bands = min(_BANDS, max(1, 2 * m // _BAND_MIN_ARCS))
    if bands == 1:
        indptr = np.zeros(n + 1, dtype=np.int64)
        _sort_band(n, edges, None, None, 0, indptr, indices)
        return indptr, indices
    bounds = _row_bands(u, v, n, bands)
    starts, mid = _partition_edges(u, v, bounds, indices)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for k in range(bands):
        s, h, e = starts[k], mid[k], starts[k + 1]
        rows = indptr[bounds[k] : bounds[k + 1] + 1]
        _sort_band(n, edges, indices[s:h], indices[h:e], bounds[k], rows, indices[s:e])
    return indptr, indices


def _row_bands(u: np.ndarray, v: np.ndarray, n: int, bands: int) -> np.ndarray:
    """Row bounds of ``bands`` bands of whole rows with about equal arc counts.

    Band ``k`` is rows ``bounds[k]:bounds[k + 1]``.  The inner bounds are
    quantiles of the endpoints of every ``m/_BAND_SAMPLE``-th edge, so no
    row is split, and a row that holds more arcs than a band leaves the
    bands it covers empty.
    """
    step = max(1, u.size // _BAND_SAMPLE)
    sample = np.concatenate([u[::step], v[::step]])
    sample.sort()
    bounds = np.empty(bands + 1, dtype=np.int64)
    bounds[0], bounds[-1] = 0, n
    bounds[1:-1] = sample[np.arange(1, bands) * sample.size // bands]
    return bounds


def _partition_edges(
    u: np.ndarray, v: np.ndarray, bounds: np.ndarray, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Group edge ids by the band of each arc's source.

    Band ``k`` (rows ``bounds[k]:bounds[k + 1]``) gets one slot per arc
    in ``out[starts[k]:starts[k + 1]]``: the ids ``i`` with ``u[i]`` in
    the band (the arcs ``u[i]→v[i]``), ascending, then from ``mid[k]``
    the ids with ``v[i]`` in it (the arcs ``v[i]→u[i]``).  One pass
    labels every endpoint with its int8 band and counts the bands.  The
    second takes each column ``bands`` blocks at a time: an edge's int32
    key is its band over its id within the block, so one sort of the
    distinct keys orders the block by band and, within a band, by id.
    Returns ``(starts, mid)``.
    """
    bands = bounds.size - 1
    band = np.repeat(np.arange(bands, dtype=np.int8), np.diff(bounds))
    block = min(-(-u.size // bands), 1 << _LOCAL_BITS)
    labels = [np.empty(u.size, dtype=np.int8) for _ in range(2)]
    count = np.zeros((2, bands), dtype=np.int64)
    for side, lab, c in zip((u, v), labels, count):
        for lo in range(0, side.size, block):
            np.take(band, side[lo : lo + block], out=lab[lo : lo + block])
            c += np.bincount(lab[lo : lo + block], minlength=bands)
    del band
    starts = np.zeros(bands + 1, dtype=np.int64)
    np.cumsum(count.sum(axis=0), out=starts[1:])
    mid = starts[:-1] + count[0]
    local = np.arange(block, dtype=np.int32)
    firsts = np.arange(1, bands, dtype=np.int32) << _LOCAL_BITS
    for lab, fill in zip(labels, (starts[:-1].copy(), mid.copy())):
        for lo in range(0, lab.size, block):
            key = lab[lo : lo + block].astype(np.int32)
            key <<= _LOCAL_BITS
            key |= local[: key.size]
            key.sort()
            cuts = np.searchsorted(key, firsts)
            key &= (1 << _LOCAL_BITS) - 1
            key += lo
            for k, ids in enumerate(np.split(key, cuts)):
                out[fill[k] : fill[k] + ids.size] = ids
                fill[k] += ids.size
    return starts, mid


def _sort_band(
    n: int,
    edges: np.ndarray,
    ids_u: np.ndarray | None,
    ids_v: np.ndarray | None,
    first: int,
    rows: np.ndarray,
    out: np.ndarray,
) -> None:
    """Sort the arc keys of one band of whole rows into its CSR slices.

    The band is rows ``first:first + rows.size - 1``, whose ``indptr``
    slice ``rows`` comes in with ``rows[0]`` set.  Its arcs are
    ``u[i]→v[i]`` for the edge ids ``i`` in ``ids_u`` and ``v[i]→u[i]``
    for those in ``ids_v`` (``None``: every edge), and ``out`` may alias
    the ids.  Their int64 keys ``src·n + dst`` are built ``_STEPS`` steps
    per orientation (one row gather per edge), sorted in place and
    checked for a repeat (a duplicate edge).  Then, ``_STEPS`` steps at a
    time, each key gives its neighbor id to ``out`` and its row to the
    row lengths that fill ``rows[1:]``.
    """
    size_u = edges.shape[0] if ids_u is None else ids_u.size
    keys = np.empty(out.size, dtype=np.int64)
    for ids, begin, end, src in ((ids_u, 0, size_u, 0), (ids_v, size_u, out.size, 1)):
        step = max(_MIN_STEP, -(-(end - begin) // _STEPS))
        for a in range(0, end - begin, step):
            b = min(a + step, end - begin)
            pairs = edges[a:b] if ids is None else np.take(edges, ids[a:b], axis=0)
            part = keys[begin + a : begin + b]
            np.multiply(pairs[:, src], n, out=part, dtype=np.int64)
            part += pairs[:, 1 - src]
    keys.sort()
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError("duplicate edges are not allowed")
    deg = np.zeros(rows.size - 1, dtype=np.int64)
    step = max(_MIN_STEP, -(-keys.size // _STEPS))
    for a in range(0, keys.size, step):
        part = keys[a : a + step]
        row = part // n  # a division by one scalar, cheaper than %
        np.subtract(part, row * n, out=out[a : a + step], casting="unsafe")
        # The keys are sorted, so this step's rows are one short range.
        at = int(row[0]) - first
        row -= row[0]
        counts = np.bincount(row)
        deg[at : at + counts.size] += counts
    np.cumsum(deg, out=rows[1:])
    rows[1:] += rows[0]


def csr_degrees(indptr: np.ndarray) -> np.ndarray:
    """Vertex degrees from CSR row pointers."""
    return indptr[1:] - indptr[:-1]


def gather_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Concatenated CSR entries (neighbor lists) of ``rows``, in row order.

    The frontier-expansion primitive of the sparse-activity path: one
    vectorized gather replaces a per-row Python loop of slices.  Rows may
    repeat; empty rows contribute nothing.  The entries keep the dtype of
    ``indices``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    shift = indptr[rows]
    deg = indptr[rows + 1] - shift
    ends = np.cumsum(deg)
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return indices[:0].copy()
    # Entry i of row k sits at indptr[rows[k]] + (i - start of row k).
    shift -= ends
    shift += deg
    pos = np.repeat(shift, deg)
    pos += np.arange(total, dtype=np.int64)
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


def distinct_ids(ids: np.ndarray, mark: np.ndarray, limit: float) -> np.ndarray | None:
    """Sorted distinct values of ``ids``, or ``None`` when more than ``limit``.

    The frontier-expansion dedupe.  ``mark`` is an all-False boolean
    scratch array indexable by every id, and is all-False again on
    return.  Few ids are sorted (:func:`unique_nodes`); many are marked,
    counted and read back in ascending order with two ``O(len(mark))``
    scans that cost less than sorting them, and a count over ``limit``
    returns before the read-back.
    """
    if 4 * ids.size < mark.size:
        out = unique_nodes(ids)
        return out if out.size <= limit else None
    mark[ids] = True
    out = np.flatnonzero(mark) if np.count_nonzero(mark) <= limit else None
    mark[ids] = False
    return out


def all_distinct(ids: np.ndarray) -> bool:
    """True when no value repeats in ``ids`` (the UID / exclusivity checks)."""
    return unique_nodes(ids).size == ids.size


class _EligibleIndex:
    """Where every row's eligible entries sit: the build step of a masked pick.

    Built from an ``(L, nnz)`` eligibility over the CSR described by
    ``indptr``: ``counts`` are the eligible entries per non-empty row of
    every replica (from one ``np.add.reduceat``), ``has`` marks the rows
    with at least one.  The exclusive prefix ``before`` and the flat
    positions ``epos`` of the eligible entries are filled by the first
    draw that needs them, so a call whose senders all lack an eligible
    neighbour never computes them.
    """

    __slots__ = ("n", "nonempty", "counts", "has", "_flat", "before", "epos")

    def __init__(self, indptr: np.ndarray, eligible: np.ndarray):
        L, nnz = eligible.shape
        self.n = n = indptr.shape[0] - 1
        flat = eligible.reshape(L * nnz)
        # Non-empty rows tile [0, nnz) back to back (the first starts at 0,
        # the last ends at nnz), so their starts alone delimit every row
        # segment of every replica for one reduceat; isolated rows never
        # index it.
        nonempty = np.flatnonzero(indptr[1:] > indptr[:-1])
        k = nonempty.size
        starts = indptr[nonempty]
        if L > 1:
            starts = (starts[None, :] + (np.arange(L, dtype=np.int64) * nnz)[:, None]).reshape(L * k)
        #: Rows of the ``(L, k)`` count grid, or ``None`` when no row is empty.
        self.nonempty = nonempty if k < n else None
        self.counts = np.add.reduceat(flat.view(np.uint8), starts, dtype=np.int64)
        self.has = self.counts > 0
        self._flat = flat
        self.before = self.epos = None

    def locate(self) -> None:
        """Fill ``before`` (eligible entries ahead of each row, across
        replicas) and ``epos``, and drop the eligibility they came from."""
        self.before = np.cumsum(self.counts)
        self.before -= self.counts
        self.epos = np.flatnonzero(self._flat)
        self._flat = None


def _pick_eligible(
    index: _EligibleIndex, rng: np.random.Generator, active: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One uniform eligible entry per active row of every replica.

    The masked-pick kernel shared by every public pick, and the draw step
    that follows a build of ``index``.  ``active`` is the ``(L, n)``
    sender mask over the replicas ``index`` was built for.  Rows that are
    active and have an eligible entry draw ``j`` from one
    ``rng.integers(0, counts)`` call, in ascending (replica, row) order,
    and pick the ``j``-th eligible entry of their row.  The draw reads
    ``index`` without changing what it describes, so one build serves
    every round whose eligibility is the same.

    Returns
    -------
    (cells, pos)
        ``cells`` are flat ``(L, n)`` indices of the rows that picked,
        ascending; ``pos`` are the flat ``(L, nnz)`` positions of their
        picks.
    """
    nonempty = index.nonempty
    if nonempty is not None:
        active = active[:, nonempty]
    cells = np.flatnonzero(active.reshape(-1) & index.has)
    if cells.size == 0:
        return cells, cells
    j = rng.integers(0, index.counts[cells])
    if index.epos is None:
        index.locate()
    pos = index.epos[index.before[cells] + j]
    if nonempty is not None:
        k, n = nonempty.size, index.n
        rep = cells // k
        cells = rep * n + nonempty[cells - rep * k]
    return cells, pos


class PickMemo:
    """A reuse slot for the last build of a masked batched pick.

    Passed as ``reuse=`` to :func:`batched_random_pick` (or through
    :func:`batched_permuted_pick`), it keeps the eligibility index of the
    last call and draws from it again while the call's eligibility inputs
    are unchanged: the same CSR arrays (held by strong reference, so the
    identity test cannot alias arrays freed and reallocated at the same
    address), copies of ``neighbor_mask`` and ``flat_mask`` equal to the
    new ones, and the same replicas kept.  Any difference rebuilds.  A
    reused index gives the same picks and consumes the Generator exactly
    as a fresh build does.
    """

    __slots__ = ("_key", "index")

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        """Forget the held build (and its key's arrays)."""
        self._key: tuple | None = None
        self.index: _EligibleIndex | None = None

    def lookup(self, indptr, indices, neighbor_mask, flat_mask, reps) -> _EligibleIndex | None:
        """The held index if it was built from exactly these inputs."""
        key = self._key
        if (
            key is not None
            and key[0] is indptr
            and key[1] is indices
            and _same_mask(key[2], neighbor_mask)
            and _same_mask(key[3], flat_mask)
            and np.array_equal(key[4], reps)
        ):
            return self.index
        return None

    def store(self, indptr, indices, neighbor_mask, flat_mask, reps, index) -> None:
        """Hold ``index``, keyed on the inputs it was built from."""
        self._key = (
            indptr,
            indices,
            None if neighbor_mask is None else neighbor_mask.copy(),
            None if flat_mask is None else flat_mask.copy(),
            reps,
        )
        self.index = index


def _same_mask(held: np.ndarray | None, mask: np.ndarray | None) -> bool:
    if held is None or mask is None:
        return held is mask
    return np.array_equal(held, mask)


def segmented_random_pick(
    indptr: np.ndarray,
    indices: np.ndarray,
    rng: np.random.Generator,
    *,
    active: np.ndarray | None = None,
    neighbor_mask: np.ndarray | None = None,
    flat_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform random neighbor choice for every (active) row.

    For each row ``u`` with ``active[u]`` true, picks one entry uniformly at
    random from the row's neighbor list, optionally restricted to neighbors
    ``v`` with ``neighbor_mask[v]`` true and/or to CSR entries ``i`` with
    ``flat_mask[i]`` true (a per-*entry* mask, for eligibility that depends
    on the (row, neighbor) pair rather than the neighbor alone).  Rows that
    are inactive, empty, or whose restriction leaves no eligible neighbor
    do not pick.

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
    (senders, targets)
        Compact parallel arrays: each row that picked, ascending, with
        its chosen neighbor (in the dtype of ``indices``).  The unmasked
        pick is :func:`segmented_random_pick_subset` over the active rows.
    """
    n = indptr.shape[0] - 1
    if active is not None:
        _check_mask("active", active, (n,))

    if neighbor_mask is None and flat_mask is None:
        rows = np.flatnonzero(active) if active is not None else np.arange(n)
        return segmented_random_pick_subset(indptr, indices, rng, rows)

    if active is None:
        active = np.ones(n, dtype=bool)
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
        return np.empty(0, dtype=np.int64), indices[:0]
    # The single-replica case of the batched kernel: T = 1.
    rows, pos = _pick_eligible(
        _EligibleIndex(indptr, eligible[None, :]), rng, active[None, :]
    )
    return rows, indices[pos]


def segmented_random_pick_subset(
    indptr: np.ndarray,
    indices: np.ndarray,
    rng: np.random.Generator,
    vertices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform random neighbor choice for an explicit row subset.

    Sparse-frontier form of :func:`segmented_random_pick`: only the rows
    listed in ``vertices`` are touched, so the cost is ``O(len(vertices))``
    instead of ``O(n)``.  There is no ``active`` mask and no eligibility
    mask — callers pass exactly the rows that should pick, and every
    neighbor is eligible.  The rows with a neighbor draw their offsets in
    one :func:`~repro.util.rng.uniform_below` call over their degrees, a
    single scalar-bound draw when the degrees are equal (a regular graph).

    Returns
    -------
    (senders, targets)
        Compact parallel arrays: the ``vertices`` with at least one
        neighbor, in their given order, and the neighbor each chose (in
        the dtype of ``indices``).
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    start = indptr.take(vertices)
    deg = indptr[1:].take(vertices)
    deg -= start
    if not deg.all():
        keep = np.flatnonzero(deg)
        vertices, start, deg = vertices[keep], start[keep], deg[keep]
    if vertices.size:
        start += uniform_below(rng, deg)
    return vertices, indices.take(start)


def segmented_uniform_accept_pairs(
    senders: np.ndarray,
    targets: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform acceptance of one incoming proposal per receiver.

    Given parallel arrays ``senders``/``targets`` (``senders[i]`` proposed
    to ``targets[i]``), selects for each distinct target one proposer
    uniformly at random, matching the model's rule that a receiving node
    accepts an incoming proposal chosen uniformly from the arrivals.

    Returns
    -------
    tuple of numpy.ndarray
        ``(receivers, winners)``: each distinct target exactly once, in
        ascending order, with the sender whose proposal it accepted.
    """
    senders = np.asarray(senders, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if senders.shape != targets.shape:
        raise ValueError("senders and targets must have equal shape")
    if senders.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    # Stable-by-target order via a unique composite key target*m + i:
    # quicksort on distinct keys yields exactly the (target, input-position)
    # order a stable sort would, at a fraction of the cost of kind="stable"
    # on the raw (highly duplicated) targets.  Sorting the keys themselves
    # and splitting them with one divmod skips an argsort's index array
    # and its two gathers.  Each sender proposes once, so with ids below N
    # m <= N and keys stay below N^2: int64-safe for N <= MAX_KEY_N.
    m = targets.size
    keys = targets * m
    keys += np.arange(m, dtype=np.int64)
    keys.sort()
    t_sorted, order = np.divmod(keys, m)
    # Group boundaries: bounds[i]..bounds[i+1] share one target.
    is_bound = np.empty(m + 1, dtype=bool)
    is_bound[0] = is_bound[m] = True
    np.not_equal(t_sorted[1:], t_sorted[:-1], out=is_bound[1:m])
    bounds = np.flatnonzero(is_bound)
    starts = bounds[:-1]
    # floor(u * size), u ~ U[0, 1): uniform over each group up to an
    # O(size / 2^53) rounding bias, at about half the cost of a
    # per-element bounded integer draw.
    chosen = starts + (rng.random(starts.size) * (bounds[1:] - starts)).astype(np.int64)
    return t_sorted[starts], senders[order[chosen]]


def batched_random_pick(
    indptr: np.ndarray,
    indices: np.ndarray,
    rng: np.random.Generator,
    active: np.ndarray,
    *,
    neighbor_mask: np.ndarray | None = None,
    flat_mask: np.ndarray | None = None,
    reuse: PickMemo | None = None,
) -> tuple[np.ndarray, np.ndarray]:
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
    reuse
        Optional :class:`PickMemo` holding the last masked build.  When
        the CSR arrays, the masks and the replicas kept are those it was
        built from, the build is skipped and only the draw runs;
        otherwise the held build is dropped and replaced.  Picks and
        Generator use are the same either way.

    Returns
    -------
    (senders_flat, targets_flat)
        Compact parallel flat arrays (``flat = t*n + v``): each sender
        that found an eligible neighbor, ascending, with its pick.
    """
    _require_bool("active", active)
    if active.ndim != 2:
        raise ValueError("active must have shape (T, n)")
    T, n = active.shape
    if indptr.shape[0] != n + 1:
        raise ValueError("active rows must match the CSR vertex count")
    nnz = indices.shape[0]

    if neighbor_mask is None and flat_mask is None:
        deg = csr_degrees(indptr)
        rep, rows = np.nonzero(active & (deg > 0)[None, :])
        if rep.size == 0:
            return rep, rep
        offsets = rng.integers(0, deg[rows])
        base = rep * n
        return base + rows, base + indices[indptr[rows] + offsets]

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
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    some = reps.size < T
    index = None
    if reuse is not None:
        index = reuse.lookup(indptr, indices, neighbor_mask, flat_mask, reps)
        if index is None:
            reuse.clear()  # the stale build is not kept alive beside the new one
    if index is None:
        nb, fm = neighbor_mask, flat_mask
        if some:
            nb = None if nb is None else nb[reps]
            fm = None if fm is None else fm[reps]
        if nb is not None:
            eligible = np.take(nb, indices, axis=1)
            if fm is not None:
                eligible &= fm
        else:
            eligible = fm
        index = _EligibleIndex(indptr, eligible)
        if reuse is not None:
            reuse.store(indptr, indices, neighbor_mask, flat_mask, reps, index)
    cells, pos = _pick_eligible(index, rng, active[reps] if some else active)
    rep = cells // n
    targets = indices[pos - rep * nnz]
    if some:
        cells += (reps[rep] - rep) * n
        rep = reps[rep]
    return cells, rep * n + targets


def batched_permuted_pick(
    indptr: np.ndarray,
    indices: np.ndarray,
    rng: np.random.Generator,
    perm: np.ndarray,
    active: np.ndarray,
    *,
    neighbor_mask: np.ndarray | None = None,
    perm_inv: np.ndarray | None = None,
    reuse: PickMemo | None = None,
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
    reuse
        Optional :class:`PickMemo` for the masked pick, passed on to
        :func:`batched_random_pick` with the masks in base coordinates.

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
    sel, targets = batched_random_pick(
        indptr, indices, rng, active_base, neighbor_mask=nb_base, reuse=reuse
    )  # flat *base* ids t*n + u and t*n + w
    base_off = sel - sel % n
    return base_off + p_flat[sel], base_off + p_flat[targets]


def invert_permutations(perm: np.ndarray) -> np.ndarray:
    """Row-wise inverse of a ``(T, n)`` batch of permutations.

    ``inv[t, perm[t, u]] == u`` — one scatter for the whole batch.
    """
    inv = np.empty_like(perm)
    np.put_along_axis(
        inv, perm, np.arange(perm.shape[1], dtype=perm.dtype)[None, :], axis=1
    )
    return inv


def stack_csr(
    csrs: Sequence[tuple[np.ndarray, np.ndarray]], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Block-diagonal CSR of ``T`` replica topologies on ``n`` vertices each.

    Replica ``t``'s vertex ``v`` becomes global vertex ``t*n + v``; no
    edges cross replicas.  Like a :class:`~repro.graphs.static.Graph`
    CSR, ``indptr`` is int64 and ``indices`` int32, so ``T·n`` may not
    exceed :data:`MAX_CSR_N`.  The plain segmented kernels applied to the
    stacked CSR then batch a round over all replicas even when their
    topologies differ (dynamic/adversarial graphs).
    """
    T = len(csrs)
    if T == 0:
        raise ValueError("need at least one replica CSR")
    if T * n > MAX_CSR_N:
        raise ValueError(
            f"{T} replicas of n={n} exceed {MAX_CSR_N} vertices: ids would overflow int32 indices"
        )
    nnz_off = np.zeros(T + 1, dtype=np.int64)
    for t, (ip, _) in enumerate(csrs):
        if ip.shape[0] != n + 1:
            raise ValueError("every replica CSR must cover n vertices")
        nnz_off[t + 1] = nnz_off[t] + ip[-1]
    indptr = np.empty(T * n + 1, dtype=np.int64)
    indptr[0] = 0
    indices = np.empty(nnz_off[-1], dtype=np.int32)
    for t, (ip, ind) in enumerate(csrs):
        indptr[t * n + 1 : (t + 1) * n + 1] = ip[1:] + nnz_off[t]
        indices[nnz_off[t] : nnz_off[t + 1]] = ind + t * n
    return indptr, indices
