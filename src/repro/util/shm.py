"""Shared-memory graph plane: zero-copy CSR publication across processes.

Campaign workers used to receive every graph by pickling its CSR arrays
through a pipe — one full copy per task, rebuilt in every worker, for
topologies that are bit-identical across cells (the sweep grids reuse the
same ``(family, n, seed)`` base graphs over and over).  This module gives
the harness a *content-addressed shared-memory store* instead:

* :class:`SharedGraphStore` publishes a graph's ``indptr``/``indices``/
  ``edges`` arrays (and arbitrary ``int64`` arrays, e.g. the permutation
  blocks of :class:`~repro.graphs.dynamic.PeriodicRelabelDynamicGraph`)
  as named segments under ``/dev/shm``; any process maps them back with
  ``mmap`` — **zero copy**, read-only, one physical page set shared by
  every worker.
* Segments are **content/key addressed**: the graph-family memo keys a
  segment by ``(family, args, seed)`` and pickled graphs by a content
  hash, so a base CSR shared by many cells is built exactly once per
  campaign, no matter which worker gets there first (publication is an
  atomic ``rename``, so racing builders converge on identical bytes).
* While a store is *active* (:func:`use_graph_store`),
  :meth:`repro.graphs.static.Graph.__reduce__` pickles graphs as segment
  references and the :mod:`repro.graphs.families` builders consult the
  memo — no call-site changes anywhere in the harness.

Lifecycle: the campaign parent creates the store (``create()``), workers
attach by prefix (``store_for()``), and the parent removes every segment
in a ``finally`` block (``cleanup()``).  Each published segment is also
registered with :mod:`multiprocessing.resource_tracker`, so even a
SIGKILL'd campaign leaks nothing: the tracker unlinks the segments when
the process tree dies.  Workers never own segments — a SIGKILL'd worker
only drops its private mappings.

Everything here degrades gracefully: on platforms without ``/dev/shm``
(or when publication fails mid-campaign) graphs fall back to plain
pickling and builders to plain construction, with identical results.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import mmap
import os
import secrets
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (static imports us)
    from repro.graphs.static import Graph

__all__ = [
    "SharedGraphStore",
    "active_graph_store",
    "shared_memory_supported",
    "store_for",
    "use_graph_store",
]

#: Where POSIX shared-memory segments live as plain files (Linux tmpfs).
SHM_DIR = Path("/dev/shm")

#: Default cap on segments one store publishes (a runaway per-epoch
#: sampler must not fill /dev/shm; past the cap, builds still succeed but
#: are no longer shared).
DEFAULT_MAX_SEGMENTS = 512


def shared_memory_supported() -> bool:
    """True when the /dev/shm plane is available on this machine."""
    return SHM_DIR.is_dir() and os.access(SHM_DIR, os.W_OK)


_ACTIVE: contextvars.ContextVar["SharedGraphStore | None"] = contextvars.ContextVar(
    "repro_graph_store", default=None
)


@contextlib.contextmanager
def use_graph_store(store: "SharedGraphStore | None"):
    """Activate ``store`` for the block: graph pickles become segment
    references and family builders memoize through it (``None``
    deactivates)."""
    token = _ACTIVE.set(store)
    try:
        yield store
    finally:
        _ACTIVE.reset(token)


def active_graph_store() -> "SharedGraphStore | None":
    """The store installed by :func:`use_graph_store`, if any."""
    return _ACTIVE.get()


# Per-process attach-mode stores, so unpickling a segment reference works
# in any process without an explicitly activated store.
_PROCESS_STORES: dict[str, "SharedGraphStore"] = {}


def store_for(prefix: str) -> "SharedGraphStore":
    """The process-wide attach-mode store for ``prefix`` (created on first
    use; workers call this with the prefix the campaign parent hands them)."""
    active = _ACTIVE.get()
    if active is not None and active.prefix == prefix:
        return active
    store = _PROCESS_STORES.get(prefix)
    if store is None:
        store = SharedGraphStore(prefix, owner=False)
        _PROCESS_STORES[prefix] = store
    return store


# ---------------------------------------------------------------------------
# Resource-tracker safety net
# ---------------------------------------------------------------------------


def _tracker_register(name: str) -> None:
    try:
        from multiprocessing import resource_tracker

        resource_tracker.register("/" + name, "shared_memory")
    except Exception:  # pragma: no cover - tracker unavailable
        pass


def _tracker_unregister(name: str) -> None:
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister("/" + name, "shared_memory")
    except Exception:  # pragma: no cover - tracker unavailable
        pass


def _tracker_ensure_running() -> None:
    """Start the resource tracker *before* cell children fork, so every
    process in the campaign tree shares one tracker (a child that
    publishes first must not spawn its own)."""
    try:  # pragma: no cover - trivial delegation
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:  # pragma: no cover - tracker unavailable
        pass


# ---------------------------------------------------------------------------
# Segment format: a flat int64 stream
# ---------------------------------------------------------------------------
#
#   [n_arrays, (ndim, dim0..dim_{ndim-1})*, payload0, payload1, ...]
#
# Every array the plane ships is int64 (CSR indptr/indices, edge lists,
# permutation blocks), so one dtype keeps mapping a single frombuffer.


def _pack_arrays(arrays: list[np.ndarray]) -> bytes:
    header: list[int] = [len(arrays)]
    for a in arrays:
        header.append(a.ndim)
        header.extend(int(d) for d in a.shape)
    parts = [np.asarray(header, dtype=np.int64).tobytes()]
    for a in arrays:
        if a.dtype != np.int64:
            raise TypeError(f"shared segments carry int64 arrays, got {a.dtype}")
        parts.append(np.ascontiguousarray(a).tobytes())
    return b"".join(parts)


def _unpack_arrays(flat: np.ndarray) -> list[np.ndarray]:
    count = int(flat[0])
    pos = 1
    shapes: list[tuple[int, ...]] = []
    for _ in range(count):
        ndim = int(flat[pos])
        shapes.append(tuple(int(d) for d in flat[pos + 1 : pos + 1 + ndim]))
        pos += 1 + ndim
    arrays: list[np.ndarray] = []
    for shape in shapes:
        size = int(np.prod(shape)) if shape else 1
        arrays.append(flat[pos : pos + size].reshape(shape))
        pos += size
    if pos != flat.size:
        raise ValueError("shared segment size does not match its header")
    return arrays


class SharedGraphStore:
    """Content-addressed shared-memory store for graphs and int64 arrays.

    Parameters
    ----------
    prefix
        Segment-name prefix; every file the store touches is
        ``/dev/shm/<prefix>-...``.  All processes of one campaign share a
        prefix.
    owner
        Owners (the campaign parent) unlink every segment on
        :meth:`cleanup`; attach-mode stores never delete anything.
    max_segments
        Per-process cap on *published* segments (reads are unbounded).
    """

    def __init__(
        self,
        prefix: str,
        *,
        owner: bool = False,
        max_segments: int = DEFAULT_MAX_SEGMENTS,
    ):
        self.prefix = prefix
        self.owner = owner
        self.max_segments = int(max_segments)
        #: family-memo / content hits and misses in this process.
        self.hits = 0
        self.misses = 0
        self._published = 0
        self._graphs: dict[str, "Graph"] = {}
        self._arrays: dict[str, np.ndarray] = {}
        self._graph_segment: dict[int, str] = {}  # id(graph) -> segment name

    @classmethod
    def create(cls, prefix: str | None = None, **kwargs) -> "SharedGraphStore":
        """Create an owning store with a fresh campaign-unique prefix."""
        if not shared_memory_supported():
            raise OSError(f"shared-memory plane unavailable ({SHM_DIR} missing)")
        if prefix is None:
            prefix = f"repro-shm-{os.getpid()}-{secrets.token_hex(4)}"
        _tracker_ensure_running()
        return cls(prefix, owner=True, **kwargs)

    # -- low-level segments ------------------------------------------------

    def _path(self, name: str) -> Path:
        return SHM_DIR / name

    def _publish_bytes(self, name: str, payload: bytes) -> bool:
        """Atomically publish ``payload`` under ``name``.

        Concurrent publishers of the same name converge: both build
        identical bytes (the name is content/key derived), the rename is
        atomic, and earlier mappings keep their inode.  Returns False when
        publication was skipped (cap reached or filesystem refused).
        """
        final = self._path(name)
        if final.exists():
            return True
        if self._published >= self.max_segments:
            return False
        tmp = self._path(f"{name}.tmp.{os.getpid()}")
        try:
            with open(tmp, "xb") as fh:
                fh.write(payload)
            os.rename(tmp, final)
        except OSError:
            with contextlib.suppress(OSError):
                tmp.unlink()
            return final.exists()
        _tracker_register(name)
        self._published += 1
        return True

    def _map_segment(self, name: str) -> list[np.ndarray]:
        """Map a segment read-only; returned arrays are zero-copy views."""
        with open(self._path(name), "rb") as fh:
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        flat = np.frombuffer(mapped, dtype=np.int64)
        return _unpack_arrays(flat)

    def segment_names(self) -> list[str]:
        """All live segments under this store's prefix (sorted)."""
        return sorted(p.name for p in SHM_DIR.glob(self.prefix + "-*"))

    # -- graphs ------------------------------------------------------------

    def _remember(self, name: str, graph: "Graph") -> None:
        # Strong refs pin ids, so the id-keyed reverse map stays valid.
        self._graphs[name] = graph
        self._graph_segment[id(graph)] = name

    def publish_graph(self, graph: "Graph") -> str | None:
        """Publish ``graph`` (content-addressed); returns its segment name,
        or ``None`` when the plane could not take it (callers fall back to
        plain pickling)."""
        name = self._graph_segment.get(id(graph))
        if name is not None and self._graphs.get(name) is graph:
            return name
        digest = hashlib.sha256()
        digest.update(str(graph.n).encode())
        digest.update(graph.edges.tobytes())
        name = f"{self.prefix}-g-{digest.hexdigest()[:24]}"
        if not self._publish_bytes(name, self._pack_graph(graph)):
            return None
        self._remember(name, graph)
        return name

    @staticmethod
    def _pack_graph(graph: "Graph") -> bytes:
        return _pack_arrays(
            [
                np.asarray([graph.n], dtype=np.int64),
                graph.indptr,
                graph.indices,
                graph.edges,
            ]
        )

    def load_graph(self, name: str) -> "Graph":
        """Reconstruct a graph from its segment, mapping the CSR zero-copy
        (cached per process, so repeated loads share one object)."""
        graph = self._graphs.get(name)
        if graph is None:
            from repro.graphs.static import Graph

            meta, indptr, indices, edges = self._map_segment(name)
            graph = Graph._from_csr(int(meta[0]), indptr, indices, edges)
            self._remember(name, graph)
        return graph

    # -- family memo -------------------------------------------------------

    def _key_name(self, kind: str, key: tuple) -> str:
        digest = hashlib.sha256(repr(key).encode()).hexdigest()[:24]
        return f"{self.prefix}-{kind}-{digest}"

    def get_or_build(self, key: tuple, builder: Callable[[], "Graph"]) -> "Graph":
        """Return the graph for ``key``, building it at most once per
        campaign: in-process cache first, then the shared segment any
        worker may have published, then ``builder()`` (publishing the
        result for everyone else)."""
        name = self._key_name("f", key)
        graph = self._graphs.get(name)
        if graph is not None:
            self.hits += 1
            return graph
        if self._path(name).exists():
            try:
                graph = self.load_graph(name)
            except (OSError, ValueError):
                graph = None  # racing publisher or torn segment: rebuild
            if graph is not None:
                self.hits += 1
                return graph
        graph = builder()
        self.misses += 1
        if self._publish_bytes(name, self._pack_graph(graph)):
            self._remember(name, graph)
        return graph

    # -- raw arrays (permutation blocks) ------------------------------------

    def publish_array(self, key: tuple, array: np.ndarray) -> str | None:
        """Publish one int64 array under a key; returns its segment name
        (``None`` when the plane could not take it)."""
        name = self._key_name("a", key)
        if array.dtype != np.int64:
            return None
        if not self._publish_bytes(name, _pack_arrays([array])):
            return None
        self._arrays.setdefault(name, array)
        return name

    def load_array(self, name: str) -> np.ndarray:
        array = self._arrays.get(name)
        if array is None:
            (array,) = self._map_segment(name)
            self._arrays[name] = array
        return array

    # -- lifecycle ----------------------------------------------------------

    def cleanup(self) -> int:
        """Unlink every segment under the prefix (owner only; attach-mode
        stores drop caches but never delete shared state).  Returns the
        number of segments removed.  Existing mappings in straggler
        processes stay valid — POSIX keeps the pages until unmapped."""
        self._graphs.clear()
        self._arrays.clear()
        self._graph_segment.clear()
        if not self.owner:
            return 0
        removed = 0
        if not SHM_DIR.is_dir():
            return 0
        for path in SHM_DIR.glob(self.prefix + "-*"):
            with contextlib.suppress(OSError):
                path.unlink()
                removed += 1
            if not path.name.endswith(tuple(f".tmp.{os.getpid()}" for _ in ())):
                _tracker_unregister(path.name)
        return removed

    def __enter__(self) -> "SharedGraphStore":
        return self

    def __exit__(self, *exc) -> None:
        self.cleanup()


def _load_graph_segment(prefix: str, name: str) -> "Graph":
    """Pickle reconstructor for graphs shipped as segment references."""
    return store_for(prefix).load_graph(name)


def _load_array_segment(prefix: str, name: str) -> np.ndarray:
    """Pickle reconstructor for arrays shipped as segment references."""
    return store_for(prefix).load_array(name)
