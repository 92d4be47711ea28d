"""Deterministic random-number management.

Every stochastic component in the library draws from a
:class:`numpy.random.Generator`.  Reproducibility across trials, engines,
and processes is achieved by deriving child seeds from a root seed and a
string *label* using :class:`numpy.random.SeedSequence` so that:

* the same ``(seed, label)`` pair always yields the same stream;
* distinct labels yield statistically independent streams;
* per-trial and per-node streams can be derived without coordination.
"""

from __future__ import annotations

import zlib
from typing import Iterable, Sequence

import numpy as np

__all__ = ["derive_seed", "make_rng", "spawn_rngs", "label_entropy", "uniform_below"]


def label_entropy(label: str) -> int:
    """Map a string label to a stable 32-bit integer.

    CRC32 is used rather than ``hash()`` because Python's string hashing is
    salted per process and would destroy cross-run reproducibility.
    """
    return zlib.crc32(label.encode("utf-8")) & 0xFFFFFFFF


def derive_seed(seed: int | None, *labels: str | int) -> np.random.SeedSequence:
    """Derive a :class:`numpy.random.SeedSequence` from a root seed and labels.

    Parameters
    ----------
    seed
        Root seed.  ``None`` produces a nondeterministic sequence (fresh OS
        entropy); any integer produces a deterministic one.
    labels
        Additional context (e.g. ``"trial", 17``) mixed into the spawn key.
        String labels are converted with :func:`label_entropy`.
    """
    key = tuple(
        label_entropy(lab) if isinstance(lab, str) else int(lab) for lab in labels
    )
    if seed is None:
        return np.random.SeedSequence(spawn_key=key)
    return np.random.SeedSequence(entropy=int(seed), spawn_key=key)


def make_rng(seed: int | None, *labels: str | int) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` for ``(seed, *labels)``."""
    return np.random.default_rng(derive_seed(seed, *labels))


def spawn_rngs(
    seed: int | None, count: int, *labels: str | int
) -> list[np.random.Generator]:
    """Create ``count`` independent generators under a common label context."""
    ss = derive_seed(seed, *labels)
    return [np.random.default_rng(child) for child in ss.spawn(count)]


def uniform_below(rng: np.random.Generator, bounds: np.ndarray) -> np.ndarray:
    """One uniform integer in ``[0, bounds[i])`` per bound.

    Returns exactly what ``rng.integers(0, bounds)`` returns and leaves
    ``rng`` in the same state.  When every bound of a 1-D integer array
    is equal it makes one scalar-bound call, ``rng.integers(0, b,
    size=k)``: NumPy fills that with the same per-element draws as the
    array-bound form (a 32-bit Lemire draw for a bound up to ``2**32``, a
    64-bit one above, none for a bound of 1) at a fraction of the cost,
    since the array form broadcasts the bounds and dispatches per
    element.  Regular graphs give every row the same bound.
    """
    bounds = np.asarray(bounds)
    if bounds.ndim == 1 and bounds.size and bounds.dtype.kind in "iu":
        b = bounds.min()
        if b == bounds.max():
            return rng.integers(0, int(b), size=bounds.size)
    return rng.integers(0, bounds)
