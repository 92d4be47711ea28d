"""Lexicographic (tag, key) pair operations shared by the bit convergence kernels.

A *smallest ID pair* compares by tag first, tie-breaking by UID key —
exactly the ordering of :class:`repro.core.payload.IDPair`, applied here
to parallel NumPy arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pair_less", "pair_min_inplace", "pairs_all_equal", "smallest_pairs"]


def pair_less(
    tag_a: np.ndarray, key_a: np.ndarray, tag_b: np.ndarray, key_b: np.ndarray
) -> np.ndarray:
    """Elementwise ``(tag_a, key_a) < (tag_b, key_b)`` lexicographically."""
    return (tag_a < tag_b) | ((tag_a == tag_b) & (key_a < key_b))


def pair_min_inplace(
    dst_tag: np.ndarray,
    dst_key: np.ndarray,
    idx: np.ndarray,
    src_tag: np.ndarray,
    src_key: np.ndarray,
) -> None:
    """``dst[idx] = min(dst[idx], src)`` under the pair ordering.

    ``src_tag``/``src_key`` are aligned with ``idx`` (one candidate pair per
    destination index).  ``idx`` must not contain duplicates.
    """
    better = pair_less(src_tag, src_key, dst_tag[idx], dst_key[idx])
    sel = idx[better]
    dst_tag[sel] = src_tag[better]
    dst_key[sel] = src_key[better]


def pairs_all_equal(tag: np.ndarray, key: np.ndarray, t: int, k: int) -> bool:
    """True when every (tag, key) pair equals ``(t, k)``."""
    return bool(((tag == t) & (key == k)).all())


def smallest_pairs(tag: np.ndarray, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's smallest pair of ``(T, n)`` arrays, as ``(T,)`` tags and keys.

    The minimum tag, then the minimum key among the pairs holding it.
    """
    t = tag.min(axis=1)
    k = np.where(tag == t[:, None], key, np.iinfo(np.int64).max).min(axis=1)
    return t, k
