"""Non-synchronized bit convergence (paper Section VIII).

Removes the synchronized-start assumption of Section VII at the price of a
slightly wider advertisement: ``b = ⌈log k⌉ + 1 = log log n + O(1)`` bits.

Structure (verbatim from the paper):

* nodes keep the random ``k``-bit ID tags and smallest-ID-pair tracking of
  the original algorithm, but group boundaries follow each node's *local*
  round counter (groups of ``2·log Δ`` local rounds) and are not aligned
  across nodes;
* at the beginning of each of its groups, a node picks a bit position
  ``i ∈ [k]`` uniformly at random and, for the whole group, advertises
  ``i`` together with the bit in position ``i`` of the tag of its current
  smallest ID pair;
* a node advertising a 1-bit only receives; a node advertising a 0-bit
  proposes, each round, to a uniformly random neighbor that is advertising
  *the same position* with bit 1 (if any);
* connected nodes trade smallest ID pairs and adopt the received pair
  immediately if smaller (no phase-boundary buffering — there are no
  global phases).

Theorem VIII.2: stabilizes in ``O((1/α)·Δ^{1/τ̂}·τ̂·log⁸ n)`` rounds after
the last activation.  The algorithm is *self-stabilizing*: joining
components that ran for arbitrary durations still converge in the same
time, which the constructor's ``initial_pairs`` hook lets experiments set
up directly.

Implementation note: the paper says a node "advertises the position i, as
well as the value of the bit in position i of the ID tag of its current
smallest ID pair".  We read "current" as *live* — the advertised bit
tracks the node's smallest pair within a group if it changes mid-group
(the position stays fixed).  Lemma VIII.1 (settled prefix bits never
regress) makes the two readings equivalent for the bits the analysis
tracks; the live reading only speeds up propagation of fresher bits.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms._pairs import pair_min_inplace, smallest_pairs
from repro.algorithms.bit_convergence import (
    BitConvergenceConfig,
    draw_id_tags,
    replica_id_tags,
)
from repro.core.batched import BatchedAlgorithm
from repro.core.payload import IDPair, Message, UID, UIDSpace
from repro.core.protocol import LeaderElectionProtocol, RoundView
from repro.util.bits import bit_at

__all__ = [
    "async_tag_length",
    "AsyncBitConvergenceNode",
    "AsyncBitConvergenceBatched",
    "make_async_bit_convergence_nodes",
]


def async_tag_length(k: int) -> int:
    """Bits needed to advertise ``(position, bit)``: ``⌈log(2k)⌉ = ⌈log k⌉+1``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return max(1, math.ceil(math.log2(2 * k)))


def _encode_tag(position: int, bit: int) -> int:
    """Pack a 1-indexed position and a bit into the advertised tag."""
    return (position - 1) * 2 + bit


def _decode_positions(tags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unpack advertised tags into (1-indexed positions, bits)."""
    return (tags >> 1) + 1, tags & 1


class AsyncBitConvergenceNode(LeaderElectionProtocol):
    """Per-node non-synchronized bit convergence (reference semantics)."""

    def __init__(self, node_id: int, uid: UID, id_tag: int, config: BitConvergenceConfig):
        super().__init__(node_id, uid)
        self.config = config
        self.tag_length = async_tag_length(config.k)
        if not 0 <= id_tag < (1 << config.k):
            raise ValueError(f"id_tag {id_tag} does not fit in k={config.k} bits")
        self._smallest = IDPair(uid, int(id_tag))
        self._position = 1  # bit position advertised this group

    @property
    def leader(self) -> UID:
        return self._smallest.uid

    @property
    def smallest_pair(self) -> IDPair:
        """The node's current smallest ID pair."""
        return self._smallest

    def _my_bit(self) -> int:
        return bit_at(self._smallest.tag, self._position, self.config.k)

    def choose_tag(self, local_round: int, rng: np.random.Generator) -> int:
        if (local_round - 1) % self.config.group_len == 0:
            self._position = int(rng.integers(1, self.config.k + 1))
        return _encode_tag(self._position, self._my_bit())

    def decide(self, view: RoundView) -> int | None:
        if self._my_bit() == 1:
            return None  # 1-advertisers only receive
        n_pos, n_bit = _decode_positions(view.neighbor_tags)
        candidates = view.neighbors[(n_pos == self._position) & (n_bit == 1)]
        if candidates.size == 0:
            return None
        return int(candidates[view.rng.integers(0, candidates.size)])

    def compose(self, peer: int) -> Message:
        return Message(
            uids=(self._smallest.uid,),
            extra_bits=self.config.k,
            data=self._smallest,
        )

    def deliver(self, peer: int, message: Message) -> None:
        pair = message.data
        if isinstance(pair, IDPair) and pair < self._smallest:
            self._smallest = pair  # immediate adoption; no phase buffering


def make_async_bit_convergence_nodes(
    uid_space: UIDSpace,
    config: BitConvergenceConfig,
    seed: int | None = None,
    *,
    unique_tags: bool = False,
) -> list[AsyncBitConvergenceNode]:
    """One node per vertex with freshly drawn ID tags."""
    tags = draw_id_tags(len(uid_space), config, seed, unique=unique_tags)
    return [
        AsyncBitConvergenceNode(v, uid_space.uid_of(v), int(tags[v]), config)
        for v in range(len(uid_space))
    ]


class AsyncBitConvergenceBatched(BatchedAlgorithm):
    """Array-kernel non-synchronized bit convergence for every array engine.

    Parameters
    ----------
    uid_keys
        Simulator-internal UID keys per vertex.
    config
        Shared :class:`~repro.algorithms.bit_convergence.BitConvergenceConfig`.
    tag_seed
        Seed every replica draws its ID tags from (ignored if
        ``initial_pairs`` given); by default replica ``t`` draws from its
        trial seed (see
        :func:`~repro.algorithms.bit_convergence.replica_id_tags`).
    unique_tags
        Draw distinct ID tags, conditioning on the paper's w.h.p.
        uniqueness event (see
        :func:`repro.algorithms.bit_convergence.draw_id_tags`).
    initial_pairs
        Optional ``(tags, keys)`` arrays representing each node's current
        smallest ID pair from an arbitrary prior execution — the
        self-stabilization entry point used by experiment E9.  Every
        replica starts from them.
    """

    def __init__(
        self,
        uid_keys: np.ndarray,
        config: BitConvergenceConfig,
        *,
        tag_seed: int | None = None,
        initial_pairs: tuple[np.ndarray, np.ndarray] | None = None,
        unique_tags: bool = False,
    ):
        self._keys = np.asarray(uid_keys, dtype=np.int64)
        self.config = config
        self.tag_length = async_tag_length(config.k)
        self._tag_seed = tag_seed
        self._initial_pairs = initial_pairs
        self._unique_tags = unique_tags

    class State:
        __slots__ = ("ctag", "ckey", "pos", "target_tag", "target_key")

        def __init__(self, ctag, ckey, pos, target_tag, target_key):
            self.ctag = ctag
            self.ckey = ckey
            self.pos = pos
            self.target_tag = target_tag
            self.target_key = target_key

    def init_state(self, n: int, seeds: np.ndarray):
        if self._keys.shape != (n,):
            raise ValueError("uid_keys must have one key per vertex")
        T = len(seeds)
        if self._initial_pairs is not None:
            tags = np.asarray(self._initial_pairs[0], dtype=np.int64)
            keys = np.asarray(self._initial_pairs[1], dtype=np.int64)
            if tags.shape != (n,) or keys.shape != (n,):
                raise ValueError("initial_pairs must provide n tags and n keys")
            ctag = np.tile(tags, (T, 1))
            ckey = np.tile(keys, (T, 1))
        else:
            ctag = replica_id_tags(
                n, self.config, seeds, self._tag_seed, unique=self._unique_tags
            )
            ckey = np.tile(self._keys, (T, 1))
        pos = np.ones((T, n), dtype=np.int64)
        return self.State(ctag, ckey, pos, *smallest_pairs(ctag, ckey))

    # -- round hooks --------------------------------------------------------

    def tags(self, state, local_rounds, active, rng) -> np.ndarray:
        gl, k = self.config.group_len, self.config.k
        # Group boundaries follow each node's local clock, shared by replicas.
        new_group = active & ((np.maximum(local_rounds, 1) - 1) % gl == 0)
        cnt = int(new_group.sum())
        if cnt:
            state.pos[:, new_group] = rng.integers(
                1, k + 1, size=(state.pos.shape[0], cnt)
            )
        bit = (state.ctag >> (k - state.pos)) & 1
        return (state.pos - 1) * 2 + bit

    def senders(self, state, tags, local_rounds, active, rng) -> np.ndarray:
        return (tags & 1) == 0

    def eligible_flat(self, state, tags, graph):
        # Target must advertise the sender's position with bit 1.
        n_pos, n_bit = _decode_positions(tags[:, graph.indices])
        row_pos = np.repeat(state.pos, graph.degrees, axis=1)
        return (n_bit == 1) & (n_pos == row_pos)

    def exchange(self, state, proposers, acceptors) -> None:
        # Gather both sides first: adoption is immediate and symmetric,
        # so each endpoint must see the other's *pre-round* pair.
        ctag, ckey = state.ctag.reshape(-1), state.ckey.reshape(-1)
        ptag, pkey = ctag[proposers], ckey[proposers]
        atag, akey = ctag[acceptors], ckey[acceptors]
        pair_min_inplace(ctag, ckey, acceptors, ptag, pkey)
        pair_min_inplace(ctag, ckey, proposers, atag, akey)

    def converged(self, state) -> np.ndarray:
        return self.node_done(state).all(axis=1)

    def node_done(self, state) -> np.ndarray:
        return (state.ctag == state.target_tag[:, None]) & (
            state.ckey == state.target_key[:, None]
        )

    def corrupt_state(self, state, victims, rng) -> None:
        """Give victims adversarial pairs from a fictional prior execution.

        Victims receive *distinct* fresh ID tags not held by any survivor
        of their replica — corruption models joining nodes from an
        arbitrary prior run (Section VIII's self-stabilization setting),
        and the paper's w.h.p. tag-uniqueness event is what makes
        stabilization guaranteed rather than merely likely (duplicate
        tags can make position-matched proposals starve).  Keys are fresh
        draws on the simulator's ``[0, 10n)`` scale; the convergence
        target is recomputed over the corrupted state.  (No crash/rejoin
        ``reset_nodes`` is provided: the algorithm is self-stabilizing,
        so "rebooted with arbitrary state" is this same hook.)
        """
        n = state.ctag.shape[1]
        k = self.config.k
        for ctag, ckey, vic in zip(state.ctag, state.ckey, victims):
            mask = np.zeros(n, dtype=bool)
            mask[vic] = True
            taken = set(ctag[~mask].tolist())
            fresh = [t for t in rng.permutation(1 << k).tolist() if t not in taken]
            if len(fresh) < vic.size:
                raise ValueError(
                    f"cannot draw {vic.size} distinct fresh tags at k={k}"
                )
            ctag[vic] = np.asarray(fresh[: vic.size], dtype=np.int64)
            ckey[vic] = rng.integers(0, 10 * n, size=vic.size)
        state.target_tag, state.target_key = smallest_pairs(state.ctag, state.ckey)

    def observable(self, state) -> np.ndarray:
        # An adaptive adversary may watch who already holds the eventual
        # winner's pair.
        return self.node_done(state)

    # -- instrumentation ------------------------------------------------------

    def leaders(self, state) -> np.ndarray:
        """Current leader key per node per replica."""
        return state.ckey

    def settled_prefix(self, state) -> np.ndarray:
        """Per replica, the longest tag prefix (in bits) on which all nodes
        agree with the target.

        The quantity Lemma VIII.1 proves monotone: once every node matches
        the minimum tag ``t̂`` on its first ``i`` bits, that agreement is
        permanent.  Agreement on ``i`` bits implies it on fewer, so the
        count of agreeing prefix lengths is the longest one.
        """
        shifts = self.config.k - np.arange(1, self.config.k + 1)
        agree = (
            (state.ctag[:, None, :] >> shifts[None, :, None])
            == (state.target_tag[:, None, None] >> shifts[None, :, None])
        ).all(axis=2)
        return agree.sum(axis=1)
