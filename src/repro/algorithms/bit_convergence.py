"""Bit convergence leader election (paper Section VII; ``b = 1``, any ``τ ≥ 1``).

Structure (verbatim from the paper):

* each node ``u`` draws a random **ID tag** ``t_u`` of ``k = ⌈β·log n⌉``
  bits and forms the *ID pair* ``(I_u, t_u)`` with its UID;
* rounds are partitioned into **groups** of ``2·log Δ`` rounds, and groups
  into **phases** of ``k`` groups (group ``i`` of a phase is mapped to bit
  position ``i`` of the ID tags, most significant first);
* at the beginning of each phase a node commits the smallest ID pair it
  has encountered (ordered by tag, ties by UID) and sets
  ``leader ← committed.uid``;
* during group ``i``, a node advertises bit ``i`` of its committed tag and
  runs PPUSH with the 0-bit nodes as senders: a 0-node proposes to a
  uniformly random neighbor advertising 1; connected nodes trade committed
  ID pairs; received pairs are buffered and only committed at the next
  phase boundary.

Theorem VII.2: stabilizes in ``O((1/α)·Δ^{1/τ̂}·τ̂·log⁵ n)`` rounds w.h.p.,
``τ̂ = min(τ, log Δ)``.  The algorithm needs no knowledge of ``τ``; it
*does* assume synchronized starts (all nodes activate in round 1) — the
Section VIII variant (:mod:`repro.algorithms.async_bit_convergence`)
removes that assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.algorithms._pairs import pair_min_inplace, smallest_pairs
from repro.analysis.bounds import group_length, tag_bits
from repro.core.batched import BatchedAlgorithm
from repro.core.payload import IDPair, Message, UID, UIDSpace
from repro.core.protocol import LeaderElectionProtocol, RoundView
from repro.util.bits import bit_at
from repro.util.csrops import all_distinct
from repro.util.rng import make_rng

__all__ = [
    "BitConvergenceConfig",
    "BitConvergenceNode",
    "BitConvergenceBatched",
    "make_bit_convergence_nodes",
    "draw_id_tags",
    "replica_id_tags",
]


@dataclass(frozen=True)
class BitConvergenceConfig:
    """Static parameters of the bit convergence algorithms.

    Parameters
    ----------
    n_upper
        The polynomial upper bound ``N`` on the network size every node is
        given (paper Section IV).
    delta_bound
        Upper bound on the maximum degree ``Δ``, used for the group length
        ``2·log Δ``.  ``N`` is always a valid (loose) choice.
    beta
        Tag-width multiplier: ``k = ⌈β·log N⌉`` bits.
    group_multiplier
        Group length is ``group_multiplier · log Δ`` rounds.  The paper
        fixes 2 (guaranteeing a ``τ̂``-stable stretch inside every group);
        other values exist solely for the ablation experiment A1.
    """

    n_upper: int
    delta_bound: int
    beta: float = 2.0
    group_multiplier: int = 2

    def __post_init__(self):
        if self.n_upper < 2:
            raise ValueError("n_upper must be >= 2")
        if self.delta_bound < 1:
            raise ValueError("delta_bound must be >= 1")
        if self.group_multiplier < 1:
            raise ValueError("group_multiplier must be >= 1")
        if self.k > 62:
            raise ValueError("tag width k > 62 bits unsupported by int64 kernels")

    @property
    def k(self) -> int:
        """Tag width in bits: ``⌈β·log N⌉``."""
        return tag_bits(self.n_upper, self.beta)

    @property
    def group_len(self) -> int:
        """Rounds per group: ``group_multiplier · log Δ`` (paper: 2·log Δ)."""
        base = group_length(self.delta_bound) // 2  # = log Δ (>= 1)
        return max(2, self.group_multiplier * base)

    @property
    def phase_len(self) -> int:
        """Rounds per phase: ``k`` groups."""
        return self.k * self.group_len

    def position(self, local_round: int) -> int:
        """Bit position (1-indexed, MSB first) active in ``local_round``."""
        if local_round < 1:
            raise ValueError("rounds are 1-indexed")
        group_index = (local_round - 1) // self.group_len
        return (group_index % self.k) + 1

    def is_phase_end(self, local_round: int) -> bool:
        """True when ``local_round`` is the last round of a phase."""
        return local_round % self.phase_len == 0


def draw_id_tags(
    n: int, config: BitConvergenceConfig, seed: int | None, *, unique: bool = False
) -> np.ndarray:
    """Uniform random ``k``-bit ID tags for ``n`` nodes.

    The paper draws tags from ``1..n^β``; we use the bit-equivalent
    ``[0, 2^k)`` universe.

    With ``unique=False`` (the algorithm as written) tag collisions are
    possible.  A collision *at the minimum tag value* is fatal to bit
    convergence: the colliding pairs have identical bits in every
    position, so the 1-bit advertisements can never separate them and the
    losing holder never learns the winning pair.  The paper folds this
    into its failure probability — its analysis explicitly "begin[s] by
    assuming that at the beginning of the execution each node selects a
    unique ID tag", an event whose probability is controlled by ``β``.
    ``unique=True`` samples *distinct* tags (a uniform random subset),
    i.e. conditions on exactly that event; the experiment harness uses it
    so that no measurement is contaminated by the (well-understood)
    collision failure mode.
    """
    rng = make_rng(seed, "id-tags")
    space = 1 << config.k
    if not unique:
        return rng.integers(0, space, size=n, dtype=np.int64)
    if n > space:
        raise ValueError(f"cannot draw {n} unique tags from a {space}-tag space")
    if space <= 1 << 24:
        return rng.choice(space, size=n, replace=False).astype(np.int64)
    # Large spaces: rejection-sample distinct values.
    seen: set[int] = set()
    out = np.empty(n, dtype=np.int64)
    filled = 0
    while filled < n:
        cand = rng.integers(0, space, size=2 * (n - filled), dtype=np.int64)
        for c in cand:
            ci = int(c)
            if ci not in seen:
                seen.add(ci)
                out[filled] = ci
                filled += 1
                if filled == n:
                    break
    return out


def replica_id_tags(
    n: int,
    config: BitConvergenceConfig,
    seeds: np.ndarray,
    tag_seed: int | None = None,
    *,
    unique: bool = False,
) -> np.ndarray:
    """``(T, n)`` ID tags for ``T = len(seeds)`` replicas.

    Replica ``t`` draws from its trial seed ``seeds[t]``; a ``tag_seed``
    instead gives every replica the tags drawn from it.
    """
    if tag_seed is not None:
        return np.tile(draw_id_tags(n, config, tag_seed, unique=unique), (len(seeds), 1))
    return np.stack([draw_id_tags(n, config, int(s), unique=unique) for s in seeds])


class BitConvergenceNode(LeaderElectionProtocol):
    """Per-node bit convergence state machine (reference semantics)."""

    tag_length = 1

    def __init__(self, node_id: int, uid: UID, id_tag: int, config: BitConvergenceConfig):
        super().__init__(node_id, uid)
        self.config = config
        if not 0 <= id_tag < (1 << config.k):
            raise ValueError(f"id_tag {id_tag} does not fit in k={config.k} bits")
        self._committed = IDPair(uid, int(id_tag))
        self._pending = self._committed  # best pair seen, applied at phase end
        self._local_round = 0

    @property
    def leader(self) -> UID:
        return self._committed.uid

    @property
    def committed_pair(self) -> IDPair:
        """The currently committed smallest ID pair ``(Î_u, t̂_u)``."""
        return self._committed

    @property
    def pending_pair(self) -> IDPair:
        """Best pair encountered so far (commits at the next phase boundary)."""
        return self._pending

    def _current_bit(self, local_round: int) -> int:
        i = self.config.position(local_round)
        return bit_at(self._committed.tag, i, self.config.k)

    def choose_tag(self, local_round: int, rng: np.random.Generator) -> int:
        self._local_round = local_round
        return self._current_bit(local_round)

    def decide(self, view: RoundView) -> int | None:
        if self._current_bit(view.local_round) == 1:
            return None  # 1-advertisers only receive
        candidates = view.neighbors[view.neighbor_tags == 1]
        if candidates.size == 0:
            return None
        return int(candidates[view.rng.integers(0, candidates.size)])

    def compose(self, peer: int) -> Message:
        return Message(
            uids=(self._committed.uid,),
            extra_bits=self.config.k,
            data=self._committed,
        )

    def deliver(self, peer: int, message: Message) -> None:
        pair = message.data
        if isinstance(pair, IDPair) and pair < self._pending:
            self._pending = pair

    def end_round(self) -> None:
        # Commit at the phase boundary: the paper's "beginning of each
        # phase" update is equivalently applied at the end of the last
        # round of the previous phase.
        if self.config.is_phase_end(self._local_round):
            self._committed = self._pending


def make_bit_convergence_nodes(
    uid_space: UIDSpace,
    config: BitConvergenceConfig,
    seed: int | None = None,
    *,
    unique_tags: bool = False,
) -> list[BitConvergenceNode]:
    """One node per vertex with freshly drawn ID tags."""
    tags = draw_id_tags(len(uid_space), config, seed, unique=unique_tags)
    return [
        BitConvergenceNode(v, uid_space.uid_of(v), int(tags[v]), config)
        for v in range(len(uid_space))
    ]


class BitConvergenceBatched(BatchedAlgorithm):
    """Array-kernel bit convergence for every array engine.

    Replica ``t`` draws its ID tags from its trial seed ``seeds[t]`` (see
    :func:`replica_id_tags`), or every replica from ``tag_seed`` when one
    is given.  Because tags differ per replica, the eventual winner (and
    hence the convergence target) is per-replica state.
    """

    tag_length = 1

    def __init__(
        self,
        uid_keys: np.ndarray,
        config: BitConvergenceConfig,
        *,
        tag_seed: int | None = None,
        unique_tags: bool = False,
    ):
        self._keys = np.asarray(uid_keys, dtype=np.int64)
        if not all_distinct(self._keys):
            raise ValueError("UID keys must be unique")
        self.config = config
        self._tag_seed = tag_seed
        self._unique_tags = unique_tags

    class State:
        __slots__ = ("ctag", "ckey", "ptag", "pkey", "target_tag", "target_key")

        def __init__(self, ctag, ckey, target_tag, target_key):
            self.ctag = ctag
            self.ckey = ckey
            self.ptag = ctag.copy()
            self.pkey = ckey.copy()
            self.target_tag = target_tag
            self.target_key = target_key

    def init_state(self, n: int, seeds: np.ndarray) -> "BitConvergenceBatched.State":
        if self._keys.shape != (n,):
            raise ValueError("uid_keys must have one key per vertex")
        ctag = replica_id_tags(
            n, self.config, seeds, self._tag_seed, unique=self._unique_tags
        )
        ckey = np.tile(self._keys, (len(seeds), 1))
        # Per replica, the eventual winner is the lexicographically
        # smallest (tag, key).
        return self.State(ctag, ckey, *smallest_pairs(ctag, ckey))

    def _positions(self, local_rounds: np.ndarray) -> np.ndarray:
        gl, k = self.config.group_len, self.config.k
        group_index = (np.maximum(local_rounds, 1) - 1) // gl
        return (group_index % k) + 1

    def tags(self, state, local_rounds, active, rng) -> np.ndarray:
        i = self._positions(local_rounds)  # (n,), shared by all replicas
        return (state.ctag >> (self.config.k - i)[None, :]) & 1

    def senders(self, state, tags, local_rounds, active, rng) -> np.ndarray:
        return tags == 0

    def receiver_mask(self, state, tags) -> np.ndarray:
        # 0-bit senders target neighbors currently advertising 1.
        return tags == 1

    def exchange(self, state, proposers, acceptors) -> None:
        # Both endpoints receive the other's *committed* pair into pending.
        ptag, pkey = state.ptag.reshape(-1), state.pkey.reshape(-1)
        ctag, ckey = state.ctag.reshape(-1), state.ckey.reshape(-1)
        pair_min_inplace(ptag, pkey, acceptors, ctag[proposers], ckey[proposers])
        pair_min_inplace(ptag, pkey, proposers, ctag[acceptors], ckey[acceptors])

    def end_round(self, state, round_index, local_rounds, active, live) -> None:
        # Committing in a converged replica copies the target over
        # itself, so no live-mask is needed for correctness.
        boundary = active & (local_rounds % self.config.phase_len == 0)
        if np.any(boundary):
            state.ctag[:, boundary] = state.ptag[:, boundary]
            state.ckey[:, boundary] = state.pkey[:, boundary]

    def converged(self, state) -> np.ndarray:
        t = state.target_tag[:, None]
        k = state.target_key[:, None]
        return (
            ((state.ctag == t) & (state.ckey == k)).all(axis=1)
            & ((state.ptag == t) & (state.pkey == k)).all(axis=1)
        )

    def node_done(self, state) -> np.ndarray:
        t = state.target_tag[:, None]
        k = state.target_key[:, None]
        return (
            (state.ctag == t) & (state.ckey == k)
            & (state.ptag == t) & (state.pkey == k)
        )

    def observable(self, state) -> np.ndarray:
        # An adaptive adversary may watch who already committed the
        # eventual winner's pair.
        return (state.ctag == state.target_tag[:, None]) & (
            state.ckey == state.target_key[:, None]
        )

    # -- instrumentation ---------------------------------------------------

    def leaders(self, state) -> np.ndarray:
        """Current leader key per node per replica."""
        return state.ckey

    def max_difference_bit(self, state) -> list[int | None]:
        """The paper's ``b_i`` per replica: most significant differing
        committed-tag bit, or ``None`` (the paper's ``⊥``) when all
        committed tags agree."""
        from repro.util.bits import msb_difference_position

        return [msb_difference_position(row, self.config.k) for row in state.ctag]

    def zero_set_size(self, state) -> list[int | None]:
        """``|S_i|`` per replica: nodes with a 0 in position ``b_i`` of
        their committed tag (``None`` when ``b_i = ⊥``)."""
        sizes: list[int | None] = []
        for row, bi in zip(state.ctag, self.max_difference_bit(state)):
            if bi is None:
                sizes.append(None)
            else:
                sizes.append(int((((row >> (self.config.k - bi)) & 1) == 0).sum()))
        return sizes
