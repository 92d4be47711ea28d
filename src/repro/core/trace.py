"""Execution traces and per-round metrics.

Traces exist for three consumers: tests asserting model invariants (each
node in at most one connection per round, proposals only along current
edges), experiments measuring progress quantities (connections across a
cut per round), and debugging.  Tracing is opt-in; the engines skip all
record-keeping when no trace is attached, keeping the hot path lean.

Every engine tier emits the same :class:`RoundRecord` shape — the
reference and vectorized engines append to a :class:`Trace` directly,
while the batched engine appends flat per-round batches to a
:class:`BatchedTrace` whose :meth:`BatchedTrace.replica` view recovers a
per-replica :class:`Trace` — so the conformance checkers in
:mod:`repro.conformance.invariants` audit all three tiers through one
record format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.csrops import all_distinct

__all__ = [
    "RoundRecord",
    "Trace",
    "BatchedTrace",
    "RunResult",
    "BatchedRunResult",
    "traces_equal",
]


@dataclass(frozen=True)
class RoundRecord:
    """Everything observable about one simulated round.

    Attributes
    ----------
    round_index
        Global 1-indexed round number.
    proposals
        ``(k, 2)`` array of ``(sender, target)`` proposals issued.
    connections
        ``(c, 2)`` array of ``(sender, receiver)`` established connections.
    tags
        Advertised tag per node (-1 for inactive nodes).
    active
        Boolean activation mask for the round.
    """

    round_index: int
    proposals: np.ndarray
    connections: np.ndarray
    tags: np.ndarray
    active: np.ndarray


class Trace:
    """An append-only list of :class:`RoundRecord` with convenience queries."""

    def __init__(self) -> None:
        self.rounds: list[RoundRecord] = []

    def append(self, record: RoundRecord) -> None:
        self.rounds.append(record)

    def __len__(self) -> int:
        return len(self.rounds)

    def connections_at(self, round_index: int) -> np.ndarray:
        """Connections of a given 1-indexed round."""
        return self.rounds[round_index - 1].connections

    def total_connections(self) -> int:
        """Total connections established over the whole run."""
        return int(sum(r.connections.shape[0] for r in self.rounds))

    def connections_per_round(self) -> np.ndarray:
        """Connection count per recorded round."""
        return np.array([r.connections.shape[0] for r in self.rounds], dtype=np.int64)

    def proposals_per_round(self) -> np.ndarray:
        """Proposal count per recorded round."""
        return np.array([r.proposals.shape[0] for r in self.rounds], dtype=np.int64)

    def cut_connections(self, in_set: np.ndarray) -> np.ndarray:
        """Per-round count of connections crossing the cut ``in_set``.

        ``in_set`` is a boolean mask over nodes; a crossing connection has
        exactly one endpoint inside.  This is the per-round realization of
        the paper's ν(B(S)) capacity argument.
        """
        in_set = np.asarray(in_set, dtype=bool)
        out = np.zeros(len(self.rounds), dtype=np.int64)
        for i, rec in enumerate(self.rounds):
            if rec.connections.size:
                a = in_set[rec.connections[:, 0]]
                b = in_set[rec.connections[:, 1]]
                out[i] = int((a ^ b).sum())
        return out

    def connection_participants_ok(self) -> bool:
        """Model invariant: every node joins at most one connection per round."""
        for rec in self.rounds:
            if rec.connections.size == 0:
                continue
            flat = rec.connections.ravel()
            if not all_distinct(flat):
                return False
        return True


class BatchedTrace:
    """Per-round records of a batched engine run over ``T`` replicas.

    The batched engine works on flat ``(replica, pair)`` lists, so each
    round is stored as one batch: parallel replica-index arrays alongside
    the ``(k, 2)`` proposal / connection pair arrays, plus the shared
    activation mask and the (optional) ``(T, n)`` tag grid.
    :meth:`replica` recovers an ordinary :class:`Trace` for one replica,
    bit-compatible with what a single-replica engine records — the form
    the invariant checkers consume.
    """

    def __init__(self, replicas: int, n: int) -> None:
        self.replicas = int(replicas)
        self.n = int(n)
        self.round_indices: list[int] = []
        #: Per round: (k,) replica index of each proposal.
        self.proposal_reps: list[np.ndarray] = []
        #: Per round: (k, 2) ``(sender, target)`` proposals (local vertex ids).
        self.proposals: list[np.ndarray] = []
        #: Per round: (c,) replica index of each connection.
        self.connection_reps: list[np.ndarray] = []
        #: Per round: (c, 2) ``(sender, receiver)`` connections (local ids).
        self.connections: list[np.ndarray] = []
        #: Per round: (T, n) advertised tags, or None for b = 0 algorithms.
        self.tags: list[np.ndarray | None] = []
        #: Per round: (n,) activation mask (shared by all replicas).
        self.active: list[np.ndarray] = []

    def append_round(
        self,
        round_index: int,
        sflat: np.ndarray,
        tflat: np.ndarray,
        win_flat: np.ndarray | None,
        acc_flat: np.ndarray | None,
        tags: np.ndarray | None,
        active: np.ndarray,
    ) -> None:
        """Record one round from the engine's flat ``t*n + v`` id arrays."""
        n = self.n
        self.round_indices.append(round_index)
        self.proposal_reps.append((sflat // n).astype(np.int64))
        self.proposals.append(
            np.column_stack([sflat % n, tflat % n]).astype(np.int64).reshape(-1, 2)
        )
        if acc_flat is None or win_flat is None:
            self.connection_reps.append(np.empty(0, dtype=np.int64))
            self.connections.append(np.empty((0, 2), dtype=np.int64))
        else:
            self.connection_reps.append((acc_flat // n).astype(np.int64))
            self.connections.append(
                np.column_stack([win_flat % n, acc_flat % n])
                .astype(np.int64)
                .reshape(-1, 2)
            )
        self.tags.append(None if tags is None else np.array(tags, dtype=np.int64))
        self.active.append(np.array(active, dtype=bool))

    def __len__(self) -> int:
        return len(self.round_indices)

    def replica(self, t: int) -> Trace:
        """The :class:`Trace` view of replica ``t`` (one record per round).

        Tags follow the single-engine convention: ``-1`` for inactive
        nodes, and ``0`` for active nodes of ``b = 0`` algorithms (which
        advertise nothing; the batched engine skips materializing their
        all-zero tag grid).
        """
        if not 0 <= t < self.replicas:
            raise IndexError(f"replica {t} out of range [0, {self.replicas})")
        trace = Trace()
        for i, r in enumerate(self.round_indices):
            active = self.active[i]
            grid = self.tags[i]
            row = np.zeros(self.n, dtype=np.int64) if grid is None else grid[t]
            sel = self.proposal_reps[i] == t
            csel = self.connection_reps[i] == t
            trace.append(
                RoundRecord(
                    round_index=r,
                    proposals=self.proposals[i][sel],
                    connections=self.connections[i][csel],
                    tags=np.where(active, row, -1),
                    active=active.copy(),
                )
            )
        return trace


def traces_equal(a: Trace, b: Trace) -> bool:
    """Whether two traces are bit-for-bit identical, round for round."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a.rounds, b.rounds):
        if ra.round_index != rb.round_index:
            return False
        if not (
            np.array_equal(ra.proposals, rb.proposals)
            and np.array_equal(ra.connections, rb.connections)
            and np.array_equal(ra.tags, rb.tags)
            and np.array_equal(ra.active, rb.active)
        ):
            return False
    return True


@dataclass
class RunResult:
    """Outcome of one engine run.

    Attributes
    ----------
    stabilized
        Whether the stop predicate was satisfied within the horizon.
    rounds
        Rounds executed until stabilization (or the horizon if not).
    rounds_after_last_activation
        Same, counted from the last node's activation round — the metric
        Theorem VIII.2 is stated in.  Equals ``rounds`` for synchronized
        starts.
    trace
        Optional attached :class:`Trace`.
    """

    stabilized: bool
    rounds: int
    rounds_after_last_activation: int
    trace: Trace | None = None


@dataclass(frozen=True)
class BatchedRunResult:
    """Per-replica outcomes of one :class:`~repro.core.batched.BatchedVectorizedEngine` run.

    Array analogue of :class:`RunResult` over the replica axis: entry ``t``
    describes replica ``t`` exactly as a :class:`RunResult` would describe
    the corresponding single-replica run.
    """

    #: ``(T,)`` bool — whether each replica stabilized within the horizon.
    stabilized: np.ndarray
    #: ``(T,)`` int — rounds until stabilization (or the horizon).
    rounds: np.ndarray
    #: ``(T,)`` int — rounds counted from the last activation round.
    rounds_after_last_activation: np.ndarray
    #: Optional attached :class:`BatchedTrace`.
    trace: "BatchedTrace | None" = None

    @property
    def replicas(self) -> int:
        return int(self.stabilized.shape[0])

    def replica(self, t: int) -> RunResult:
        """The ``RunResult`` view of replica ``t``."""
        return RunResult(
            stabilized=bool(self.stabilized[t]),
            rounds=int(self.rounds[t]),
            rounds_after_last_activation=int(self.rounds_after_last_activation[t]),
            trace=None if self.trace is None else self.trace.replica(t),
        )
