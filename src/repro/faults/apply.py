"""Run-time fault application (per-engine applicators).

A :class:`~repro.faults.plan.FaultPlan` is pure data; these applicators
hold the mutable run-time side — the fault RNG stream and the cached
crash mask — and expose one method per engine hook point.  Two shapes:

* :class:`SingleFaultState` — ``(n,)`` masks for the reference and
  vectorized engines (both operate on one network);
* :class:`BatchedFaultState` — ``(T, n)`` / flat masks for the batched
  engine, vectorized over replicas to preserve the batch throughput.
  Crash schedules are deterministic plan data shared by every replica
  (exactly like activation rounds), so the up mask stays ``(n,)``;
  probabilistic faults (drops, tag flips, corruption victims) draw
  per-replica.

Seeding hygiene: the fault stream must be handed in by the engine,
derived from the engine's trial seed via :mod:`repro.util.rng` labels
(``"faults"`` for single-network engines, ``"batched-faults"`` keyed on
``seeds[0]`` and the replica count for the batched engine) — never a
module-level RNG.  A separate stream means an engine built with a fault
plan whose models never fire consumes *zero* draws from the algorithm
streams, and the same plan + seed replays identically across
``run_trials(processes=K)`` workers and the batched engine.
"""

from __future__ import annotations

import numpy as np

from repro.faults.plan import FaultPlan

__all__ = ["SingleFaultState", "BatchedFaultState"]


class _FaultStateBase:
    """Shared crash-mask caching and schedule bookkeeping."""

    def __init__(self, plan: FaultPlan, n: int, rng: np.random.Generator):
        plan.validate_for(n)
        self.plan = plan
        self.n = n
        self.rng = rng
        #: First round from which convergence checks are meaningful.
        self.gate = plan.quiesce_round
        self._schedule = plan.crashes
        self._membership = plan.membership
        transitions = (
            set(self._schedule.transition_rounds()) if self._schedule else set()
        )
        if self._membership is not None:
            transitions |= set(self._membership.transition_rounds())
        self._transitions = frozenset(transitions)
        resets: dict[int, set[int]] = {
            r: set(nodes)
            for r, nodes in (
                self._schedule.rejoin_resets() if self._schedule else {}
            ).items()
        }
        if self._membership is not None:
            # A crash rejoin on a membership-absent slot is moot: the slot
            # stays down, and the eventual join resets it anyway.
            for r in list(resets):
                down = self._membership.down_at(r, n)
                resets[r] = {v for v in resets[r] if not down[v]}
                if not resets[r]:
                    del resets[r]
            for r, slots in self._membership.state_resets().items():
                resets.setdefault(r, set()).update(slots)
        self._rejoins = {r: tuple(sorted(v)) for r, v in resets.items()}
        self._events = {}
        for e in plan.state_corruption:
            self._events.setdefault(e.round, []).append(e)
        drop = plan.connection_drop
        self._drop_p = drop.p if drop is not None else None
        flips = plan.tag_corruption
        self._flip_q = flips.q if flips is not None else None
        # Cached up mask; None while every node is up (engine fast path).
        self._up: np.ndarray | None = None
        self._up_round = 0
        #: ``(n,)`` mask of permanently crashed nodes (``end=None`` windows),
        #: or ``None`` when every crash eventually rejoins.  Past the
        #: quiesce gate these nodes are down forever with frozen state, so
        #: stabilization predicates must exclude them (a permanently
        #: crashed node can never adopt the winner).
        perma = np.zeros(n, dtype=bool)
        if self._schedule is not None:
            for w in self._schedule.windows:
                if w.end is None:
                    perma[w.node] = True
        if self._membership is not None:
            for s in self._membership.never_return():
                perma[s] = True
        self.perma_down: np.ndarray | None = perma if perma.any() else None

    def up_mask(self, r: int) -> np.ndarray | None:
        """``(n,)`` mask of live nodes, or ``None`` when all are up.

        A node is down when a crash window covers ``r`` *or* the
        membership schedule has it absent in ``r``.  Recomputed only at
        window edges / membership events; between edges the cached mask
        is reused (rounds must be visited in order, as engines do).
        """
        if self._schedule is None and self._membership is None:
            return None
        if self._up_round == 0 or r in self._transitions:
            if self._schedule is not None:
                down = self._schedule.down_at(r, self.n)
            else:
                down = np.zeros(self.n, dtype=bool)
            if self._membership is not None:
                down |= self._membership.down_at(r, self.n)
            self._up = None if not down.any() else ~down
        self._up_round = r
        return self._up

    def rejoin_resets(self, r: int) -> np.ndarray:
        """Nodes whose state resets at the start of round ``r``.

        Crash rejoins with ``reset_on_rejoin``, membership joins (fresh
        state is what makes a join open-world), and clean departures
        (wiped on the way out) all funnel through this one hook, which is
        how membership lands identically on every engine tier.
        """
        return np.asarray(self._rejoins.get(r, ()), dtype=np.int64)

    def events_at(self, r: int):
        """State-corruption events scheduled for the start of round ``r``."""
        return self._events.get(r, ())

    def connection_keep(self, count: int) -> np.ndarray | None:
        """Survival mask for ``count`` established connections (or ``None``)."""
        if self._drop_p is None or count == 0:
            return None
        return self.rng.random(count) >= self._drop_p

    def _flip_bits(self, tags: np.ndarray, active: np.ndarray, bits: int) -> np.ndarray:
        """Flip each advertised bit with probability ``q`` (in place).

        One ``(shape)`` draw per bit regardless of activity, so the draw
        count is shape-stable; flips land only on active nodes (inactive
        entries may hold sentinels like the reference engine's ``-1``).
        """
        for bit in range(bits):
            flip = (self.rng.random(tags.shape) < self._flip_q) & active
            np.bitwise_xor(tags, 1 << bit, out=tags, where=flip)
        return tags


class SingleFaultState(_FaultStateBase):
    """``(n,)``-shaped applicator for the reference and vectorized engines."""

    def __init__(
        self,
        plan: FaultPlan,
        n: int,
        rng: np.random.Generator,
        *,
        tag_length: int = 0,
    ):
        super().__init__(plan, n, rng)
        self.tag_length = int(tag_length)

    def corruption_victims(self, r: int) -> list[np.ndarray]:
        """One uniformly drawn victim set per event scheduled at ``r``."""
        return [
            self.rng.choice(self.n, size=e.victim_count(self.n), replace=False)
            for e in self.events_at(r)
        ]

    def corrupt_tags(self, tags: np.ndarray, active: np.ndarray) -> np.ndarray:
        """Apply tag bit flips in place (no-op for ``b = 0`` algorithms)."""
        if self._flip_q is None or self.tag_length == 0:
            return tags
        return self._flip_bits(tags, active, self.tag_length)


class BatchedFaultState(_FaultStateBase):
    """``(T, n)``-shaped applicator for the batched engine.

    Deterministic schedule faults (crashes) are shared ``(n,)`` masks;
    probabilistic faults draw per replica so the ``T`` trials stay
    mutually independent, exactly like the batched algorithm streams.
    """

    def __init__(
        self,
        plan: FaultPlan,
        n: int,
        replicas: int,
        rng: np.random.Generator,
        *,
        tag_length: int = 0,
    ):
        super().__init__(plan, n, rng)
        self.replicas = int(replicas)
        self.tag_length = int(tag_length)

    def corruption_victims(self, r: int) -> list[np.ndarray]:
        """One ``(T, k)`` victim array per event scheduled at ``r``.

        Victims are i.i.d. uniform ``k``-subsets per replica (the argsort
        of a random grid — same distribution as ``choice`` without
        replacement, batched over replicas).
        """
        out = []
        for e in self.events_at(r):
            k = e.victim_count(self.n)
            grid = self.rng.random((self.replicas, self.n))
            out.append(np.argsort(grid, axis=1)[:, :k])
        return out

    def corrupt_tags(self, tags: np.ndarray, active: np.ndarray) -> np.ndarray:
        """Apply per-replica tag bit flips in place (``(T, n)`` tags)."""
        if self._flip_q is None or self.tag_length == 0:
            return tags
        # active is (n,): broadcasts across the replica axis.
        return self._flip_bits(tags, active[None, :], self.tag_length)
