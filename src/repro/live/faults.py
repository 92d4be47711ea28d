"""Routing a :class:`~repro.faults.plan.FaultPlan` onto real sockets.

The live tier injects the plan's faults as *network* events rather than
simulator mask updates:

* **crash windows** — the coordinator directs the victim to hard-close
  every data socket (peers read a real EOF) and, at the window's end,
  to re-dial its live neighbors (with a protocol ``reset()`` when the
  window asks for one);
* **connection drops** — both endpoints of an established connection
  evaluate the same seed-derived verdict and eat the payload frames, so
  the drop needs no negotiation and both sides stay in lockstep.

Everything else a plan can express (tag corruption, mass state
corruption, open-world membership) manipulates *simulator* state that a
real transport has no hook for; such plans are rejected loudly rather
than silently half-applied (the ``"live"`` row of
:data:`~repro.core.capabilities.TIERS`).
"""

from __future__ import annotations

import numpy as np

from repro.core.capabilities import check_supported
from repro.faults.plan import FaultPlan
from repro.graphs.dynamic import DynamicGraph
from repro.util.rng import make_rng

__all__ = ["LiveFaultModel", "connection_dropped"]


def connection_dropped(seed: int | None, r: int, s: int, t: int, p: float) -> bool:
    """Symmetric per-connection drop verdict for round ``r``.

    Both endpoints of the connection ``(s, t)`` call this with identical
    arguments and get the same answer — a deterministic function of the
    run seed and the connection identity — so a dropped payload never
    leaves one side waiting for frames the other will not send.
    """
    if p <= 0.0:
        return False
    return bool(make_rng(seed, "live-drop", r, s, t).random() < p)


class LiveFaultModel:
    """Round-indexed view of a live-checked plan for the coordinator."""

    def __init__(self, plan: FaultPlan | None, protocols, dg: DynamicGraph, seed: int | None):
        self.plan = check_supported(
            "live", protocols, graph=dg, fault_plan=plan, activation_rounds=None
        )
        n = self.n = dg.n
        if self.plan is not None:
            self.plan.validate_for(n)
        self.seed = seed
        self._crashes = self.plan.crashes if self.plan is not None else None
        self._resets = self._crashes.rejoin_resets() if self._crashes else {}
        self.gate = self.plan.quiesce_round if self.plan is not None else 0
        self.drop_p = (
            self.plan.connection_drop.p
            if self.plan is not None and self.plan.connection_drop is not None
            else 0.0
        )
        perma = np.zeros(n, dtype=bool)
        if self._crashes is not None:
            for window in self._crashes.windows:
                if window.end is None:
                    perma[window.node] = True
        #: Nodes crashed forever (``end=None`` windows): excluded from
        #: stabilization predicates, exactly like the reference engine.
        self.perma_down = perma if perma.any() else None

    def down_at(self, r: int) -> frozenset[int]:
        """Nodes inside a crash window during round ``r``."""
        if self._crashes is None:
            return frozenset()
        return frozenset(np.flatnonzero(self._crashes.down_at(r, self.n)).tolist())

    def resets_at(self, r: int) -> frozenset[int]:
        """Nodes whose rejoin at round ``r`` carries a state reset."""
        return frozenset(self._resets.get(r, ()))
