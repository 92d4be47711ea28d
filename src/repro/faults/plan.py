"""Declarative fault plans (schema layer).

The mobile telephone model itself has no faults, but the paper's Section
VIII algorithm is *self-stabilizing*, and the smartphone deployments
motivating the model certainly do fail: phones crash and rejoin, Bluetooth
connections drop mid-handshake, advertisements arrive garbled.  A
:class:`FaultPlan` composes seeded fault models into one declarative
object that every engine tier (reference, vectorized, batched) consumes
uniformly:

* :class:`CrashSchedule` — per-node crash/recover windows, including
  permanent crashes and late rejoins with reset state;
* :class:`ConnectionDropModel` — each established connection
  independently fails with probability ``p`` *before* the payload
  exchange (the proposal/acceptance handshake happened, the transfer
  did not);
* :class:`TagCorruptionModel` — each advertised tag bit independently
  flips with probability ``q`` at the advertiser's radio (all observers
  see the same corrupted tag; the advertiser's own logic uses its
  intended tag);
* :class:`StateCorruptionEvent` — at the start of round ``r``, a random
  ``fraction`` of the nodes have their algorithm state overwritten with
  arbitrary values (Section VIII's transient-corruption regime,
  promoted from test-level code to a reusable primitive);
* :class:`MembershipSchedule` — **open-world membership** (the regime of
  Augustine et al., "Robust Leader Election in a Fast-Changing World"):
  joins bring *fresh* protocol state into free slots, departures
  (crash-like or clean) free slots, and the live population ``n(r)``
  varies within a declared cap.  The engines keep their arrays at a
  constant slot width ``n``; membership masks slots in and out of it.

Plans are pure data: deterministic, hashable, JSON round-trippable.  All
randomness (which connection drops, which bits flip, who gets corrupted)
is drawn at run time from a fault RNG stream derived from the engine's
trial seed (see :mod:`repro.faults.apply`), so the same plan + seed
replays identically across processes and engine tiers.

Semantics shared by every engine (the four hook points of a round):

1. **start of round** ``r``: rejoin resets for nodes whose first up
   round is ``r``, then state-corruption events scheduled for ``r``;
2. **activation mask**: crashed nodes are removed from the active set —
   invisible to the scan, unable to propose, accept, or exchange (their
   state is frozen while down);
3. **tag advertisement**: tags flip bits per :class:`TagCorruptionModel`
   after the sender decision, before target eligibility;
4. **connection establishment → payload exchange**: accepted connections
   are dropped i.i.d. with probability ``p`` before the exchange
   (``connections_made`` counts only surviving connections).

Engines suppress convergence checks until :attr:`FaultPlan.quiesce_round`
(the last *scheduled* fault round) so that a plan's transient events
cannot race an absorbing predicate; stationary models (drops, tag flips)
do not gate convergence because they never un-converge absorbed state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.util.rng import make_rng

__all__ = [
    "CrashWindow",
    "CrashSchedule",
    "ConnectionDropModel",
    "TagCorruptionModel",
    "StateCorruptionEvent",
    "MembershipEvent",
    "MembershipSchedule",
    "FaultPlan",
    "random_crash_schedule",
    "random_membership_schedule",
    "leader_assassin_schedule",
    "example_plan",
]


@dataclass(frozen=True)
class CrashWindow:
    """One node down for rounds ``start..end`` inclusive (1-indexed).

    ``end=None`` is a permanent crash: the node never rejoins and its
    state stays frozen at the pre-crash value.  With ``reset_on_rejoin``
    (the default) the node rejoins at round ``end + 1`` with its state
    reset to the initial value — a reboot that lost volatile state;
    otherwise it resumes from the frozen pre-crash state.
    """

    node: int
    start: int
    end: int | None = None
    reset_on_rejoin: bool = True

    def __post_init__(self):
        if self.node < 0:
            raise ValueError(f"node must be >= 0, got {self.node}")
        if self.start < 1:
            raise ValueError(f"start must be >= 1 (1-indexed), got {self.start}")
        if self.end is not None and self.end < self.start:
            raise ValueError(f"end {self.end} precedes start {self.start}")

    def covers(self, r: int) -> bool:
        """Whether the node is down in round ``r``."""
        return self.start <= r and (self.end is None or r <= self.end)


@dataclass(frozen=True)
class CrashSchedule:
    """A set of :class:`CrashWindow` entries.

    Windows for *distinct* nodes may overlap freely; two windows for the
    same node must be disjoint (adjacent is fine: ``[5, 10]`` followed by
    ``[11, 15]`` delays the rejoin to round 16).  Overlapping same-node
    windows are rejected at construction — they describe a contradictory
    schedule ("crash a node that is already down") that previously
    surfaced only as confusing rejoin behaviour deep inside the engines.
    """

    windows: tuple[CrashWindow, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "windows", tuple(self.windows))
        by_node: dict[int, list[CrashWindow]] = {}
        for w in self.windows:
            by_node.setdefault(w.node, []).append(w)
        for node, ws in by_node.items():
            ws.sort(key=lambda w: w.start)
            for a, b in zip(ws, ws[1:]):
                if a.end is None or b.start <= a.end:
                    a_end = "inf" if a.end is None else a.end
                    raise ValueError(
                        f"overlapping crash windows for node {node}: "
                        f"[{a.start}, {a_end}] already covers round {b.start} "
                        f"where a second window starts"
                    )

    def is_empty(self) -> bool:
        return not self.windows

    def max_node(self) -> int:
        return max((w.node for w in self.windows), default=-1)

    def down_at(self, r: int, n: int) -> np.ndarray:
        """Boolean ``(n,)`` mask of nodes down in round ``r``."""
        down = np.zeros(n, dtype=bool)
        for w in self.windows:
            if w.covers(r):
                down[w.node] = True
        return down

    def transition_rounds(self) -> frozenset[int]:
        """Rounds at which the down mask can change (window edges)."""
        edges: set[int] = set()
        for w in self.windows:
            edges.add(w.start)
            if w.end is not None:
                edges.add(w.end + 1)
        return frozenset(edges)

    def rejoin_resets(self) -> dict[int, tuple[int, ...]]:
        """``{round: nodes}`` whose state resets at the start of that round.

        A node resets when a window with ``reset_on_rejoin`` ends at
        ``round - 1`` and no other window still holds the node down at
        ``round`` (overlapping windows delay the rejoin, and the reset
        with it, until the node is actually back up).
        """
        out: dict[int, set[int]] = {}
        for w in self.windows:
            if w.end is None or not w.reset_on_rejoin:
                continue
            rejoin = w.end + 1
            if any(o.covers(rejoin) for o in self.windows if o.node == w.node):
                continue
            out.setdefault(rejoin, set()).add(w.node)
        return {r: tuple(sorted(nodes)) for r, nodes in out.items()}

    def quiesce_round(self) -> int:
        """Last scheduled transition (permanent crashes contribute ``start``)."""
        q = 0
        for w in self.windows:
            q = max(q, w.start if w.end is None else w.end + 1)
        return q


@dataclass(frozen=True)
class ConnectionDropModel:
    """Each established connection independently fails with probability ``p``.

    The drop happens after proposal/acceptance but before the payload
    exchange — the handshake succeeded, the transfer did not — so a
    dropped connection consumes the round without moving any state.
    """

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"drop probability must be in [0, 1), got {self.p}")

    def is_empty(self) -> bool:
        return self.p <= 0.0


@dataclass(frozen=True)
class TagCorruptionModel:
    """Each advertised tag bit independently flips with probability ``q``.

    Corruption happens at the advertiser's radio: every observer sees the
    same corrupted tag, while the advertiser's own send/receive logic
    uses the tag it intended.  ``b = 0`` algorithms advertise nothing,
    so the model is a no-op for them.
    """

    q: float

    def __post_init__(self):
        if not 0.0 <= self.q < 1.0:
            raise ValueError(f"flip probability must be in [0, 1), got {self.q}")

    def is_empty(self) -> bool:
        return self.q <= 0.0


@dataclass(frozen=True)
class StateCorruptionEvent:
    """At the start of round ``round``, corrupt a random node subset.

    ``max(1, int(n * fraction))`` victims are drawn uniformly without
    replacement (independently per replica in the batched engine) and
    handed to the algorithm's ``corrupt_state`` hook, which overwrites
    their state with arbitrary values and recomputes its convergence
    target over the corrupted state — Section VIII's transient-fault
    regime.
    """

    round: int
    fraction: float

    def __post_init__(self):
        if self.round < 1:
            raise ValueError(f"round must be >= 1 (1-indexed), got {self.round}")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")

    def victim_count(self, n: int) -> int:
        return min(n, max(1, int(n * self.fraction)))


_MEMBERSHIP_KINDS = ("join", "depart", "depart_clean")


@dataclass(frozen=True)
class MembershipEvent:
    """One open-world membership transition for one slot.

    ``join`` brings the slot up at the start of round ``round`` with
    *fresh* protocol state (the algorithm's reset hook runs — a joining
    device knows nothing).  ``depart`` removes it crash-like: the state
    freezes in the slot, invisible to the network.  ``depart_clean``
    removes it gracefully: the slot's state is wiped back to its initial
    value on the way out, so nothing can leak from a clean leaver.
    """

    slot: int
    round: int
    kind: str

    def __post_init__(self):
        if self.slot < 0:
            raise ValueError(f"slot must be >= 0, got {self.slot}")
        if self.round < 1:
            raise ValueError(f"round must be >= 1 (1-indexed), got {self.round}")
        if self.kind not in _MEMBERSHIP_KINDS:
            raise ValueError(
                f"kind must be one of {_MEMBERSHIP_KINDS}, got {self.kind!r}"
            )


@dataclass(frozen=True)
class MembershipSchedule:
    """Open-world membership churn over a fixed slot space.

    The engines keep their arrays at a constant width ``n`` — the *slot
    cap* — and membership varies the live population ``n(r)`` inside it:
    slots listed in ``initial_absent`` start empty, ``join`` events fill
    a free slot with fresh state, departures free it again.  ``max_live``
    optionally declares a cap on the live population below ``n`` (checked
    at validation time and again by the conformance harness against
    traces).

    Events are normalized to ``(round, slot)`` order.  Per slot the
    events must alternate presence — a slot can only join while absent
    and only depart while present — and be at strictly increasing
    rounds; anything else is a contradictory script and is rejected at
    construction.
    """

    events: tuple[MembershipEvent, ...] = ()
    initial_absent: tuple[int, ...] = ()
    max_live: int | None = None

    def __post_init__(self):
        object.__setattr__(
            self,
            "events",
            tuple(sorted(self.events, key=lambda e: (e.round, e.slot))),
        )
        object.__setattr__(
            self, "initial_absent", tuple(sorted(int(s) for s in self.initial_absent))
        )
        if len(set(self.initial_absent)) != len(self.initial_absent):
            raise ValueError("duplicate slots in initial_absent")
        if self.initial_absent and self.initial_absent[0] < 0:
            raise ValueError("initial_absent slots must be >= 0")
        if self.max_live is not None and self.max_live < 1:
            raise ValueError(f"max_live must be >= 1, got {self.max_live}")
        absent0 = set(self.initial_absent)
        present: dict[int, bool] = {}
        last_round: dict[int, int] = {}
        for e in self.events:
            if e.round <= last_round.get(e.slot, 0):
                raise ValueError(
                    f"slot {e.slot} has two membership events in round {e.round}"
                )
            last_round[e.slot] = e.round
            was_present = present.get(e.slot, e.slot not in absent0)
            joining = e.kind == "join"
            if joining == was_present:
                state = "present" if was_present else "absent"
                raise ValueError(
                    f"slot {e.slot} cannot {e.kind} at round {e.round}: "
                    f"it is already {state}"
                )
            present[e.slot] = joining

    def is_empty(self) -> bool:
        return not self.events and not self.initial_absent

    def max_slot(self) -> int:
        m = max((e.slot for e in self.events), default=-1)
        return max(m, max(self.initial_absent, default=-1))

    def down_at(self, r: int, n: int) -> np.ndarray:
        """Boolean ``(n,)`` mask of slots absent in round ``r``."""
        down = np.zeros(n, dtype=bool)
        for s in self.initial_absent:
            down[s] = True
        for e in self.events:  # sorted by round: later events overwrite
            if e.round <= r:
                down[e.slot] = e.kind != "join"
        return down

    def transition_rounds(self) -> frozenset[int]:
        """Rounds at which the absent mask can change (event rounds)."""
        return frozenset(e.round for e in self.events)

    def state_resets(self) -> dict[int, tuple[int, ...]]:
        """``{round: slots}`` wiped to fresh state at the start of that round.

        Joins always reset (a joining device knows nothing of the run so
        far); clean departures reset on the way out; crash-like
        departures freeze the slot's state instead.
        """
        out: dict[int, set[int]] = {}
        for e in self.events:
            if e.kind in ("join", "depart_clean"):
                out.setdefault(e.round, set()).add(e.slot)
        return {r: tuple(sorted(slots)) for r, slots in out.items()}

    def never_return(self) -> frozenset[int]:
        """Slots absent from some round onward (or absent throughout)."""
        final: dict[int, bool] = {s: False for s in self.initial_absent}
        for e in self.events:  # sorted by round: the last event decides
            final[e.slot] = e.kind == "join"
        return frozenset(s for s, present in final.items() if not present)

    def quiesce_round(self) -> int:
        """Last scheduled membership transition."""
        return max((e.round for e in self.events), default=0)

    def validate_for(self, n: int) -> None:
        """Check slot ids and the live-population envelope against ``n``."""
        if self.max_slot() >= n:
            raise ValueError(
                f"membership schedule names slot {self.max_slot()} "
                f"but the network has only {n} slots"
            )
        cap = n if self.max_live is None else self.max_live
        if cap > n:
            raise ValueError(f"max_live {cap} exceeds the slot cap n={n}")
        live = n - len(self.initial_absent)
        if live < 1:
            raise ValueError("at least one slot must be live initially")
        if live > cap:
            raise ValueError(
                f"{live} slots live initially, above the declared cap {cap}"
            )
        i, events = 0, self.events
        while i < len(events):
            r = events[i].round
            while i < len(events) and events[i].round == r:
                live += 1 if events[i].kind == "join" else -1
                i += 1
            if live < 1:
                raise ValueError(
                    f"membership schedule empties the network at round {r}"
                )
            if live > cap:
                raise ValueError(
                    f"live population {live} at round {r} exceeds "
                    f"the declared cap {cap}"
                )


@dataclass(frozen=True)
class FaultPlan:
    """A composition of fault models, consumed uniformly by every engine.

    All fields are optional; an empty plan is behaviourally (and, after
    engine normalization, bit-for-bit) identical to no plan at all.  An
    empty part is dropped to ``None`` at construction, so a part that is
    not ``None`` can inject faults.
    """

    crashes: CrashSchedule | None = None
    connection_drop: ConnectionDropModel | None = None
    tag_corruption: TagCorruptionModel | None = None
    state_corruption: tuple[StateCorruptionEvent, ...] = field(default_factory=tuple)
    membership: MembershipSchedule | None = None
    #: Declared network size; when set, node/slot ids are validated
    #: against it at construction time instead of deep inside an engine.
    n: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "state_corruption", tuple(self.state_corruption))
        if self.crashes is not None and not isinstance(self.crashes, CrashSchedule):
            raise TypeError("crashes must be a CrashSchedule or None")
        if self.membership is not None and not isinstance(
            self.membership, MembershipSchedule
        ):
            raise TypeError("membership must be a MembershipSchedule or None")
        for part in ("crashes", "connection_drop", "tag_corruption", "membership"):
            value = getattr(self, part)
            if value is not None and value.is_empty():
                object.__setattr__(self, part, None)
        if self.n is not None:
            if self.n < 1:
                raise ValueError(f"n must be >= 1, got {self.n}")
            self.validate_for(self.n)

    def is_empty(self) -> bool:
        """Whether the plan can inject no fault at all."""
        return (
            self.crashes is None
            and self.connection_drop is None
            and self.tag_corruption is None
            and not self.state_corruption
            and self.membership is None
        )

    @property
    def quiesce_round(self) -> int:
        """First round from which convergence checks are meaningful.

        The last *scheduled* fault round: crash-window edges and
        corruption-event rounds.  Stationary probabilistic models (drops,
        tag flips) contribute nothing — they cannot un-converge absorbed
        state.  ``0`` means the plan never gates convergence.
        """
        q = self.crashes.quiesce_round() if self.crashes is not None else 0
        for e in self.state_corruption:
            q = max(q, e.round)
        if self.membership is not None:
            q = max(q, self.membership.quiesce_round())
        return q

    def validate_for(self, n: int) -> None:
        """Check node indices (and the membership envelope) fit ``n`` vertices."""
        if self.n is not None and self.n != n:
            raise ValueError(
                f"plan was declared for n={self.n} but the network has {n} nodes"
            )
        if self.crashes is not None and self.crashes.max_node() >= n:
            raise ValueError(
                f"crash schedule names node {self.crashes.max_node()} "
                f"but the network has only {n} nodes"
            )
        if self.membership is not None:
            self.membership.validate_for(n)

    # -- JSON round-trip -----------------------------------------------------

    def to_dict(self) -> dict:
        out: dict = {}
        if self.crashes is not None:
            out["crashes"] = [
                {
                    "node": w.node,
                    "start": w.start,
                    "end": w.end,
                    "reset_on_rejoin": w.reset_on_rejoin,
                }
                for w in self.crashes.windows
            ]
        if self.connection_drop is not None:
            out["connection_drop"] = {"p": self.connection_drop.p}
        if self.tag_corruption is not None:
            out["tag_corruption"] = {"q": self.tag_corruption.q}
        if self.state_corruption:
            out["state_corruption"] = [
                {"round": e.round, "fraction": e.fraction}
                for e in self.state_corruption
            ]
        if self.membership is not None:
            m: dict = {
                "events": [
                    {"slot": e.slot, "round": e.round, "kind": e.kind}
                    for e in self.membership.events
                ]
            }
            if self.membership.initial_absent:
                m["initial_absent"] = list(self.membership.initial_absent)
            if self.membership.max_live is not None:
                m["max_live"] = self.membership.max_live
            out["membership"] = m
        if self.n is not None:
            out["n"] = self.n
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPlan":
        known = {
            "crashes",
            "connection_drop",
            "tag_corruption",
            "state_corruption",
            "membership",
            "n",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault plan keys: {sorted(unknown)}")
        crashes = None
        if data.get("crashes"):
            crashes = CrashSchedule(
                tuple(
                    CrashWindow(
                        node=int(w["node"]),
                        start=int(w["start"]),
                        end=None if w.get("end") is None else int(w["end"]),
                        reset_on_rejoin=bool(w.get("reset_on_rejoin", True)),
                    )
                    for w in data["crashes"]
                )
            )
        drop = None
        if data.get("connection_drop"):
            drop = ConnectionDropModel(p=float(data["connection_drop"]["p"]))
        tags = None
        if data.get("tag_corruption"):
            tags = TagCorruptionModel(q=float(data["tag_corruption"]["q"]))
        events = tuple(
            StateCorruptionEvent(round=int(e["round"]), fraction=float(e["fraction"]))
            for e in data.get("state_corruption", [])
        )
        membership = None
        if data.get("membership"):
            m = data["membership"]
            membership = MembershipSchedule(
                events=tuple(
                    MembershipEvent(
                        slot=int(e["slot"]), round=int(e["round"]), kind=str(e["kind"])
                    )
                    for e in m.get("events", [])
                ),
                initial_absent=tuple(int(s) for s in m.get("initial_absent", [])),
                max_live=None if m.get("max_live") is None else int(m["max_live"]),
            )
        return cls(
            crashes=crashes,
            connection_drop=drop,
            tag_corruption=tags,
            state_corruption=events,
            membership=membership,
            n=None if data.get("n") is None else int(data["n"]),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str | Path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text())

    def to_file(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    def describe(self) -> str:
        """Human-readable one-paragraph summary (CLI ``faults describe``)."""
        if self.is_empty():
            return "empty plan (no faults)"
        parts = []
        if self.crashes is not None:
            perm = sum(1 for w in self.crashes.windows if w.end is None)
            parts.append(
                f"{len(self.crashes.windows)} crash window(s)"
                + (f" ({perm} permanent)" if perm else "")
            )
        if self.connection_drop is not None:
            parts.append(f"connection drop p={self.connection_drop.p}")
        if self.tag_corruption is not None:
            parts.append(f"tag bit-flip q={self.tag_corruption.q}")
        if self.state_corruption:
            rounds = ", ".join(
                f"{e.fraction:.0%} at round {e.round}" for e in self.state_corruption
            )
            parts.append(f"state corruption: {rounds}")
        if self.membership is not None:
            joins = sum(1 for e in self.membership.events if e.kind == "join")
            departs = len(self.membership.events) - joins
            clean = sum(
                1 for e in self.membership.events if e.kind == "depart_clean"
            )
            desc = f"open-world membership: {joins} join(s), {departs} departure(s)"
            if clean:
                desc += f" ({clean} clean)"
            if self.membership.initial_absent:
                desc += (
                    f", {len(self.membership.initial_absent)} slot(s) "
                    "initially absent"
                )
            if self.membership.max_live is not None:
                desc += f", live cap {self.membership.max_live}"
            never = len(self.membership.never_return())
            if never:
                desc += f", {never} slot(s) never return"
            parts.append(desc)
        return "; ".join(parts) + f"; quiesce round {self.quiesce_round}"


def random_crash_schedule(
    n: int,
    count: int,
    *,
    first_round: int,
    last_round: int,
    seed: int,
    min_len: int = 2,
    max_len: int | None = None,
    reset_on_rejoin: bool = True,
) -> CrashSchedule:
    """A seeded schedule of ``count`` distinct nodes crashing once each.

    Every window starts in ``[first_round, last_round]`` and ends by
    ``last_round`` (all nodes rejoin — the convergence-friendly regime
    experiment R3 sweeps).  The schedule is plan-level data: the *same*
    windows apply to every trial, while run-time fault randomness stays
    per-trial-seed.
    """
    if not 0 <= count <= n:
        raise ValueError(f"count must be in [0, {n}], got {count}")
    if first_round < 1 or last_round < first_round:
        raise ValueError("need 1 <= first_round <= last_round")
    max_len = max_len or max(min_len, (last_round - first_round) // 2)
    if min_len < 1 or max_len < min_len:
        raise ValueError("need 1 <= min_len <= max_len")
    rng = make_rng(seed, "crash-schedule")
    nodes = rng.choice(n, size=count, replace=False)
    windows = []
    for node in nodes:
        length = int(rng.integers(min_len, max_len + 1))
        start_hi = max(first_round, last_round - length + 1)
        start = int(rng.integers(first_round, start_hi + 1))
        end = min(start + length - 1, last_round)
        windows.append(
            CrashWindow(
                node=int(node), start=start, end=end, reset_on_rejoin=reset_on_rejoin
            )
        )
    return CrashSchedule(tuple(windows))


def random_membership_schedule(
    n: int,
    count: int,
    *,
    first_round: int,
    last_round: int,
    seed: int,
    initial_absent: int = 0,
    clean_fraction: float = 0.5,
    min_live: int = 2,
    max_live: int | None = None,
    protect: tuple[int, ...] = (),
) -> MembershipSchedule:
    """A seeded open-world churn script of up to ``count`` events.

    ``initial_absent`` slots start empty; each scheduled round then
    flips a coin between a join (filling a free slot with fresh state)
    and a departure (clean with probability ``clean_fraction``), always
    keeping the live population in ``[min_live, max_live or n]``.  Like
    :func:`random_crash_schedule` this is plan-level data — the same
    script applies to every trial, while run-time fault randomness stays
    per-trial-seed.  Rounds with no feasible event are skipped, so fewer
    than ``count`` events may come back.

    ``protect`` slots are pinned live: never chosen as initially absent
    and never scheduled to depart (e.g. a rumor source whose removal
    would make every trial unwinnable for reasons unrelated to the
    algorithm under test).
    """
    if not 0 <= initial_absent < n:
        raise ValueError(f"initial_absent must be in [0, {n - 1}], got {initial_absent}")
    if first_round < 1 or last_round < first_round:
        raise ValueError("need 1 <= first_round <= last_round")
    if min_live < 1:
        raise ValueError(f"min_live must be >= 1, got {min_live}")
    cap = n if max_live is None else max_live
    if not min_live <= cap <= n:
        raise ValueError(f"need min_live <= max_live <= n, got cap {cap}")
    if n - initial_absent < min_live or n - initial_absent > cap:
        raise ValueError(
            f"{n - initial_absent} slots live initially falls outside "
            f"[{min_live}, {cap}]"
        )
    pinned = frozenset(int(s) for s in protect)
    if any(s < 0 or s >= n for s in pinned):
        raise ValueError(f"protect slots must be in [0, {n - 1}]")
    if n - len(pinned) < initial_absent:
        raise ValueError(
            f"cannot keep {initial_absent} slots absent with {len(pinned)} protected"
        )
    rng = make_rng(seed, "membership-schedule")
    pool = np.array(sorted(set(range(n)) - pinned), dtype=np.int64)
    absent = set(
        int(s) for s in rng.choice(pool, size=initial_absent, replace=False)
    )
    absent0 = tuple(sorted(absent))
    present = set(range(n)) - absent
    last_event: dict[int, int] = {}
    events: list[MembershipEvent] = []
    rounds = sorted(
        int(r) for r in rng.integers(first_round, last_round + 1, size=count)
    )
    for r in rounds:
        joinable = sorted(s for s in absent if last_event.get(s, 0) < r)
        leavable = sorted(
            s for s in present if last_event.get(s, 0) < r and s not in pinned
        )
        can_join = bool(joinable) and len(present) < cap
        can_leave = bool(leavable) and len(present) > min_live
        if not can_join and not can_leave:
            continue
        join = can_join and (not can_leave or rng.random() < 0.5)
        if join:
            slot = joinable[int(rng.integers(len(joinable)))]
            events.append(MembershipEvent(slot=slot, round=r, kind="join"))
            absent.discard(slot)
            present.add(slot)
        else:
            slot = leavable[int(rng.integers(len(leavable)))]
            kind = "depart_clean" if rng.random() < clean_fraction else "depart"
            events.append(MembershipEvent(slot=slot, round=r, kind=kind))
            present.discard(slot)
            absent.add(slot)
        last_event[slot] = r
    return MembershipSchedule(
        events=tuple(events), initial_absent=absent0, max_live=max_live
    )


def leader_assassin_schedule(
    keys,
    *,
    period: int,
    kills: int,
    first_round: int = 1,
    down_for: int | None = None,
    min_live: int = 2,
    clean: bool = False,
) -> MembershipSchedule:
    """Deterministically remove successive would-be leaders.

    Any algorithm electing the minimum key always has the live slot with
    the smallest key as its (eventual) leader, so departing slots in
    ascending-key order removes the current leader every ``period``
    rounds — an *oblivious* schedule that exactly implements the
    adaptive leader-assassin of the open-world model against min-UID
    election.  ``down_for=None`` makes each assassination permanent;
    otherwise the victim rejoins with fresh state after ``down_for``
    rounds (and, holding the smallest key again, immediately becomes
    the next target of the population's re-agreement).
    """
    keys = np.asarray(keys)
    n = int(keys.shape[0])
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    if first_round < 1:
        raise ValueError(f"first_round must be >= 1, got {first_round}")
    if down_for is not None and down_for < 1:
        raise ValueError(f"down_for must be >= 1, got {down_for}")
    if kills < 0:
        raise ValueError(f"kills must be >= 0, got {kills}")
    if down_for is None and kills > n - min_live:
        raise ValueError(
            f"{kills} permanent kills would leave fewer than {min_live} "
            f"live slots out of {n}"
        )
    order = np.argsort(keys, kind="stable")
    depart_kind = "depart_clean" if clean else "depart"
    events: list[MembershipEvent] = []
    for k in range(min(kills, n)):
        slot = int(order[k])
        r = first_round + k * period
        events.append(MembershipEvent(slot=slot, round=r, kind=depart_kind))
        if down_for is not None:
            events.append(
                MembershipEvent(slot=slot, round=r + down_for, kind="join")
            )
    return MembershipSchedule(events=tuple(events))


def example_plan() -> FaultPlan:
    """The template emitted by ``repro faults template``.

    Every window here ends (set ``"end": null`` for a permanent crash —
    but note a permanently crashed node freezes its state, so the
    standard all-nodes convergence predicate may then never fire).
    """
    return FaultPlan(
        crashes=CrashSchedule(
            (
                CrashWindow(node=3, start=10, end=50, reset_on_rejoin=True),
                CrashWindow(node=7, start=25, end=80, reset_on_rejoin=False),
            )
        ),
        connection_drop=ConnectionDropModel(p=0.2),
        tag_corruption=TagCorruptionModel(q=0.01),
        state_corruption=(StateCorruptionEvent(round=30, fraction=1 / 3),),
        membership=MembershipSchedule(
            events=(
                MembershipEvent(slot=9, round=40, kind="join"),
                MembershipEvent(slot=5, round=60, kind="depart_clean"),
            ),
            initial_absent=(9,),
        ),
    )
