"""The per-node protocol interface for the reference engine.

A round of the mobile telephone model (paper Section III) proceeds:

1. every active node picks a ``b``-bit **tag** (:meth:`NodeProtocol.choose_tag`);
2. every node **scans**: it learns its neighbor ids and their tags
   (:class:`RoundView`);
3. every node either **sends** one connection proposal to a chosen
   neighbor or elects to **receive** (:meth:`NodeProtocol.decide`);
4. a receiving node with at least one incoming proposal accepts one
   uniformly at random; a node that proposed cannot accept;
5. each connected pair exchanges one :class:`~repro.core.payload.Message`
   each way (:meth:`NodeProtocol.compose` / :meth:`NodeProtocol.deliver`);
6. every node finishes the round (:meth:`NodeProtocol.end_round`).

The engine — not the protocol — enforces the model rules: tag width, one
connection per node, proposals only to current neighbors, payload budgets.
Protocols are written like the paper's pseudocode and stay oblivious to
``τ`` (algorithms require no advance knowledge of the stability factor).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.core.payload import Message, UID

__all__ = ["RoundView", "NodeProtocol", "LeaderElectionProtocol", "RumorProtocol"]


@dataclass(frozen=True)
class RoundView:
    """What a node sees after the scan, before deciding.

    Attributes
    ----------
    local_round
        The node's local round counter (1-indexed from its activation; for
        synchronized starts this equals the global round).
    neighbors
        Ids of currently active neighbors.
    neighbor_tags
        Their advertised tags, aligned with ``neighbors`` (all zeros when
        ``b = 0`` — no information is conveyable).
    rng
        The node's private generator for this round's choices.
    """

    local_round: int
    neighbors: np.ndarray
    neighbor_tags: np.ndarray
    rng: np.random.Generator


class NodeProtocol(ABC):
    """Base class for per-node algorithm implementations.

    Subclasses must set :attr:`tag_length` (the ``b`` they require) and
    implement the round hooks.  A protocol instance belongs to one vertex
    and holds that node's entire local state.
    """

    #: Advertising tag length ``b`` this protocol requires.
    tag_length: int = 0

    def __init__(self, node_id: int, uid: UID):
        self.node_id = node_id
        self.uid = uid

    # -- round hooks -------------------------------------------------------

    def choose_tag(self, local_round: int, rng: np.random.Generator) -> int:
        """Tag to advertise this round (must fit in ``tag_length`` bits)."""
        return 0

    @abstractmethod
    def decide(self, view: RoundView) -> int | None:
        """Return a neighbor id to propose to, or ``None`` to receive."""

    @abstractmethod
    def compose(self, peer: int) -> Message:
        """Message for the peer after a connection is established."""

    @abstractmethod
    def deliver(self, peer: int, message: Message) -> None:
        """Handle the peer's message over an established connection."""

    def end_round(self) -> None:
        """Finish the round (state transitions not tied to a connection)."""

    # -- fault hooks (repro.faults) ----------------------------------------

    def reset(self) -> None:
        """Restore the node's initial state (crash/rejoin with reset).

        Called by the engine when a :class:`~repro.faults.plan.CrashWindow`
        with ``reset_on_rejoin`` ends — the node rebooted and lost its
        volatile state.  The default raises: a protocol must opt in
        explicitly so unsupported fault plans fail loudly.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement crash/rejoin reset"
        )

    def corrupt(self, rng: np.random.Generator, n: int) -> None:
        """Overwrite this node's state with arbitrary values.

        Called by the engine for
        :class:`~repro.faults.plan.StateCorruptionEvent` victims; ``n``
        is the network size, giving replacement draws the simulator's
        key scale (UID keys live in ``[0, 10n)``).  Implementations must
        match the distribution of their array kernel's
        ``corrupt_state`` so the engine tiers stay cross-validatable.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement state corruption"
        )


class LeaderElectionProtocol(NodeProtocol):
    """A protocol that maintains the problem's ``leader`` variable."""

    @property
    @abstractmethod
    def leader(self) -> UID:
        """Current value of this node's ``leader`` variable."""


class RumorProtocol(NodeProtocol):
    """A protocol for rumor spreading (Section V)."""

    @property
    @abstractmethod
    def informed(self) -> bool:
        """Whether this node currently knows the rumor."""
