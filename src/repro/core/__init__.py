"""The mobile telephone model: payloads, protocols, and round engines.

Two engines implement the model of paper Section III:

* :class:`~repro.core.engine.ReferenceEngine` — literal per-node
  execution of :class:`~repro.core.protocol.NodeProtocol` objects, with
  every model rule checked (semantic ground truth);
* :class:`~repro.core.vectorized.VectorizedEngine` — NumPy array kernels
  for parameter sweeps, cross-validated against the reference.

:mod:`repro.core.classical` provides the classical telephone model
(unbounded accepts) as the baseline the paper compares against.
"""

from repro.core.payload import (
    UID,
    UIDSpace,
    IDPair,
    Message,
    PayloadBudget,
    BudgetExceeded,
)
from repro.core.protocol import (
    RoundView,
    NodeProtocol,
    LeaderElectionProtocol,
    RumorProtocol,
)
from repro.core.engine import ReferenceEngine, ModelViolation
from repro.core.vectorized import VectorizedEngine
from repro.core.batched import BatchedVectorizedEngine, BatchedAlgorithm
from repro.core.largen import LargeNEngine
from repro.core.trace import Trace, RoundRecord, RunResult, BatchedRunResult
from repro.core.monitor import all_leaders_are, all_leaders_equal, rumor_complete
from repro.core.classical import classical_push_pull_rumor, classical_push_pull_leader

__all__ = [
    "UID",
    "UIDSpace",
    "IDPair",
    "Message",
    "PayloadBudget",
    "BudgetExceeded",
    "RoundView",
    "NodeProtocol",
    "LeaderElectionProtocol",
    "RumorProtocol",
    "ReferenceEngine",
    "ModelViolation",
    "VectorizedEngine",
    "BatchedVectorizedEngine",
    "BatchedAlgorithm",
    "LargeNEngine",
    "Trace",
    "RoundRecord",
    "RunResult",
    "BatchedRunResult",
    "all_leaders_are",
    "all_leaders_equal",
    "rumor_complete",
    "classical_push_pull_rumor",
    "classical_push_pull_leader",
]
