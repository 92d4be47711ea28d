"""Averaging gossip (distributed data aggregation): a future-work extension.

The paper's conclusion lists *data aggregation* among the problems the
mobile telephone model opens.  Pairwise averaging gossip fits the model
natively: the classic protocol averages the values of exactly one pair at
a time — which is precisely what a single-connection round gives us.

* every node holds a real value (a sensor reading, a count);
* connection decisions are blind-gossip style (fair coin; uniform
  neighbor);
* a connected pair replaces both values with their mean — the global sum
  is conserved, so every value converges to the network average;
* we declare convergence when the maximum absolute deviation from the
  true mean drops below a tolerance ``eps``.

Convergence speed is governed by the topology's spectral gap (each
averaging step contracts the value variance along the connected edge), so
experiment E17 measures convergence time against the expansion of the
graph family — reusing the paper's α machinery on a new problem, exactly
as the conclusion proposes.
"""

from __future__ import annotations

import numpy as np

from repro.core.batched import BatchedAlgorithm

__all__ = ["AveragingBatched"]


class AveragingBatched(BatchedAlgorithm):
    """Array-kernel averaging gossip for every array engine.

    Parameters
    ----------
    values
        Initial per-node values, shared by every replica.
    eps
        Convergence tolerance: done when ``max|value - mean| < eps``.
    """

    tag_length = 0

    def __init__(self, values: np.ndarray, eps: float = 1e-3):
        self._values = np.asarray(values, dtype=np.float64)
        if self._values.ndim != 1 or self._values.size == 0:
            raise ValueError("values must be a non-empty 1-D array")
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.eps = float(eps)

    class State:
        __slots__ = ("values", "mean")

        def __init__(self, values: np.ndarray):
            self.values = values
            self.mean = values.mean(axis=1)

    def init_state(self, n: int, seeds: np.ndarray) -> "AveragingBatched.State":
        if self._values.shape != (n,):
            raise ValueError("values must have one entry per vertex")
        return self.State(np.tile(self._values, (len(seeds), 1)))

    # tags: inherited None (b = 0, no advertising).

    def senders(self, state, tags, local_rounds, active, rng) -> np.ndarray:
        return rng.random(state.values.shape) < 0.5

    def exchange(self, state, proposers, acceptors) -> None:
        values = state.values.reshape(-1)
        mean = (values[proposers] + values[acceptors]) / 2.0
        values[proposers] = mean
        values[acceptors] = mean

    def converged(self, state) -> np.ndarray:
        return self.max_deviation(state) < self.eps

    def max_deviation(self, state) -> np.ndarray:
        """Current worst-case error against the true mean, per replica."""
        return np.abs(state.values - state.mean[:, None]).max(axis=1)
