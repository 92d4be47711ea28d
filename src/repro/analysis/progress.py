"""Round- and phase-level progress instrumentation.

The paper's analyses reason about *progress units*: the growth of the
informed set per round (Sections V-VI) and the classification of bit
convergence phases as **good** (Definition VII.3 — the 0-bit set ``S_i``
grows, or the 1-bit set ``U_i`` shrinks, by a ``1 + α/(4·f(τ̂))`` factor,
or the maximum difference bit advances).  This module measures those
quantities on live executions so experiments can verify the probabilistic
lemmas directly:

* :class:`SpreadCurve` — per-round informed-set counts with growth-rate and
  time-to-fraction queries;
* :class:`PhaseClassifier` — replays a bit convergence execution at phase
  granularity and classifies each phase per Definition VII.3, yielding the
  empirical good-phase frequency that Lemma VII.5 lower-bounds by a
  constant ``p_g``;
* :func:`sparkline` — compact ASCII rendering of a curve for examples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.algorithms.bit_convergence import BitConvergenceBatched
from repro.analysis.bounds import f_approx, tau_hat
from repro.core.vectorized import VectorizedEngine

__all__ = ["SpreadCurve", "PhaseRecord", "PhaseClassifier", "sparkline"]

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render a sequence as a compact ASCII sparkline.

    Values are down-sampled to ``width`` buckets (bucket mean) and mapped
    onto eight block heights; constant series render as a flat line.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return ""
    if arr.size > width:
        edges = np.linspace(0, arr.size, width + 1).astype(int)
        arr = np.array(
            [arr[a:b].mean() for a, b in zip(edges[:-1], edges[1:]) if b > a]
        )
    lo, hi = float(arr.min()), float(arr.max())
    if hi - lo < 1e-12:
        return _SPARK_CHARS[0] * arr.size
    idx = ((arr - lo) / (hi - lo) * (len(_SPARK_CHARS) - 1)).round().astype(int)
    return "".join(_SPARK_CHARS[i] for i in idx)


class SpreadCurve:
    """Per-round counts of a monotone progress quantity.

    Typically fed the informed-set size of a rumor spreading run or the
    winner-holder count of a leader election run.
    """

    def __init__(self) -> None:
        self.counts: list[int] = []

    def record(self, count: int) -> None:
        self.counts.append(int(count))

    def __len__(self) -> int:
        return len(self.counts)

    def time_to_fraction(self, n: int, fraction: float) -> int | None:
        """First 1-indexed round where the count reaches ``fraction·n``."""
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        threshold = fraction * n
        for r, c in enumerate(self.counts, start=1):
            if c >= threshold:
                return r
        return None

    def growth_factors(self, window: int = 1) -> np.ndarray:
        """Multiplicative growth per ``window`` rounds (the paper's lens)."""
        if window < 1:
            raise ValueError("window must be >= 1")
        arr = np.asarray(self.counts, dtype=np.float64)
        if arr.size <= window:
            return np.empty(0)
        base = arr[:-window]
        nxt = arr[window:]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(base > 0, nxt / base, np.nan)
        return out

    def spark(self, width: int = 60) -> str:
        """ASCII sparkline of the curve."""
        return sparkline(self.counts, width)


@dataclass(frozen=True)
class PhaseRecord:
    """One bit convergence phase, classified per Definition VII.3.

    Attributes
    ----------
    phase
        1-indexed phase number.
    b_i
        Maximum difference bit at the phase start (``None`` = the paper's
        ``⊥``: all committed tags agree).
    s_size
        ``|S_i|``: nodes with a 0 in position ``b_i`` (``None`` if
        ``b_i = ⊥``).
    advanced
        The maximum difference bit changed (or reached ⊥) by the phase end.
    grew
        The relevant set crossed the Definition VII.3 growth/shrink factor.
    good
        ``advanced or grew`` — Definition VII.3's disjunction.
    """

    phase: int
    b_i: int | None
    s_size: int | None
    advanced: bool
    grew: bool

    @property
    def good(self) -> bool:
        return self.advanced or self.grew


class PhaseClassifier:
    """Runs bit convergence and classifies every phase (Definition VII.3).

    Parameters
    ----------
    engine
        A :class:`~repro.core.vectorized.VectorizedEngine` whose algorithm
        is a :class:`~repro.algorithms.bit_convergence.BitConvergenceBatched`.
    alpha
        The (dynamic) vertex expansion used in the goodness threshold.
    tau
        Stability factor used for ``τ̂ = min(τ, log Δ)`` in ``f(τ̂)``.
    c
        The unspecified constant in ``f``; Definition VII.3's factor is
        ``1 + α/(4·f(τ̂))``.
    """

    def __init__(
        self,
        engine: VectorizedEngine,
        *,
        alpha: float,
        tau: float,
        c: float = 1.0,
    ):
        if not isinstance(engine.algo, BitConvergenceBatched):
            raise TypeError("PhaseClassifier requires a BitConvergenceBatched run")
        self.engine = engine
        self.algo = engine.algo
        self.config = engine.algo.config
        delta = self.config.delta_bound
        th = tau_hat(tau if not math.isinf(tau) else delta, delta)
        n = self.config.n_upper
        self.factor = alpha / (4.0 * f_approx(th, delta, n, c))
        self.records: list[PhaseRecord] = []

    def _snapshot(self):
        # The engine runs one replica: read replica 0.
        b = self.algo.max_difference_bit(self.engine.state)[0]
        s = self.algo.zero_set_size(self.engine.state)[0]
        return b, s

    def run(self, max_phases: int) -> list[PhaseRecord]:
        """Execute up to ``max_phases`` phases, classifying each.

        Stops early when the committed tags converge (``b_i = ⊥``).
        """
        plen = self.config.phase_len
        n = self.engine.n
        r = self.engine.rounds_executed
        for phase in range(1, max_phases + 1):
            b0, s0 = self._snapshot()
            if b0 is None:
                break
            for _ in range(plen):
                r += 1
                self.engine.step(r)
            b1, s1 = self._snapshot()
            advanced = (b1 is None) or (b1 != b0)
            grew = False
            if not advanced and s0 is not None and s1 is not None:
                if s0 <= n / 2:
                    grew = s1 >= (1.0 + self.factor) * s0
                else:
                    u0, u1 = n - s0, n - s1
                    grew = u1 <= (1.0 - self.factor) * u0
            self.records.append(
                PhaseRecord(phase=phase, b_i=b0, s_size=s0, advanced=advanced, grew=grew)
            )
        return self.records

    @property
    def good_fraction(self) -> float:
        """Empirical good-phase frequency (Lemma VII.5's ``p_g`` floor)."""
        if not self.records:
            raise ValueError("no phases recorded; call run() first")
        return sum(rec.good for rec in self.records) / len(self.records)
