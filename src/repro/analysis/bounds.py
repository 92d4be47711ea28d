"""Closed forms of every bound stated in the paper.

These are the comparison curves the benchmark harness plots measured data
against.  All logarithms are base 2 (the paper assumes ``Δ`` is a power of
two so ``log Δ`` is whole); constants ``c`` default to 1 since the paper's
constants are unspecified — the harness fits/normalizes them.

Bound index
-----------
=========  =================================================================
Thm V.2    PPUSH informs ``≥ m / f(r)`` nodes across a cut of matching size
           ``m`` in ``r ≤ log Δ`` stable rounds, ``f(r) = Δ^{1/r}·c·r·log n``
Thm VI.1   blind gossip: ``O((1/α)·Δ²·log² n)`` rounds (any ``τ ≥ 1``, b=0)
Sec VI     blind gossip lower bound: ``Ω(Δ²/√α)`` on the line of stars
Cor VI.6   PUSH-PULL rumor spreading: same bound as Thm VI.1
Thm VII.2  bit convergence: ``O((1/α)·Δ^{1/τ̂}·τ̂·log⁵ n)``,
           ``τ̂ = min(τ, log Δ)`` (b = 1, synchronized starts)
Thm VIII.2 async bit convergence: ``O((1/α)·Δ^{1/τ̂}·τ̂·log⁸ n)`` after the
           last activation (b = ⌈log k⌉ + 1 = log log n + O(1))
=========  =================================================================
"""

from __future__ import annotations

import math

__all__ = [
    "log2c",
    "tau_hat",
    "f_approx",
    "blind_gossip_upper",
    "blind_gossip_lower",
    "push_pull_upper",
    "bit_convergence_upper",
    "async_bit_convergence_upper",
    "tag_bits",
    "async_tag_length",
    "group_length",
    "phase_length",
    "t_max_good_phases",
    "classical_push_pull_upper",
]


def log2c(x: float) -> float:
    """``max(1, log2 x)`` — guards the degenerate tiny-parameter cases."""
    return max(1.0, math.log2(max(x, 2.0)))


def tau_hat(tau: float, delta: int) -> float:
    """``τ̂ = min(τ, log Δ)``: stability beyond ``log Δ`` buys nothing."""
    if tau < 1:
        raise ValueError("tau must be >= 1")
    return max(1.0, min(float(tau), log2c(delta)))


def f_approx(r: float, delta: int, n: int, c: float = 1.0) -> float:
    """Theorem V.2 approximation factor ``f(r) = Δ^{1/r} · c · r · log n``."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return (delta ** (1.0 / r)) * c * r * log2c(n)


def blind_gossip_upper(n: int, alpha: float, delta: int, c: float = 1.0) -> float:
    """Theorem VI.1 upper bound ``c · (1/α) · Δ² · log² n``."""
    if not 0 < alpha <= 1 + 1e-12:
        raise ValueError("alpha must be in (0, 1]")
    return c * (1.0 / alpha) * (delta ** 2) * (log2c(n) ** 2)


def blind_gossip_lower(alpha: float, delta: int, c: float = 1.0) -> float:
    """Section VI lower bound ``c · Δ² / √α`` (line-of-stars construction)."""
    if not 0 < alpha <= 1 + 1e-12:
        raise ValueError("alpha must be in (0, 1]")
    return c * (delta ** 2) / math.sqrt(alpha)


def push_pull_upper(n: int, alpha: float, delta: int, c: float = 1.0) -> float:
    """Corollary VI.6: PUSH-PULL rumor spreading, identical to Thm VI.1."""
    return blind_gossip_upper(n, alpha, delta, c)


def bit_convergence_upper(
    n: int, alpha: float, delta: int, tau: float, c: float = 1.0
) -> float:
    """Theorem VII.2 upper bound ``c · (1/α) · Δ^{1/τ̂} · τ̂ · log⁵ n``."""
    if not 0 < alpha <= 1 + 1e-12:
        raise ValueError("alpha must be in (0, 1]")
    th = tau_hat(tau, delta)
    return c * (1.0 / alpha) * (delta ** (1.0 / th)) * th * (log2c(n) ** 5)


def async_bit_convergence_upper(
    n: int, alpha: float, delta: int, tau: float, c: float = 1.0
) -> float:
    """Theorem VIII.2 upper bound ``c · (1/α) · Δ^{1/τ̂} · τ̂ · log⁸ n``."""
    if not 0 < alpha <= 1 + 1e-12:
        raise ValueError("alpha must be in (0, 1]")
    th = tau_hat(tau, delta)
    return c * (1.0 / alpha) * (delta ** (1.0 / th)) * th * (log2c(n) ** 8)


def classical_push_pull_upper(n: int, alpha: float, c: float = 1.0) -> float:
    """Classical-model / b=1 stable-graph reference: ``c·(1/α)·polylog n``.

    Used only as a comparison curve for E10 (the paper cites this as the
    rate the mobile model with b=0 provably cannot match).
    """
    if not 0 < alpha <= 1 + 1e-12:
        raise ValueError("alpha must be in (0, 1]")
    return c * (1.0 / alpha) * (log2c(n) ** 2)


# ---------------------------------------------------------------------------
# Algorithm structure accounting (Sections VII-VIII)
# ---------------------------------------------------------------------------


def tag_bits(n_upper: int, beta: float = 2.0) -> int:
    """``k = ⌈β·log N⌉``: ID-tag width.

    ``β`` controls the tag-collision probability (``n^{-(β-1)}`` per pair
    union-bounded); β = 2 keeps collisions w.h.p. absent at the paper's
    level while staying cheap to simulate.
    """
    if n_upper < 2:
        raise ValueError("N must be >= 2")
    if beta < 1:
        raise ValueError("beta must be >= 1")
    return max(1, math.ceil(beta * math.log2(n_upper)))


def async_tag_length(k: int) -> int:
    """Section VIII advertising width ``b = ⌈log k⌉ + 1`` bits."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return max(1, math.ceil(math.log2(k))) + 1


def group_length(delta: int) -> int:
    """Group length ``2·log Δ`` rounds (minimum 2).

    A group always contains a stretch of ``τ̂ = min(τ, log Δ)`` consecutive
    stable rounds, which is what Theorem V.2 consumes.
    """
    return max(2, 2 * int(round(log2c(delta))))


def phase_length(delta: int, k: int) -> int:
    """Phase length in rounds: ``k`` groups of ``2·log Δ`` rounds each."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return k * group_length(delta)


def t_max_good_phases(alpha: float, delta: int, tau: float, n: int, c: float = 1.0) -> float:
    """Lemma VII.4 good-phase budget ``t_max = ⌈(1/α)·8·f(τ̂)·log n⌉``."""
    th = tau_hat(tau, delta)
    return math.ceil((1.0 / alpha) * 8.0 * f_approx(th, delta, n, c) * log2c(n))
