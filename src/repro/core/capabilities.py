"""Which model features each engine tier runs (:data:`TIERS`), and the one
check every tier's constructor calls (:func:`check_supported`)."""

from __future__ import annotations

import numpy as np

from repro.graphs.adversary import AdaptiveDynamicGraph

__all__ = ["FEATURES", "TIERS", "UnsupportedFeature", "check_supported", "unsupported"]

#: What a configuration can ask of a tier: the FaultPlan parts (named as its
#: fields), ``b > 0`` tags, staggered activation, adaptive graphs, and an
#: algorithm that is not ``sparse_compatible``.
FEATURES = ("crashes", "connection_drop", "tag_corruption", "state_corruption", "membership",
            "tags", "staggered", "adaptive", "non_sparse")
_ALL = frozenset(FEATURES)

#: The features each tier runs (``docs/model.md`` renders this table).
TIERS = {
    "reference": _ALL,
    "vectorized": _ALL,
    "batched": _ALL,
    # The sparse frontier's preconditions: the array engines gate on this row.
    "large-n": frozenset(),
    "async": _ALL - {"membership", "adaptive"},
    # Corruption and membership rewrite simulator state that a real
    # transport has no hook for; a live config has no schedule or adversary.
    "live": _ALL - {"tag_corruption", "state_corruption", "membership", "staggered", "adaptive"},
}

#: Plan parts a tier runs only with an algorithm fault hook: the hook's
#: (array-kernel, per-node) names, and whether the part calls it at all.
_HOOKS = (
    ("crashes", ("reset_nodes", "reset"), lambda c: c.rejoin_resets()),
    ("membership", ("reset_nodes", "reset"), lambda m: m.state_resets()),
    ("state_corruption", ("corrupt_state", "corrupt"), bool),
)


class UnsupportedFeature(ValueError):
    """A tier was asked to run a feature its :data:`TIERS` row lacks."""


def _hook_missing(units, hooks: tuple[str, str]) -> str | None:
    """Name the first class in ``units`` that keeps the raising default hook."""
    from repro.asyncsim.node import AsyncNode
    from repro.core.batched import BatchedAlgorithm
    from repro.core.protocol import NodeProtocol

    defaults = {getattr(b, h, None) for b in (BatchedAlgorithm, NodeProtocol, AsyncNode) for h in hooks}
    # An event-tier adapter delegates its hooks to the protocol it wraps.
    for cls in {type(getattr(u, "proto", u)) for u in units}:
        hook = next(h for h in hooks if hasattr(cls, h))
        if getattr(cls, hook) in defaults:
            return f"{cls.__name__} has no {hook} hook"
    return None


def unsupported(tier, algorithm, *, graph, fault_plan, activation_rounds) -> list[str]:
    """Every feature this configuration asks of ``tier`` that it does not run;
    ``algorithm`` is a BatchedAlgorithm or the tier's per-node protocols."""
    runs = TIERS[tier]
    units = algorithm if isinstance(algorithm, (list, tuple)) else [algorithm]
    asked = {f for f in FEATURES if getattr(fault_plan, f, None)}
    asked |= {f for f, on in {
        "tags": max(u.tag_length for u in units) > 0,
        "staggered": activation_rounds is not None and (np.asarray(activation_rounds) != 1).any(),
        "adaptive": isinstance(graph, AdaptiveDynamicGraph),
        "non_sparse": not getattr(algorithm, "sparse_compatible", False),
    }.items() if on}
    why = {"non_sparse": f"{type(algorithm).__name__} is not sparse_compatible"}
    missing = asked - runs
    for part, hooks, calls in _HOOKS:
        if part in asked & runs and calls(getattr(fault_plan, part)):
            why[part] = _hook_missing(units, hooks)
            missing |= {part} if why[part] else set()
    return [f"{f} ({why[f]})" if f in why else f for f in FEATURES if f in missing]


def check_supported(tier, algorithm, *, graph, fault_plan, activation_rounds):
    """Raise :class:`UnsupportedFeature` unless ``tier`` runs this configuration;
    return the plan to apply, or ``None`` for no plan or an empty one (then no
    fault stream is created and the faultless path stays unchanged)."""
    missing = unsupported(
        tier, algorithm, graph=graph, fault_plan=fault_plan, activation_rounds=activation_rounds
    )
    if missing:
        raise UnsupportedFeature(f"the {tier} tier does not run: {', '.join(missing)}")
    return None if fault_plan is None or fault_plan.is_empty() else fault_plan
