"""Live-transport deployment tier: the simulators' protocols over real
sockets.

Each node of a run is a real asyncio task on localhost with its own
listener and one TCP channel per graph edge, speaking the length-prefixed
frame protocol of :mod:`repro.live.wire` (HELLO / PROPOSE / ACCEPT /
PAYLOAD / BYE).  A barrier coordinator (:mod:`repro.live.coordinator`)
enforces the mobile telephone model's round structure — one connection
per node per round, ``b``-bit tags — over the real transport, and
assembles the shared :class:`~repro.core.trace.Trace` so the conformance
harness can check live runs exactly like simulated ones.  Crash and
connection-drop faults from a :class:`~repro.faults.plan.FaultPlan` are
injected as *network* events: closed sockets and eaten frames.

Entry point: :func:`repro.live.run.run_live` (CLI: ``repro live run``).
"""

from repro.live.run import (
    LIVE_ALGORITHMS,
    LIVE_FAMILIES,
    LiveRunConfig,
    LiveRunReport,
    build_bundle,
    build_graph,
    reference_result,
    run_live,
    trial_config,
)

__all__ = [
    "LIVE_ALGORITHMS",
    "LIVE_FAMILIES",
    "LiveRunConfig",
    "LiveRunReport",
    "build_bundle",
    "build_graph",
    "reference_result",
    "run_live",
    "trial_config",
]
