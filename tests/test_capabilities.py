"""Tests for the tier capability table (``repro.core.capabilities``).

Every tier's constructor checks its configuration against ``TIERS`` and
raises one ``UnsupportedFeature`` before round 1; ``docs/model.md``'s
capability matrix is rendered from the same table.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.bit_convergence import (
    BitConvergenceBatched,
    BitConvergenceConfig,
    BitConvergenceNode,
    draw_id_tags,
)
from repro.algorithms.blind_gossip import BlindGossipBatched, make_blind_gossip_nodes
from repro.algorithms.ppush import make_ppush_nodes
from repro.algorithms.push_pull import PushPullBatched
from repro.asyncsim.algorithms import async_bit_convergence_setup
from repro.asyncsim.engine import EventSimEngine
from repro.asyncsim.node import ProtocolAdapter
from repro.core.batched import BatchedVectorizedEngine
from repro.core.capabilities import (
    FEATURES,
    TIERS,
    UnsupportedFeature,
    check_supported,
    unsupported,
)
from repro.core.engine import ReferenceEngine
from repro.core.payload import UIDSpace
from repro.core.vectorized import VectorizedEngine
from repro.faults.plan import (
    ConnectionDropModel,
    CrashSchedule,
    CrashWindow,
    FaultPlan,
    MembershipEvent,
    MembershipSchedule,
    StateCorruptionEvent,
    TagCorruptionModel,
)
from repro.graphs import families
from repro.graphs.adversary import PackingAdversary
from repro.graphs.dynamic import StaticDynamicGraph
from repro.live.faults import LiveFaultModel
from repro.live.run import LiveRunConfig, run_live

N = 8
SEEDS = [1, 2]
GRAPH = families.clique(N)
UIDS = UIDSpace(N, seed=0)
KEYS = np.array([UIDS.uid_of(v)._key for v in range(N)], dtype=np.int64)

_JOIN = MembershipSchedule(
    events=(
        MembershipEvent(slot=1, round=3, kind="depart"),
        MembershipEvent(slot=1, round=6, kind="join"),
    )
)
#: One plan per plan part, each asking exactly that part.
PLANS = {
    "crashes": FaultPlan(crashes=CrashSchedule((CrashWindow(node=1, start=3, end=5),))),
    "connection_drop": FaultPlan(connection_drop=ConnectionDropModel(p=0.1)),
    "tag_corruption": FaultPlan(tag_corruption=TagCorruptionModel(q=0.1)),
    "state_corruption": FaultPlan(
        state_corruption=(StateCorruptionEvent(round=30, fraction=0.25),)
    ),
    "membership": FaultPlan(membership=_JOIN),
}


class _TaggedBlindGossip(BlindGossipBatched):
    tag_length = 1


def _config(feature: str | None, per_replica_graphs: bool = False) -> dict:
    """Blind gossip on a static clique, plus the one ``feature`` asked."""
    graph = StaticDynamicGraph(GRAPH)
    if feature == "adaptive":
        graph = PackingAdversary(GRAPH)
        if per_replica_graphs:  # one adversary per replica, as the batched tier needs
            graph = [PackingAdversary(GRAPH) for _ in SEEDS]
    return dict(
        graph=graph,
        fault_plan=PLANS.get(feature),
        activation_rounds=[1, 2] * (N // 2) if feature == "staggered" else None,
    )


def _array_algorithm(feature):
    if feature == "tags":
        return _TaggedBlindGossip(KEYS)
    if feature == "non_sparse":
        return PushPullBatched(np.array([0]))
    return BlindGossipBatched(KEYS)


def _protocols(feature):
    return make_ppush_nodes(UIDS, {0}) if feature == "tags" else make_blind_gossip_nodes(UIDS)


def _build(tier: str, feature: str | None, sparse: str | None = None):
    """Construct ``tier``'s engine on the configuration asking ``feature``
    (``sparse`` is the array engines' sparse-round mode)."""
    if tier == "vectorized":
        cfg = _config(feature)
        return VectorizedEngine(
            cfg["graph"], _array_algorithm(feature), seed=0, fault_plan=cfg["fault_plan"],
            activation_rounds=cfg["activation_rounds"], sparse=sparse,
        )
    if tier == "batched":
        cfg = _config(feature, per_replica_graphs=True)
        return BatchedVectorizedEngine(
            cfg["graph"], _array_algorithm(feature), seeds=SEEDS,
            fault_plan=cfg["fault_plan"], activation_rounds=cfg["activation_rounds"],
            sparse=sparse,
        )
    cfg, protocols = _config(feature), _protocols(feature)
    if tier == "reference":
        return ReferenceEngine(cfg["graph"], protocols, seed=0, fault_plan=cfg["fault_plan"],
                               activation_rounds=cfg["activation_rounds"])
    if tier == "async":
        return EventSimEngine(
            cfg["graph"], [ProtocolAdapter(p) for p in protocols], seed=0,
            fault_plan=cfg["fault_plan"], activation_rounds=cfg["activation_rounds"],
        )
    assert tier == "live"
    if cfg["activation_rounds"] is not None:
        # A live config has no activation schedule to hand the constructor.
        return check_supported("live", protocols, **cfg)
    return LiveFaultModel(cfg["fault_plan"], protocols, cfg["graph"], seed=0)


#: The engine tiers: every row of TIERS but the sparse round's precondition.
ENGINE_TIERS = sorted(set(TIERS) - {"sparse"})


class TestTable:
    def test_every_tier_declares_known_features(self):
        assert set(TIERS) == {"reference", "vectorized", "batched", "sparse", "async", "live"}
        for runs in TIERS.values():
            assert runs <= set(FEATURES)

    @pytest.mark.parametrize("tier", ENGINE_TIERS)
    def test_base_configuration_runs_everywhere(self, tier):
        _build(tier, None)

    @pytest.mark.parametrize("feature", FEATURES)
    @pytest.mark.parametrize("tier", ENGINE_TIERS)
    def test_constructor_follows_table(self, tier, feature):
        if feature in TIERS[tier]:
            _build(tier, feature)
        else:
            with pytest.raises(UnsupportedFeature, match=rf"the {tier} tier does not run: {feature}\b"):
                _build(tier, feature)

    @pytest.mark.parametrize("feature", (None,) + FEATURES)
    def test_sparse_rounds_follow_the_sparse_row(self, feature):
        """Both array engines run sparse rounds exactly on the configurations
        the ``"sparse"`` row admits, even when sparse rounds are forced."""
        admitted = feature is None or feature in TIERS["sparse"]
        for tier in ("vectorized", "batched"):
            engine = _build(tier, feature, sparse="force")
            assert (engine._sparse_limit is not None) == admitted, tier

    def test_error_names_every_missing_feature(self):
        plan = FaultPlan(
            crashes=PLANS["crashes"].crashes, connection_drop=ConnectionDropModel(p=0.1)
        )
        with pytest.raises(UnsupportedFeature) as err:
            check_supported(
                "sparse", PushPullBatched(np.array([0])), graph=PackingAdversary(GRAPH),
                fault_plan=plan, activation_rounds=[2] * N,
            )
        assert str(err.value) == (
            "the sparse tier does not run: crashes, connection_drop, staggered, "
            "adaptive, non_sparse (PushPullBatched is not sparse_compatible)"
        )

    def test_empty_plan_is_returned_as_none(self):
        kw = dict(graph=StaticDynamicGraph(GRAPH), activation_rounds=None)
        algo = BlindGossipBatched(KEYS)
        assert check_supported("batched", algo, fault_plan=FaultPlan(), **kw) is None
        plan = PLANS["crashes"]
        assert check_supported("batched", algo, fault_plan=plan, **kw) is plan
        assert unsupported("sparse", algo, fault_plan=FaultPlan(), **kw) == []


# ---------------------------------------------------------------------------
# A missing fault hook fails in the constructor, not at the fault round
# ---------------------------------------------------------------------------

BC_CONFIG = BitConvergenceConfig(n_upper=N, delta_bound=GRAPH.max_degree, beta=1.0)
#: Bit convergence implements neither fault hook.
HOOK_PLANS = {
    "state_corruption": PLANS["state_corruption"],
    "crashes": FaultPlan(
        crashes=CrashSchedule((CrashWindow(node=1, start=3, end=5, reset_on_rejoin=True),))
    ),
    "membership": PLANS["membership"],
}


def _bit_convergence(tier: str, plan: FaultPlan):
    dg = StaticDynamicGraph(GRAPH)
    if tier == "vectorized":
        algo = BitConvergenceBatched(KEYS, BC_CONFIG, unique_tags=True)
        return VectorizedEngine(dg, algo, seed=0, fault_plan=plan)
    if tier == "batched":
        algo = BitConvergenceBatched(KEYS, BC_CONFIG, unique_tags=True)
        return BatchedVectorizedEngine(dg, algo, seeds=SEEDS, fault_plan=plan)
    if tier == "reference":
        tags = draw_id_tags(N, BC_CONFIG, 0, unique=True)
        nodes = [BitConvergenceNode(v, UIDS.uid_of(v), int(tags[v]), BC_CONFIG) for v in range(N)]
        return ReferenceEngine(dg, nodes, seed=0, fault_plan=plan)
    if tier == "async":
        setup = async_bit_convergence_setup(UIDS, BC_CONFIG, 0, unique_tags=True)
        return EventSimEngine(dg, setup.nodes, seed=0, fault_plan=plan)
    assert tier == "live"
    return run_live(LiveRunConfig(algorithm="bit_convergence", n=N, fault_plan=plan))


class TestMissingHookFailsAtConstruction:
    @pytest.mark.parametrize("part", sorted(HOOK_PLANS))
    @pytest.mark.parametrize("tier", ["reference", "vectorized", "batched", "async", "live"])
    def test_bit_convergence_rejected_before_round_one(self, tier, part):
        with pytest.raises(UnsupportedFeature, match=rf"the {tier} tier does not run: {part}\b"):
            _bit_convergence(tier, HOOK_PLANS[part])

    def test_crash_without_reset_needs_no_hook(self):
        plan = FaultPlan(
            crashes=CrashSchedule((CrashWindow(node=1, start=3, end=5, reset_on_rejoin=False),))
        )
        _bit_convergence("vectorized", plan)
        _bit_convergence("reference", plan)

    def test_message_names_the_class_and_hook(self):
        with pytest.raises(UnsupportedFeature, match="BitConvergenceBatched has no corrupt_state hook"):
            _bit_convergence("vectorized", HOOK_PLANS["state_corruption"])
        with pytest.raises(UnsupportedFeature, match="AsyncBitConvergenceNode has no reset hook"):
            _bit_convergence("async", HOOK_PLANS["crashes"])


# ---------------------------------------------------------------------------
# docs/model.md's matrix is rendered from TIERS
# ---------------------------------------------------------------------------

MODEL_DOC = Path(__file__).resolve().parents[1] / "docs" / "model.md"
_BEGIN, _END = "<!-- tier-capabilities:begin -->", "<!-- tier-capabilities:end -->"


def render_matrix() -> str:
    """The markdown capability matrix of :data:`TIERS`."""
    lines = [
        "| tier | " + " | ".join(f"`{f}`" for f in FEATURES) + " |",
        "|---" * (len(FEATURES) + 1) + "|",
    ]
    for tier, runs in TIERS.items():
        cells = ["yes" if f in runs else "**no**" for f in FEATURES]
        lines.append(f"| {tier} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def test_model_doc_matrix_matches_table():
    text = MODEL_DOC.read_text()
    block = re.search(re.escape(_BEGIN) + r"\n(.*?)\n" + re.escape(_END), text, re.S)
    assert block is not None, f"docs/model.md lacks the {_BEGIN} block"
    assert block.group(1) == render_matrix(), (
        "docs/model.md's tier matrix is stale; replace the block with:\n" + render_matrix()
    )
