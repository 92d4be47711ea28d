"""Tests for the live-transport deployment tier (``repro.live``)."""

from __future__ import annotations

import math

import pytest

from repro.conformance.invariants import check_trace
from repro.conformance.livecheck import live_reference_check
from repro.core.payload import IDPair, Message, UID
from repro.core.trace import traces_equal
from repro.faults.plan import (
    ConnectionDropModel,
    CrashSchedule,
    CrashWindow,
    FaultPlan,
    TagCorruptionModel,
)
from repro.core.capabilities import UnsupportedFeature, check_supported
from repro.live import (
    LIVE_ALGORITHMS,
    LiveRunConfig,
    LiveRunReport,
    run_live,
)
from repro.live import wire
from repro.live.faults import connection_dropped
from repro.live.run import _dynamic_graph, build_bundle, build_graph


def check_live_trace(cfg: LiveRunConfig, report: LiveRunReport) -> list:
    graph = build_graph(cfg)
    bundle = build_bundle(cfg, graph)
    return check_trace(
        report.trace,
        _dynamic_graph(cfg, graph),
        tag_length=bundle.tag_length,
        fault_plan=cfg.fault_plan,
    )


class TestWireCodec:
    def test_scalar_roundtrip(self):
        for obj in (None, True, False, 0, -7, 2**40, 1.5, "héllo", b"\x00\xff"):
            assert wire.decode(wire.encode(obj)) == obj

    def test_container_roundtrip(self):
        obj = {"r": 3, "tags": [0, 1, None], "nested": {"k": (1, 2)}}
        out = wire.decode(wire.encode(obj))
        assert out == obj
        assert isinstance(out["nested"]["k"], tuple)  # tuples survive

    def test_model_types_roundtrip(self):
        uid = UID(42)
        msg = Message(uids=(uid,), extra_bits=3, data={"pair": IDPair(uid, 1)})
        out = wire.decode(wire.encode(msg))
        assert isinstance(out, Message)
        assert out.uids == msg.uids
        assert out.extra_bits == msg.extra_bits
        assert out.data["pair"] == IDPair(uid, 1)

    def test_trailing_bytes_rejected(self):
        with pytest.raises(wire.WireError):
            wire.decode(wire.encode(1) + b"\x00")

    def test_frame_header(self):
        buf = wire.frame_bytes(wire.HELLO, {"r": 1, "tag": 0})
        length, kind = wire._HEADER.unpack(buf[: wire._HEADER.size])
        assert kind == wire.HELLO
        assert length == len(buf) - wire._HEADER.size


class TestLiveRuns:
    def test_deterministic_trace(self):
        cfg = LiveRunConfig(algorithm="blind_gossip", family="clique", n=8, seed=5)
        a, b = run_live(cfg), run_live(cfg)
        assert a.result.stabilized and b.result.stabilized
        assert a.result.rounds == b.result.rounds
        assert traces_equal(a.trace, b.trace)

    @pytest.mark.parametrize("algorithm", LIVE_ALGORITHMS)
    def test_every_algorithm_stabilizes_with_clean_trace(self, algorithm):
        cfg = LiveRunConfig(
            algorithm=algorithm, family="clique", n=8, seed=2, max_rounds=2000
        )
        report = run_live(cfg)
        assert report.result.stabilized
        assert check_live_trace(cfg, report) == []

    def test_ring_and_fixed_rounds(self):
        cfg = LiveRunConfig(
            algorithm="push_pull", family="ring", n=10, seed=1, fixed_rounds=5
        )
        report = run_live(cfg)
        assert report.result.rounds == 5
        assert not report.result.stabilized  # fixed-round mode never claims it
        assert report.connections_made > 0
        assert report.frames_sent > 0
        assert check_live_trace(cfg, report) == []

    def test_tau_churn(self):
        cfg = LiveRunConfig(
            algorithm="blind_gossip", family="ring", n=8, seed=4, tau=3,
            max_rounds=2000,
        )
        report = run_live(cfg)
        assert report.result.stabilized
        assert check_live_trace(cfg, report) == []

    def test_rejects_tiny_network(self):
        with pytest.raises(ValueError, match="at least 2"):
            run_live(LiveRunConfig(n=1))


class TestLiveFaults:
    def test_crash_rejoin_and_drop(self):
        plan = FaultPlan(
            crashes=CrashSchedule((
                CrashWindow(node=2, start=2, end=4),
                CrashWindow(node=5, start=3, end=3, reset_on_rejoin=False),
            )),
            connection_drop=ConnectionDropModel(p=0.2),
        )
        cfg = LiveRunConfig(
            algorithm="blind_gossip", family="clique", n=8, seed=9,
            fault_plan=plan, max_rounds=2000,
        )
        report = run_live(cfg)
        assert report.result.stabilized
        assert check_live_trace(cfg, report) == []
        # Crashed nodes really vanish from the trace rounds they cover.
        rec = report.trace.rounds[2]  # round 3: both windows active
        assert not rec.active[2] and not rec.active[5]
        assert rec.tags[2] == -1

    def test_permanent_crash_excluded_from_predicate(self):
        plan = FaultPlan(
            crashes=CrashSchedule((CrashWindow(node=3, start=2, end=None),))
        )
        cfg = LiveRunConfig(
            algorithm="blind_gossip", family="clique", n=6, seed=7,
            fault_plan=plan, max_rounds=2000,
        )
        report = run_live(cfg)
        assert report.result.stabilized
        assert check_live_trace(cfg, report) == []

    def test_unsupported_plan_rejected(self):
        plan = FaultPlan(tag_corruption=TagCorruptionModel(q=0.1))
        with pytest.raises(UnsupportedFeature, match="live tier .*tag_corruption"):
            run_live(LiveRunConfig(n=4, fault_plan=plan))

    def test_empty_plan_normalizes_to_none(self):
        cfg = LiveRunConfig(n=8)
        graph = build_graph(cfg)
        protocols = build_bundle(cfg, graph).protocols
        kw = dict(graph=_dynamic_graph(cfg, graph), activation_rounds=None)
        assert check_supported("live", protocols, fault_plan=None, **kw) is None
        assert check_supported("live", protocols, fault_plan=FaultPlan(), **kw) is None

    def test_drop_verdict_symmetric_and_seeded(self):
        args = (11, 3, 1, 4)
        assert connection_dropped(*args, p=0.5) == connection_dropped(*args, p=0.5)
        assert not connection_dropped(*args, p=0.0)
        hits = sum(connection_dropped(11, r, 1, 4, p=0.5) for r in range(200))
        assert 60 < hits < 140  # unbiased-ish, deterministic


class TestLiveReferenceCheck:
    def test_blind_gossip_conforms(self):
        cfg = LiveRunConfig(
            algorithm="blind_gossip", family="clique", n=10, seed=3,
            max_rounds=2000,
        )
        assert live_reference_check(cfg, live_trials=2, reference_trials=6) == []

    def test_reports_non_stabilization(self):
        cfg = LiveRunConfig(
            algorithm="blind_gossip", family="ring", n=10, seed=3, max_rounds=1
        )
        mismatches = live_reference_check(cfg, live_trials=1, reference_trials=1)
        assert mismatches and "did not stabilize" in mismatches[0]


class TestLiveCli:
    def test_live_run_smoke(self, capsys):
        from repro.cli import main

        status = main([
            "live", "run", "--algorithm", "blind_gossip", "--family",
            "clique", "--nodes", "8", "--seed", "2", "--check",
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "stabilized after" in out
        assert "passes all model-invariant checks" in out

    def test_live_run_rejects_bad_plan(self, tmp_path, capsys):
        from repro.cli import main

        plan = FaultPlan(tag_corruption=TagCorruptionModel(q=0.1))
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(plan.to_json())
        status = main([
            "live", "run", "--nodes", "4", "--fault-plan", str(plan_path)
        ])
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith("error: the live tier does not run: tag_corruption")
        assert "Traceback" not in err

    def test_live_fixed_rounds_cli(self, capsys):
        from repro.cli import main

        status = main([
            "live", "run", "--algorithm", "push_pull", "--family", "ring",
            "--nodes", "8", "--rounds", "3",
        ])
        assert status == 0
        assert "ran 3 fixed rounds" in capsys.readouterr().out


def test_tau_inf_is_static():
    cfg = LiveRunConfig(n=6, tau=math.inf)
    graph = build_graph(cfg)
    from repro.graphs.dynamic import StaticDynamicGraph

    assert isinstance(_dynamic_graph(cfg, graph), StaticDynamicGraph)
