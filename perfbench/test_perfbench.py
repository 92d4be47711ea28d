"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q`` from the repo root."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calib  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, WorkCounter  # noqa: E402


class SmallSweep(workloads.SweepBatched):
    n = 128
    batches = {"blind_gossip": ("blind_gossip", 4), "ppush": ("ppush", 4),
               "bit_convergence": ("bit_convergence", 2)}


class SmallChurn(workloads.ChurnFaults):
    n, trials = 64, 4


def _run(workload, seed, tracer=None):
    """One set-up and one pass; returns (outcomes, layer totals)."""
    if tracer is not None:
        tracer.install()
    try:
        inputs = workload.setup(seed)
        outs = [(label, run(None)) for label, run in workload.units(inputs)]
    finally:
        if tracer is not None:
            tracer.restore()
    outcomes = [workload.check(inputs, label, out) for label, out in outs]
    return outcomes, (tracer.take() if tracer is not None else {})


def test_calibration_correction_matches_hand_computed_values():
    ref = {"python": 0.010, "arrays": 0.004}
    one = {"python": 1.0}
    # Kernel took 12 ms before and 18 ms after the unit: 15 ms against a
    # 10 ms reference, so the machine ran at 2/3 speed.
    before, after = {"python": 0.012, "arrays": 0.004}, {"python": 0.018, "arrays": 0.004}
    assert calib.speed_factor(before, after, ref, one) == pytest.approx(2 / 3)
    assert calib.corrected(2.0, before, after, ref, one) == pytest.approx(4 / 3)
    assert calib.corrected(1.0, {"python": 0.005}, {"python": 0.005}, ref, one) == pytest.approx(2.0)
    # Weighted: python 1.5x slower at weight 0.5, arrays 2x slower at
    # weight 1, so the unit ran at 1 / (1.5 ** 0.5 * 2).
    before2 = {"python": 0.015, "arrays": 0.006}
    after2 = {"python": 0.015, "arrays": 0.010}
    weights = {"python": 0.5, "arrays": 1.0}
    assert calib.corrected(3.0, before2, after2, ref, weights) == pytest.approx(
        3.0 / (1.5 ** 0.5 * 2.0)
    )
    assert calib.speed_factor(before2, after2, ref, {}) == 1.0
    sample = calib.measure(repeats=1)
    assert set(sample) == set(calib.KERNELS) and min(sample.values()) > 0


def test_tracer_restores_every_wrapped_attribute():
    import repro.core.batched as batched
    import repro.graphs.families as families
    import repro.harness.campaign as campaign
    import repro.util.csrops as csrops
    from repro.core import BatchedVectorizedEngine

    before = {
        "pick": batched.batched_permuted_pick,
        "step": vars(BatchedVectorizedEngine)["step"],
        "build": families.random_regular,
        "run_experiment": campaign.run_experiment,
    }
    tracer = Tracer().install()
    try:
        inputs = SmallChurn().setup(3)
        outs = [run(None) for _, run in SmallChurn().units(inputs)]
        patched = tracer.patched()
    finally:
        tracer.restore()
    assert len(patched) > 50
    assert any(not isinstance(owner, type) and not hasattr(owner, "__file__")
               for owner, *_ in patched), "no per-instance wrapper was installed"
    for owner, attr, had, original in patched:
        own = vars(owner)
        if had:
            assert own[attr] is original, (owner, attr)
        else:
            assert attr not in own, (owner, attr)
    assert batched.batched_permuted_pick is before["pick"] is csrops.batched_permuted_pick
    assert vars(BatchedVectorizedEngine)["step"] is before["step"]
    assert families.random_regular is before["build"]
    assert campaign.run_experiment is before["run_experiment"]
    engine = outs[0][0]
    assert "exchange" not in vars(engine.algo)
    assert all("permutation_at" not in vars(dg) for dg in engine.dgs)


@pytest.mark.parametrize("make", [SmallSweep, SmallChurn])
def test_work_counts_repeat_and_match_between_traced_and_untraced(make):
    plain, _ = _run(make(), 5)
    again, _ = _run(make(), 5)
    traced, layer = _run(make(), 5, Tracer())
    node_rounds = sum(o.node_rounds for o in plain)
    connections = sum(o.connections for o in plain)
    assert node_rounds == sum(o.node_rounds for o in again)
    assert connections == sum(o.connections for o in again)
    assert node_rounds == sum(o.node_rounds for o in traced) == layer["core.node_rounds"]
    # Every accepted pair is a connection unless the drop model cut it.
    assert layer["csrops.accepts"] - layer.get("faults.dropped", 0) == connections
    assert all(o.failed == 0 for o in plain + traced)


def test_work_counter_matches_engine_results():
    counter = WorkCounter().install()
    try:
        outcomes, _ = _run(SmallChurn(), 7)
    finally:
        counter.restore()
    assert counter.node_rounds == sum(o.node_rounds for o in outcomes) > 0


def test_seed_determines_inputs():
    a, b, c = (SmallChurn().setup(s) for s in (1, 1, 2))
    assert np.array_equal(a.keys, b.keys)
    assert np.array_equal(a.graph.indices, b.graph.indices)
    assert a.seeds == b.seeds and a.plan == b.plan
    assert not np.array_equal(a.keys, c.keys)
    assert not np.array_equal(a.graph.indices, c.graph.indices)
    assert a.seeds != c.seeds
    campaign = workloads.CampaignQuick(Path("unused"))
    assert workloads.derive(1, "E1") != workloads.derive(2, "E1")
    assert campaign.fixed_seed_cells[0] in campaign.cells


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-batched",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
