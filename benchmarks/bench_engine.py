"""Microbenchmarks: round throughput of the engines and CSR primitives.

These are conventional pytest-benchmark measurements (many iterations)
quantifying the simulator itself — the substrate every experiment rides
on — and documenting the reference-vs-vectorized speed gap plus the
batched-vs-per-trial trial-throughput gap.
"""

import numpy as np

from repro.algorithms.bit_convergence import BitConvergenceBatched, BitConvergenceConfig
from repro.algorithms.blind_gossip import (
    BlindGossipBatched,
    make_blind_gossip_nodes,
)
from repro.core.batched import BatchedVectorizedEngine
from repro.core.engine import ReferenceEngine
from repro.core.payload import UIDSpace
from repro.core.vectorized import VectorizedEngine
from repro.graphs import families
from repro.graphs.dynamic import StaticDynamicGraph
from repro.graphs.static import Graph
from repro.harness.experiments import uid_keys_random
from repro.harness.runner import run_trials, run_trials_batched, trial_seeds_for
from repro.util.csrops import (
    PickMemo,
    batched_random_pick,
    segmented_random_pick,
    segmented_uniform_accept_pairs,
)

N = 256
DEGREE = 8
REPLICAS = 32


def test_vectorized_engine_round(benchmark):
    g = families.random_regular(N, DEGREE, seed=0)
    keys = uid_keys_random(N, 0)
    eng = VectorizedEngine(StaticDynamicGraph(g), BlindGossipBatched(keys), seed=0)
    counter = iter(range(1, 10_000_000))

    benchmark(lambda: eng.step(next(counter)))


def test_vectorized_bit_convergence_round(benchmark):
    g = families.random_regular(N, DEGREE, seed=0)
    keys = uid_keys_random(N, 0)
    cfg = BitConvergenceConfig(n_upper=N, delta_bound=DEGREE, beta=1.0)
    eng = VectorizedEngine(
        StaticDynamicGraph(g),
        BitConvergenceBatched(keys, cfg, tag_seed=0, unique_tags=True),
        seed=0,
    )
    counter = iter(range(1, 10_000_000))

    benchmark(lambda: eng.step(next(counter)))


def test_reference_engine_round(benchmark):
    g = families.random_regular(64, DEGREE, seed=0)
    us = UIDSpace(64, seed=0)
    eng = ReferenceEngine(StaticDynamicGraph(g), make_blind_gossip_nodes(us), seed=0)
    counter = iter(range(1, 10_000_000))

    benchmark(lambda: eng.step(next(counter)))


def test_vectorized_engine_round_large(benchmark):
    """Scalability point: one vectorized round at n=4096."""
    g = families.random_regular(4096, 16, seed=0)
    keys = uid_keys_random(4096, 0)
    eng = VectorizedEngine(StaticDynamicGraph(g), BlindGossipBatched(keys), seed=0)
    counter = iter(range(1, 10_000_000))

    benchmark(lambda: eng.step(next(counter)))


def test_batched_engine_round(benchmark):
    """One batched round advances all 32 replicas at once."""
    g = families.random_regular(N, DEGREE, seed=0)
    keys = uid_keys_random(N, 0)
    eng = BatchedVectorizedEngine(
        StaticDynamicGraph(g),
        BlindGossipBatched(keys),
        seeds=trial_seeds_for(0, REPLICAS),
    )
    counter = iter(range(1, 10_000_000))

    benchmark(lambda: eng.step(next(counter)))


def _trial_throughput_setup(n: int):
    g = families.random_regular(n, DEGREE, seed=0)
    dg = StaticDynamicGraph(g)
    keys = uid_keys_random(n, 0)
    return dg, keys


def _bench_trials_single(dg, keys):
    return run_trials(
        lambda ts: VectorizedEngine(dg, BlindGossipBatched(keys), seed=ts),
        trials=REPLICAS,
        max_rounds=100_000,
        seed=0,
    )


def _bench_trials_batched(dg, keys):
    return run_trials_batched(
        lambda seeds: (dg, BlindGossipBatched(keys)),
        trials=REPLICAS,
        max_rounds=100_000,
        seed=0,
    )


def test_trial_throughput_single_n256(benchmark):
    """Baseline: 32 blind-gossip trials as 32 separate engine loops."""
    dg, keys = _trial_throughput_setup(N)
    out = benchmark(_bench_trials_single, dg, keys)
    assert all(o.stabilized for o in out)


def test_trial_throughput_batched_n256(benchmark):
    """Fast path: the same 32 trials as one batched (T, n) computation.

    The acceptance target for the batched engine is ≥5× the
    single-engine loop above (compare the two means in the saved
    benchmark JSON).
    """
    dg, keys = _trial_throughput_setup(N)
    out = benchmark(_bench_trials_batched, dg, keys)
    assert all(o.stabilized for o in out)


def test_trial_throughput_single_n1024(benchmark):
    dg, keys = _trial_throughput_setup(1024)
    out = benchmark(_bench_trials_single, dg, keys)
    assert all(o.stabilized for o in out)


def test_trial_throughput_batched_n1024(benchmark):
    dg, keys = _trial_throughput_setup(1024)
    out = benchmark(_bench_trials_batched, dg, keys)
    assert all(o.stabilized for o in out)


def test_segmented_random_pick(benchmark):
    g = families.random_regular(1024, 16, seed=0)
    rng = np.random.default_rng(0)
    mask = rng.random(1024) < 0.5

    benchmark(
        lambda: segmented_random_pick(g.indptr, g.indices, rng, neighbor_mask=mask)
    )


def test_segmented_uniform_accept(benchmark):
    rng = np.random.default_rng(0)
    senders = rng.permutation(4096).astype(np.int64)
    targets = rng.integers(0, 512, size=4096)

    benchmark(lambda: segmented_uniform_accept_pairs(senders, targets, rng))


def test_batched_random_pick(benchmark):
    """32 replicas' picks over one shared CSR in a single kernel call."""
    g = families.random_regular(1024, 16, seed=0)
    rng = np.random.default_rng(0)
    active = rng.random((REPLICAS, 1024)) < 0.5

    benchmark(lambda: batched_random_pick(g.indptr, g.indices, rng, active))


# ---------------------------------------------------------------------------
# Churn + fault tier: cross-configuration ratios with asserted targets
# ---------------------------------------------------------------------------
#
# These tests time with perf_counter instead of the ``benchmark`` fixture
# because they *assert* cross-configuration ratios (one fixture call cannot
# compare two workloads) and they must run under plain pytest in CI (the
# ``--benchmark-only`` pass skips them).  Run them with::
#
#     pytest benchmarks/bench_engine.py -k "churn or fault or campaign"
#
# Passing runs append one trajectory record to ``BENCH_engine.json`` at the
# repo root; ``benchmarks/check_engine_regression.py`` gates CI on the
# dimensionless ratios in that record staying within 30% of the committed
# baseline.

import json
import subprocess
import time
from datetime import date
from pathlib import Path

from repro.graphs.dynamic import PeriodicRelabelDynamicGraph

CHURN_N_LEAVES = 15  # double star: n = 32
TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: Ratio targets asserted below (and re-checked by the regression gate).
PERMUTED_OVER_STATIC_MAX = 3.0
CHURN_TRIAL_SPEEDUP_MIN = 10.0

_measurements: dict[str, float] = {}


def _churn_setup():
    base = families.double_star(CHURN_N_LEAVES)
    keys = uid_keys_random(base.n, 0)
    return base, keys


def _ms_per_round(make_engine, rounds: int = 300, repeats: int = 5) -> float:
    """Median-of-repeats per-round wall time of a fresh engine, in ms."""
    samples = []
    for _ in range(repeats):
        eng = make_engine()
        eng.step(1)  # one warm-up round: caches, first-epoch setup
        t0 = time.perf_counter()
        for r in range(2, rounds + 2):
            eng.step(r)
        samples.append((time.perf_counter() - t0) / rounds * 1000.0)
    samples.sort()
    return samples[len(samples) // 2]


def _timed(fn, repeats: int = 3) -> float:
    """Median-of-repeats wall time of ``fn()``, in seconds."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return samples[len(samples) // 2]


def test_churn_round_cost_tiers():
    """Permutation-native churn rounds cost ≤3× static shared-CSR rounds.

    The three tiers run the same blind-gossip workload (double star n=32,
    T=32): one shared static CSR; per-replica τ=1 relabelings of a shared
    base (permutation-native fast path); the same relabelings over
    *distinct* base objects (stacked block-diagonal CSR fallback).
    """
    base, keys = _churn_setup()
    seeds = trial_seeds_for(0, REPLICAS)

    static_ms = _ms_per_round(
        lambda: BatchedVectorizedEngine(
            StaticDynamicGraph(base), BlindGossipBatched(keys), seeds=seeds
        )
    )
    permuted_ms = _ms_per_round(
        lambda: BatchedVectorizedEngine(
            [PeriodicRelabelDynamicGraph(base, 1, seed=int(ts)) for ts in seeds],
            BlindGossipBatched(keys),
            seeds=seeds,
        )
    )
    stacked_ms = _ms_per_round(
        lambda: BatchedVectorizedEngine(
            [
                PeriodicRelabelDynamicGraph(
                    families.double_star(CHURN_N_LEAVES), 1, seed=int(ts)
                )
                for ts in seeds
            ],
            BlindGossipBatched(keys),
            seeds=seeds,
        )
    )

    _measurements.update(
        static_ms_per_round=static_ms,
        permuted_ms_per_round=permuted_ms,
        stacked_ms_per_round=stacked_ms,
        permuted_over_static=permuted_ms / static_ms,
    )
    assert permuted_ms / static_ms <= PERMUTED_OVER_STATIC_MAX, (
        f"permutation-native churn round {permuted_ms:.3f} ms is "
        f"{permuted_ms / static_ms:.1f}x the static round {static_ms:.3f} ms "
        f"(target <= {PERMUTED_OVER_STATIC_MAX}x)"
    )
    # The fast path must also clearly beat the stacked fallback it replaces.
    assert permuted_ms < stacked_ms


def test_churn_trial_throughput():
    """Batched τ=1 churn sweeps run ≥10× faster than the per-trial loop."""
    base, keys = _churn_setup()

    def single():
        out = run_trials(
            lambda ts: VectorizedEngine(
                PeriodicRelabelDynamicGraph(base, 1, seed=ts),
                BlindGossipBatched(keys),
                seed=ts,
            ),
            trials=REPLICAS,
            max_rounds=100_000,
            seed=0,
        )
        assert all(o.stabilized for o in out)

    def batched():
        out = run_trials_batched(
            lambda seeds: (
                [PeriodicRelabelDynamicGraph(base, 1, seed=int(ts)) for ts in seeds],
                BlindGossipBatched(keys),
            ),
            trials=REPLICAS,
            max_rounds=100_000,
            seed=0,
        )
        assert all(o.stabilized for o in out)

    single_s = _timed(single)
    batched_s = _timed(batched)
    speedup = single_s / batched_s
    _measurements.update(
        churn_single_trials_s=single_s,
        churn_batched_trials_s=batched_s,
        churn_trial_speedup=speedup,
    )
    assert speedup >= CHURN_TRIAL_SPEEDUP_MIN, (
        f"batched churn sweep is only {speedup:.1f}x the per-trial loop "
        f"(target >= {CHURN_TRIAL_SPEEDUP_MIN}x): "
        f"{single_s:.2f}s vs {batched_s:.2f}s"
    )


#: Max tolerated round-cost ratio of an empty FaultPlan over no plan.
EMPTY_PLAN_OVERHEAD_MAX = 1.05


def test_fault_empty_plan_overhead():
    """An engine built with an empty ``FaultPlan`` costs ≤5% per round.

    Engines normalize an empty plan to no plan at construction, so the
    hot loop is the very same code path; this bench pins that guarantee
    against future fault hooks leaking into the faultless path.
    """
    from repro.faults import FaultPlan

    g = families.random_regular(N, DEGREE, seed=0)
    keys = uid_keys_random(N, 0)
    seeds = trial_seeds_for(0, REPLICAS)

    def make(plan):
        return lambda: BatchedVectorizedEngine(
            StaticDynamicGraph(g),
            BlindGossipBatched(keys),
            seeds=seeds,
            fault_plan=plan,
        )

    # Paired passes, then the min ratio: with a gate this tight the
    # signal is ~1.0 by construction and the rest is scheduler noise,
    # which paired medians plus a min across passes filter out.
    ratios = []
    for _ in range(3):
        base_ms = _ms_per_round(make(None), rounds=200, repeats=3)
        plan_ms = _ms_per_round(make(FaultPlan()), rounds=200, repeats=3)
        ratios.append(plan_ms / base_ms)
    overhead = min(ratios)
    _measurements["empty_plan_overhead"] = overhead
    assert overhead <= EMPTY_PLAN_OVERHEAD_MAX, (
        f"empty-FaultPlan rounds cost {overhead:.3f}x the faultless rounds "
        f"(target <= {EMPTY_PLAN_OVERHEAD_MAX}x)"
    )


#: Max tolerated round-cost ratio of ``collect_trace=False`` over default.
TRACE_DISABLED_OVERHEAD_MAX = 1.05


def test_trace_disabled_overhead():
    """An engine built with ``collect_trace=False`` costs ≤5% per round.

    Trace capture is opt-in: disabled, the round loop is the pre-capture
    loop plus per-round guard branches that never take (``self.trace`` is
    ``None``).  Like the empty-FaultPlan gate above, the ratio is ~1.0 by
    construction today; the gate pins that guarantee against future trace
    work leaking outside the ``collect_trace`` guard (eager per-round
    array materialization, unconditional copies).  The enabled/disabled
    ratio is recorded alongside as context — it is *allowed* to be large.
    """
    g = families.random_regular(N, DEGREE, seed=0)
    keys = uid_keys_random(N, 0)
    seeds = trial_seeds_for(0, REPLICAS)

    def make(**kwargs):
        return lambda: BatchedVectorizedEngine(
            StaticDynamicGraph(g),
            BlindGossipBatched(keys),
            seeds=seeds,
            **kwargs,
        )

    # Paired passes, min ratio: same noise-filtering rationale as the
    # empty-plan overhead gate above.
    ratios = []
    for _ in range(3):
        default_ms = _ms_per_round(make(), rounds=200, repeats=3)
        disabled_ms = _ms_per_round(make(collect_trace=False), rounds=200, repeats=3)
        ratios.append(disabled_ms / default_ms)
    overhead = min(ratios)
    enabled_ms = _ms_per_round(make(collect_trace=True), rounds=200, repeats=3)
    _measurements["trace_disabled_overhead"] = overhead
    _measurements["trace_enabled_over_disabled"] = enabled_ms / disabled_ms
    assert overhead <= TRACE_DISABLED_OVERHEAD_MAX, (
        f"trace-disabled rounds cost {overhead:.3f}x the default rounds "
        f"(target <= {TRACE_DISABLED_OVERHEAD_MAX}x)"
    )


#: Max tolerated wall-time ratio of a checkpointed campaign over a raw loop.
CAMPAIGN_CHECKPOINT_OVERHEAD_MAX = 1.05


def test_campaign_checkpoint_overhead():
    """A durable campaign costs ≤5% over a raw ``run_experiment`` loop.

    Same cells, same profile; the campaign additionally writes one
    atomic, fsynced, content-hashed checkpoint per cell.  The checkpoint
    cost is per-cell constant, so the quick E1+A3 pair (fractions of a
    second of real compute) is the *unfavourable* case — a standard
    campaign amortizes the same bytes over minutes of compute.
    """
    import tempfile

    from repro.harness.campaign import CampaignConfig, run_campaign
    from repro.harness.experiments import run_experiment

    cells = ("E1", "A3")

    def raw():
        for exp_id in cells:
            run_experiment(exp_id, "quick")

    def campaign():
        with tempfile.TemporaryDirectory() as d:
            report = run_campaign(
                CampaignConfig(checkpoint_dir=d, exp_ids=cells, verify=False)
            )
            assert report.ok

    # Paired passes, min ratio: the same noise-filtering rationale as
    # the empty-plan overhead gate above.  Within a pass the two sides
    # alternate, so drift hits both alike.
    ratios = []
    for _ in range(3):
        raw_s, campaign_s = [], []
        for _ in range(3):
            raw_s.append(_timed(raw, repeats=1))
            campaign_s.append(_timed(campaign, repeats=1))
        ratios.append(sorted(campaign_s)[1] / sorted(raw_s)[1])
    overhead = min(ratios)
    _measurements["campaign_checkpoint_overhead"] = overhead
    assert overhead <= CAMPAIGN_CHECKPOINT_OVERHEAD_MAX, (
        f"checkpointed campaign costs {overhead:.3f}x the raw experiment loop "
        f"(target <= {CAMPAIGN_CHECKPOINT_OVERHEAD_MAX}x)"
    )


# ---------------------------------------------------------------------------
# Large n: one-replica round cost and sparse-frontier endgame speedup
# ---------------------------------------------------------------------------

LARGE_DEGREE = 8
SPARSE_UNDONE = 128

#: Cap on the sparse endgame round's cost at n=10^6 over n=10^5, asserted
#: below (and re-checked by the gate).
SPARSE_ROUND_N_SCALING_MAX = 3.0


def _large_setup(n: int, seed: int = 0):
    g = families.random_regular(n, LARGE_DEGREE, seed=seed)
    keys = uid_keys_random(n, seed)
    return StaticDynamicGraph(g), keys


def _endgame_engine(dg, keys, sparse: str):
    """A vectorized engine positioned near stabilization.

    All but :data:`SPARSE_UNDONE` nodes already hold the winner; the
    stragglers hold distinct non-winning values.  This is the regime the
    sparse frontier targets: the undone set and its 2-hop closure are a
    few percent of the network.
    """
    eng = VectorizedEngine(
        dg, BlindGossipBatched(keys), seed=1, sparse=sparse
    )
    st = eng.state
    n = st.best.shape[1]
    undone = np.random.default_rng(7).choice(n, size=SPARSE_UNDONE, replace=False)
    st.best[:] = st.target
    st.best[0, undone] = st.target + 1 + np.arange(SPARSE_UNDONE)
    if sparse != "off":
        # Materialize the frontier up front: a real run builds it once at
        # the first sparse round, not once per measured round.
        eng.frontier.build()
    # NumPy maps a large zeroed array lazily, so the first round to write
    # the engine's all-False scratch masks would pay their page faults
    # (~0.8 ms for the 1 MB ``connect`` mask at n=10^6): a one-time cost
    # of the engine, paid in round 1 of a real run, not a cost per round.
    eng._proposed.fill(False)
    eng.frontier._mark.fill(False)
    return eng


def _first_round_ms(make_engine, repeats: int = 9) -> float:
    """Median cost of round 1 on a fresh engine, in ms.

    The churn benches time long streaks (:func:`_ms_per_round`); here the
    endgame state must be identical for every measured round, so each
    sample re-builds the engine and times exactly one round.  The engine
    comes with its scratch masks already touched (:func:`_endgame_engine`).
    """
    samples = []
    for _ in range(repeats):
        eng = make_engine()
        t0 = time.perf_counter()
        eng.step(1)
        samples.append((time.perf_counter() - t0) * 1000.0)
    samples.sort()
    return samples[len(samples) // 2]


def test_sparse_frontier_speedup():
    """Sparse endgame rounds cost what the frontier holds, not what n is.

    The same endgame (128 undone nodes on a random 8-regular graph) at
    n=10^5 and n=10^6: the sparse round touches only the undone set's
    ~8,000-row 2-hop closure, so a 10x larger network may cost it cache
    misses but not 10x the work.  ``sparse_round_n_scaling`` (n=10^6
    over n=10^5) is the gated ratio: both sides are the same code path,
    so it does not move when the dense round gets faster.  The dense
    n=10^5 round over the sparse one (``sparse_frontier_speedup``) is
    recorded as context; the sparse round must still beat it.
    """
    dg5, keys5 = _large_setup(100_000)
    dense_ms = _first_round_ms(lambda: _endgame_engine(dg5, keys5, "off"))
    sparse_ms = _first_round_ms(lambda: _endgame_engine(dg5, keys5, "auto"))
    del dg5, keys5
    dg6, keys6 = _large_setup(1_000_000)
    sparse_1e6_ms = _first_round_ms(lambda: _endgame_engine(dg6, keys6, "auto"))
    scaling = sparse_1e6_ms / sparse_ms
    speedup = dense_ms / sparse_ms
    _measurements.update(
        endgame_dense_ms_per_round=dense_ms,
        endgame_sparse_ms_per_round=sparse_ms,
        endgame_sparse_ms_per_round_n1e6=sparse_1e6_ms,
        sparse_frontier_speedup=speedup,
        sparse_round_n_scaling=scaling,
    )
    assert scaling <= SPARSE_ROUND_N_SCALING_MAX, (
        f"sparse endgame round {sparse_1e6_ms:.3f} ms at n=1e6 is "
        f"{scaling:.1f}x the {sparse_ms:.3f} ms round at n=1e5 "
        f"(target <= {SPARSE_ROUND_N_SCALING_MAX}x)"
    )
    assert speedup > 1.0, (
        f"sparse endgame round {sparse_ms:.3f} ms is no faster than the "
        f"dense round {dense_ms:.3f} ms"
    )


def test_large_n_round_cost():
    """One-replica engine round cost at n=10^5 and n=10^6 from the initial state.

    Records absolute per-round wall times (machine-dependent context) and
    their dimensionless n=10^6 / n=10^5 ratio, which the regression gate
    caps: a 10× larger network must not cost disproportionately more per
    round (superlinear blowup means the dense round or frontier logic broke).
    """
    dg5, keys5 = _large_setup(100_000)
    ms_1e5 = _ms_per_round(
        lambda: VectorizedEngine(dg5, BlindGossipBatched(keys5), seed=2),
        rounds=20,
        repeats=3,
    )
    dg6, keys6 = _large_setup(1_000_000)
    ms_1e6 = _ms_per_round(
        lambda: VectorizedEngine(dg6, BlindGossipBatched(keys6), seed=2),
        rounds=5,
        repeats=2,
    )
    _measurements.update(
        ms_per_round_n1e5=ms_1e5,
        ms_per_round_n1e6=ms_1e6,
        largen_ms_ratio_n1e6_over_n1e5=ms_1e6 / ms_1e5,
    )
    # Sanity only (the gate holds the real cap): 10x nodes should cost
    # within ~25x per round, not e.g. 100x.
    assert ms_1e6 / ms_1e5 <= 25.0, (
        f"n=1e6 round {ms_1e6:.1f} ms is {ms_1e6 / ms_1e5:.1f}x the "
        f"n=1e5 round {ms_1e5:.1f} ms (superlinear blowup)"
    )


def test_large_n_trial_phases():
    """One full one-replica blind-gossip trial at n=2^17, split by phase.

    Each round is a dense round, a sparse round, or a dense round behind
    a rejected closure probe; the record keeps the whole trial
    (``largen_trial_s``) and the seconds spent in dense rounds, in
    rejected probes and in sparse rounds.  Absolute, machine-dependent
    context: the per-layer view of where a large-n trial's time goes.
    """
    dg, keys = _large_setup(2**17, seed=3)
    eng = VectorizedEngine(dg, BlindGossipBatched(keys), seed=3)
    closure, step = eng.frontier.closure, eng.step
    probe = {"s": 0.0, "hit": False}
    phases = {"dense": 0.0, "rejected": 0.0, "sparse": 0.0}

    def timed_closure(*args):
        t0 = time.perf_counter()
        hit = closure(*args)
        probe["s"], probe["hit"] = time.perf_counter() - t0, hit is not None
        return hit

    def timed_step(r):
        t0 = time.perf_counter()
        step(r)
        dt = time.perf_counter() - t0
        if probe["hit"]:
            phases["sparse"] += dt
        else:
            phases["rejected"] += probe["s"]
            phases["dense"] += dt - probe["s"]

    eng.frontier.closure, eng.step = timed_closure, timed_step
    t0 = time.perf_counter()
    res = eng.run(2000)
    trial_s = time.perf_counter() - t0
    assert res.stabilized
    _measurements.update(
        largen_trial_s=trial_s,
        largen_dense_rounds_s=phases["dense"],
        largen_rejected_probes_s=phases["rejected"],
        largen_sparse_rounds_s=phases["sparse"],
    )


# ---------------------------------------------------------------------------
# Parallel execution plane: campaign speedup
# ---------------------------------------------------------------------------

import os

#: Whole-campaign speedup target, asserted only on multi-core runners
#: (the regression gate applies the same condition via pool_cpu_count).
CAMPAIGN_PARALLEL_SPEEDUP_MIN = 2.0
CAMPAIGN_PARALLEL_MIN_CPUS = 4


def test_graph_build():
    """Cold ``random_regular(2**18, 8)`` build: the large-n set-up layer.

    Pairing, vectorized repair, the key-sorted CSR and the connectivity
    check.  Absolute milliseconds, so the record keeps it as
    machine-fingerprinted context, not a gated ratio.  A fourth, untimed
    build under ``tracemalloc`` records the build's peak allocation over
    the bytes of the CSR it returns, ``graph_build_peak_ratio_n2e18``:
    machine-independent, and capped by the regression gate.
    """
    import tracemalloc

    build_s = _timed(lambda: families.random_regular(2**18, 8, seed=123), repeats=3)
    _measurements["graph_build_ms_n2e18"] = build_s * 1000.0
    tracemalloc.start()
    try:
        g = families.random_regular(2**18, 8, seed=123)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _measurements["graph_build_peak_ratio_n2e18"] = peak / (g.indptr.nbytes + g.indices.nbytes)


def test_campaign_parallel_speedup():
    """Wall-clock speedup of the pooled campaign over the serial scheduler.

    Six real registry cells (two heavy, four light) in forked waves as
    wide as the machine (≤4 children).  The ≥2× floor applies only on runners
    with ≥4 CPUs — the recorded ``pool_cpu_count`` lets the regression
    gate re-apply exactly the same condition, so single-core runs still
    record the (possibly <1×) ratio as context without failing.
    """
    import tempfile

    from repro.harness.campaign import CampaignConfig, run_campaign

    cells = ("E3", "E5", "E6", "E7", "E10", "A3")
    cpus = os.cpu_count() or 1
    workers = min(4, cpus)

    def campaign(pool_workers):
        with tempfile.TemporaryDirectory() as d:
            report = run_campaign(
                CampaignConfig(
                    checkpoint_dir=d,
                    exp_ids=cells,
                    verify=False,
                    backoff_base=0.0,
                    pool_workers=pool_workers,
                )
            )
            assert report.ok

    speedups = []
    for _ in range(2):
        serial_s = _timed(lambda: campaign(None), repeats=1)
        pooled_s = _timed(lambda: campaign(workers), repeats=1)
        speedups.append(serial_s / pooled_s)
    speedup = max(speedups)
    _measurements.update(
        campaign_parallel_speedup=speedup,
        pool_cpu_count=float(cpus),
    )
    if cpus >= CAMPAIGN_PARALLEL_MIN_CPUS:
        assert speedup >= CAMPAIGN_PARALLEL_SPEEDUP_MIN, (
            f"pooled campaign ({workers} workers, {cpus} CPUs) is only "
            f"{speedup:.2f}x the serial scheduler "
            f"(target >= {CAMPAIGN_PARALLEL_SPEEDUP_MIN}x)"
        )


# ---------------------------------------------------------------------------
# Async event tier: event throughput and virtual-time dilation vs sync rounds
# ---------------------------------------------------------------------------

from repro.asyncsim import EventSimEngine, blind_gossip_setup

ASYNC_BENCH_N = 256
ASYNC_RATIO_N = 64
ASYNC_RATIO_SEEDS = 9

#: Sanity cap asserted below (the regression gate holds the real,
#: baseline-relative rule).  At Δ=1 one synchronous round unrolls to a
#: fixed timer→connect→deliver cadence of ~2-3 ticks, so the dilation
#: ratio is a stable dimensionless constant well under this.
ASYNC_VS_SYNC_ROUND_RATIO_MAX = 6.0


def _async_gossip_run(seed: int, n: int):
    g = families.random_regular(n, DEGREE, seed=0)
    us = UIDSpace(n, seed=0)
    setup = blind_gossip_setup(us)
    eng = EventSimEngine(
        StaticDynamicGraph(g), setup.nodes, seed=seed, delta=1, scheduler="random"
    )
    res = eng.run_until(100_000, setup.stop_when, check_every=4)
    assert res.stabilized
    return eng, res


def test_async_event_throughput():
    """Events per second of the event tier (absolute, machine-dependent).

    Blind gossip to stabilization at n=256, Δ=1: the per-event Python
    dispatch loop is the cost model here, so the metric is recorded as
    context (like the large-n per-round wall times) rather than gated on
    magnitude — the gate only requires that this bench ran.
    """
    samples = []
    for rep in range(5):
        t0 = time.perf_counter()
        eng, _ = _async_gossip_run(seed=rep + 1, n=ASYNC_BENCH_N)
        elapsed = time.perf_counter() - t0
        samples.append(eng.events_processed / elapsed)
    samples.sort()
    _measurements["async_events_per_sec"] = samples[len(samples) // 2]


def test_async_vs_sync_round_ratio():
    """Median async ticks at Δ=1 over median sync vectorized rounds.

    Same workload both sides (blind gossip, random 8-regular n=64, same
    trial seeds).  The ratio is dimensionless and stable (~2-3: the
    event tier's timer→connect→deliver cadence spans a few ticks per
    synchronous round), so the regression gate holds it to the baseline
    — a jump means the event cadence or the stop-check quantization
    changed, not the machine.
    """
    g = families.random_regular(ASYNC_RATIO_N, DEGREE, seed=0)
    dg = StaticDynamicGraph(g)
    keys = uid_keys_random(ASYNC_RATIO_N, 0)
    async_ticks, sync_rounds = [], []
    for ts in trial_seeds_for(0, ASYNC_RATIO_SEEDS):
        _, res = _async_gossip_run(seed=int(ts), n=ASYNC_RATIO_N)
        async_ticks.append(res.rounds)
        vres = VectorizedEngine(
            dg, BlindGossipBatched(keys), seed=int(ts)
        ).run(100_000, check_every=4)
        assert vres.stabilized
        sync_rounds.append(vres.rounds)
    ratio = float(np.median(async_ticks)) / float(np.median(sync_rounds))
    _measurements["async_vs_sync_round_ratio"] = ratio
    assert ratio <= ASYNC_VS_SYNC_ROUND_RATIO_MAX, (
        f"async/sync round ratio {ratio:.2f} at Delta=1 exceeds "
        f"{ASYNC_VS_SYNC_ROUND_RATIO_MAX} (ticks={async_ticks}, "
        f"rounds={sync_rounds})"
    )


#: Tournament cells per second must stay within tolerance of the baseline
#: record — a drop means the adversary construction or the per-trial loop
#: in ``run_tournament_trial`` got slower, not that elections changed.
TOURNAMENT_BENCH_GRID = dict(
    n=16, degree=4, taus=(1, 2), trials=2, max_rounds=300,
    assassin_period=6, assassin_kills=2, churn_events=6, churn_last=20,
)


def test_tournament_cell_throughput():
    """Tournament cells (adversary × τ, trials included) per second.

    One full ``exp_tournament`` grid over every adversary at two taus,
    median of three repeats.  Exercises adversary graph/plan construction,
    the manual step loop with ``last_active`` plumbing, and the
    ``LiveAgreementMonitor`` — the whole per-cell path the T-series and
    the ``repro tournament`` CLI ride on.
    """
    from repro.harness.tournament import ADVERSARIES, exp_tournament

    cells = len(ADVERSARIES) * len(TOURNAMENT_BENCH_GRID["taus"])
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        table = exp_tournament("push_pull", **TOURNAMENT_BENCH_GRID)
        elapsed = time.perf_counter() - t0
        assert len(table.rows) == cells
        samples.append(cells / elapsed)
    samples.sort()
    _measurements["tournament_cell_throughput"] = samples[len(samples) // 2]


def test_live_transport_throughput():
    """Live-tier rounds/sec over real localhost sockets at two scales.

    Fixed-round runs (stabilization ignored) so the measurement is pure
    protocol + transport + barrier cost: a 64-node blind-gossip clique
    (the dense worst case — ~4k TCP channels, every edge carries frames
    every round) and a 256-node ring (4× the tasks, thin edges).  These
    are wall-clock numbers over real sockets, so the regression floors
    sit far below the measured medians.
    """
    from repro.live import LiveRunConfig, run_live

    for key, cfg in (
        (
            "live_rounds_per_sec_n64",
            LiveRunConfig(
                algorithm="blind_gossip", family="clique", n=64,
                seed=0, fixed_rounds=6, collect_trace=False,
            ),
        ),
        (
            "live_rounds_per_sec_n256",
            LiveRunConfig(
                algorithm="blind_gossip", family="ring", n=256,
                seed=0, fixed_rounds=10, collect_trace=False,
            ),
        ),
    ):
        report = run_live(cfg)
        assert report.result.rounds == cfg.fixed_rounds
        _measurements[key] = report.rounds_per_sec


def test_masked_over_unmasked_pick():
    """Masked batched pick cost over the unmasked pick on the same senders.

    The shape of a bit-convergence round in the standard sweep: T=8
    replicas on a random 8-regular graph at n=1024, half the vertices
    sending, half eligible as targets, and a quarter of the replicas dead
    (no sender left).  Dimensionless, so the regression gate can compare
    it across machines.
    """
    T, n = 8, 1024
    g = families.random_regular(n, 8, seed=0)
    rng = np.random.default_rng(0)
    active = rng.random((T, n)) < 0.5
    active[: T // 4] = False
    eligible = rng.random((T, n)) < 0.5
    calls = 200

    def masked():
        for _ in range(calls):
            batched_random_pick(g.indptr, g.indices, rng, active, neighbor_mask=eligible)

    def unmasked():
        for _ in range(calls):
            batched_random_pick(g.indptr, g.indices, rng, active)

    masked_s, unmasked_s = [], []
    for _ in range(7):  # interleaved, so drift hits both sides alike
        masked_s.append(_timed(masked, repeats=1))
        unmasked_s.append(_timed(unmasked, repeats=1))
    masked_ms = sorted(masked_s)[3] / calls * 1000.0
    unmasked_ms = sorted(unmasked_s)[3] / calls * 1000.0
    _measurements.update(
        masked_pick_ms=masked_ms,
        unmasked_pick_ms=unmasked_ms,
        masked_over_unmasked_pick=masked_ms / unmasked_ms,
    )


def test_masked_pick_reuse():
    """Masked batched pick from a reused build over a fresh build.

    The shape of ``test_masked_over_unmasked_pick``, with the masks held
    for every call as bit convergence holds its tags for a group of
    rounds: one :class:`PickMemo` serves every call after the first, so
    those only draw; the other side builds the eligibility index on each
    call.  Dimensionless, so the regression gate can compare it across
    machines.
    """
    T, n = 8, 1024
    g = families.random_regular(n, 8, seed=0)
    rng = np.random.default_rng(0)
    active = rng.random((T, n)) < 0.5
    active[: T // 4] = False
    eligible = rng.random((T, n)) < 0.5
    memo = PickMemo()
    calls = 200

    def reused():
        for _ in range(calls):
            batched_random_pick(
                g.indptr, g.indices, rng, active, neighbor_mask=eligible, reuse=memo
            )

    def built():
        for _ in range(calls):
            batched_random_pick(g.indptr, g.indices, rng, active, neighbor_mask=eligible)

    reused_s, built_s = [], []
    for _ in range(7):  # interleaved, so drift hits both sides alike
        reused_s.append(_timed(reused, repeats=1))
        built_s.append(_timed(built, repeats=1))
    reused_ms = sorted(reused_s)[3] / calls * 1000.0
    built_ms = sorted(built_s)[3] / calls * 1000.0
    _measurements.update(
        masked_pick_reuse_ms=reused_ms,
        masked_reuse_over_build=reused_ms / built_ms,
    )


#: A relabel must cost less than building the relabeled graph outright.
RELABEL_OVER_REBUILD_MAX = 1.0


def test_single_replica_round_us():
    """Per-round cost of the single-replica engine, static and τ=1 churn.

    Blind gossip on ``double_star(16)`` (n = 34, the size of the quick
    profiles' cells): one ``VectorizedEngine.step`` over a static graph,
    and one over a graph relabeled every round.  At this size a round is
    NumPy call overhead, so the absolute µs are context.  The gated ratio
    ``relabel_over_rebuild`` is ``Graph.relabel`` over building the same
    relabeled graph from its edge list: a relabel permutes the CSR and
    must not drift back toward re-canonicalizing it.
    """
    base = families.double_star(16)
    keys = uid_keys_random(base.n, 0)

    def engine(dg):
        return lambda: VectorizedEngine(dg(), BlindGossipBatched(keys), seed=0)

    static = engine(lambda: StaticDynamicGraph(base))
    relabel = engine(lambda: PeriodicRelabelDynamicGraph(base, 1, seed=0))

    static_us, relabel_us = [], []
    for _ in range(5):  # interleaved, so drift hits both sides alike
        static_us.append(_ms_per_round(static, rounds=1000, repeats=1) * 1000.0)
        relabel_us.append(_ms_per_round(relabel, rounds=1000, repeats=1) * 1000.0)
    static_us.sort()
    relabel_us.sort()

    perms = [np.random.default_rng(i).permutation(base.n) for i in range(200)]

    def relabel():
        for p in perms:
            base.relabel(p)

    def rebuild():
        for p in perms:
            Graph(base.n, p[base.edges])

    relabel_s, rebuild_s = [], []
    for _ in range(7):  # interleaved, so drift hits both sides alike
        relabel_s.append(_timed(relabel, repeats=1))
        rebuild_s.append(_timed(rebuild, repeats=1))
    ratio = sorted(relabel_s)[3] / sorted(rebuild_s)[3]
    _measurements.update(
        single_static_round_us=static_us[2],
        single_relabel_round_us=relabel_us[2],
        relabel_over_rebuild=ratio,
    )
    assert ratio < RELABEL_OVER_REBUILD_MAX, (
        f"Graph.relabel costs {ratio:.2f}x building the relabeled graph "
        f"(target < {RELABEL_OVER_REBUILD_MAX}x)"
    )


def _machine() -> dict:
    """Where a record was taken: CPU count and model, Python, NumPy."""
    import os
    import platform

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def test_churn_trajectory_record():
    """Append this run's measurements to the committed trajectory file.

    Runs last of the churn tests (definition order); skips silently when
    the measurements are absent (e.g. a ``-k`` selection ran only one).
    """
    import pytest

    required = {"permuted_over_static", "churn_trial_speedup"}
    if not required <= _measurements.keys():
        pytest.skip("round-cost and throughput churn benches did not both run")
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=7"],
            capture_output=True,
            text=True,
            cwd=TRAJECTORY_PATH.parent,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    record = {
        "date": date.today().isoformat(),
        "commit": commit,
        "machine": _machine(),
        **{k: round(v, 4) for k, v in _measurements.items()},
    }
    data = {"records": []}
    if TRAJECTORY_PATH.exists():
        data = json.loads(TRAJECTORY_PATH.read_text())
    data["records"].append(record)
    TRAJECTORY_PATH.write_text(json.dumps(data, indent=2, allow_nan=False) + "\n")
