"""CI gate: fail on >30% engine-throughput regression vs the committed baseline.

``benchmarks/bench_engine.py -k "churn or fault or campaign or trace or
sparse or large or async or tournament or live or masked or
graph_build or single_replica"`` appends one record per run to
``BENCH_engine.json`` at the repo root.  This script compares the newest
record (the current run) against the *per-metric median of all committed
prior records*.  All but one gated metric are dimensionless ratios —
machine speed cancels out of each, so the gate is meaningful across
runner hardware; the exception, an absolute rate, is marked below.  The
median baseline keeps one anomalously lucky (or unlucky) committed run from
poisoning the gate for every later run.  Output is a per-metric trend
table: median baseline, current value, percent delta, verdict.

Gated metrics (and their absolute caps/floors, mirroring the bench
asserts):

- ``churn_trial_speedup``   (batched sweep over per-trial loop; higher is
  better) must not drop below 70% of the baseline;
- ``permuted_over_static``  (fast-path round cost over static round cost;
  lower is better) must not grow above 130% of the baseline;
- ``empty_plan_overhead``, ``campaign_checkpoint_overhead``,
  ``trace_disabled_overhead`` (~1.0 by construction; lower is better) —
  130%-of-baseline rule plus an absolute 1.05 cap;
- ``sparse_round_n_scaling`` (sparse-frontier endgame round at n=10^6
  over the same 128-undone endgame at n=10^5; lower is better) —
  130%-of-baseline rule plus an absolute 3.0 cap: a sparse round costs
  what its frontier holds, so a 10× larger network must not cost it
  anywhere near 10×;
- ``largen_ms_ratio_n1e6_over_n1e5`` (one-replica engine per-round cost
  at n=10^6 over n=10^5; lower is better) — 130%-of-baseline rule plus an
  absolute 25.0 cap;
- ``async_vs_sync_round_ratio`` (event-tier stabilization ticks at Δ=1
  over sync vectorized rounds on the same workload; lower is better) —
  130%-of-baseline rule plus an absolute 6.0 cap: the Δ=1 cadence is a
  structural constant of the event tier, so a jump means the timer→
  connect→deliver unrolling changed, not the machine;
- ``masked_over_unmasked_pick`` (masked batched neighbor pick over the
  unmasked pick on the same senders; lower is better) — 130%-of-baseline
  rule: the masked kernel must not fall back toward its old multiple of
  the unmasked cost;
- ``relabel_over_rebuild`` (``Graph.relabel`` over building the same
  relabeled graph from its edge list, n = 34; lower is better) —
  130%-of-baseline rule plus an absolute 1.0 cap: a relabel must not
  drift back toward rebuilding the graph;
- ``tournament_cell_throughput`` (tournament cells per second over one
  full adversary × τ grid, median of three; higher is better) — the
  70%-of-baseline rule only.  Unlike every other gated metric it is an
  **absolute** rate, not a ratio, so machine speed does not cancel: a
  slower runner than the committed records' can trip it;
- ``campaign_parallel_speedup`` (serial campaign wall time over the
  campaign run in forked waves) is gated **conditionally**: the absolute 2.0 floor
  applies only when the record's ``pool_cpu_count`` is ≥4 — a
  single-core runner records the (possibly <1×) ratio as context and
  passes, because the parallel plane cannot beat serial without cores.
  It is never compared against the baseline median, which may mix
  runners with different core counts.

Absolute context values (``ms_per_round_n1e5``, ``ms_per_round_n1e6``,
``pool_cpu_count``, ``async_events_per_sec``, ``live_rounds_per_sec_n64``,
``live_rounds_per_sec_n256``, ``graph_build_ms_n2e18``,
``single_static_round_us``, ``single_relabel_round_us``,
``largen_trial_s``) must be present —
their producing benches must have run — but their magnitudes are
machine-dependent and not gated.  So must
``graph_build_peak_ratio_n2e18`` (the tracemalloc peak of
``random_regular(2**18, 8)`` over the bytes of the CSR it returns),
which is also held under an absolute 2.4 cap: measured 2.0 (2.04 in a
fresh process), plus 0.35 of margin.  tracemalloc counts the same allocations on every machine, so
the cap needs no baseline; a build that keeps a second copy of the
edges again reads ~7.7.  So must ``sparse_frontier_speedup``
(dense endgame round over sparse endgame round at n=10^5): it is a
ratio, but its denominator is the dense round, which its own
optimisations move, so it is context only.

All files are parsed with a *strict* RFC 8259 parser (``parse_constant``
raising), so a non-finite ``Infinity``/``NaN`` token leaking into any
harness-written JSON fails the gate immediately.  Extra paths after the
BENCH file (e.g. tournament leaderboard/checkpoint documents) are
strict-parsed the same way without being gated.

A ratio present in the current record but absent from every prior record
is a *new metric* (added after the baselines were committed): it is
reported and passes; the next committed record becomes its baseline.  A
ratio missing from the *current* record is a failure — the bench that
produces it did not run.

Usage::

    python benchmarks/check_engine_regression.py [BENCH_engine.json] [EXTRA_JSON...]

Exit status 0 on pass (or when no baseline exists yet), 1 on regression
or on any strict-parse failure.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

#: Allowed relative slack before a ratio counts as a regression.
TOLERANCE = 0.30

#: Hard ceilings independent of any baseline (mirror the bench asserts).
ABSOLUTE_MAX = {
    "empty_plan_overhead": 1.05,
    "campaign_checkpoint_overhead": 1.05,
    "trace_disabled_overhead": 1.05,
    "largen_ms_ratio_n1e6_over_n1e5": 25.0,
    "async_vs_sync_round_ratio": 6.0,
    "sparse_round_n_scaling": 3.0,
    "relabel_over_rebuild": 1.0,
    "graph_build_peak_ratio_n2e18": 2.4,
}

#: (metric, higher_is_better) pairs gated against the baseline median.
GATED = (
    ("churn_trial_speedup", True),
    ("permuted_over_static", False),
    ("empty_plan_overhead", False),
    ("campaign_checkpoint_overhead", False),
    ("trace_disabled_overhead", False),
    ("sparse_round_n_scaling", False),
    ("largen_ms_ratio_n1e6_over_n1e5", False),
    ("async_vs_sync_round_ratio", False),
    ("tournament_cell_throughput", True),
    ("masked_over_unmasked_pick", False),
    ("relabel_over_rebuild", False),
)

#: Absolute (machine-dependent) context values that must exist in the
#: current record — their producing benches must have run — but whose
#: magnitudes are not compared against the baseline.
REQUIRED_PRESENT = (
    "ms_per_round_n1e5",
    "ms_per_round_n1e6",
    "pool_cpu_count",
    "async_events_per_sec",
    "live_rounds_per_sec_n64",
    "live_rounds_per_sec_n256",
    "graph_build_ms_n2e18",
    "single_static_round_us",
    "single_relabel_round_us",
    "sparse_frontier_speedup",
    "largen_trial_s",
    "graph_build_peak_ratio_n2e18",
)


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token!r} is not RFC 8259")


def strict_loads(text: str):
    """Parse ``text`` as strict RFC 8259 JSON (``Infinity``/``NaN`` raise)."""
    return json.loads(text, parse_constant=_reject_constant)


def strict_parse_files(paths: list[Path]) -> int:
    """Strict-parse each file; report per-file verdicts, return #failures."""
    failures = 0
    for extra in paths:
        try:
            strict_loads(extra.read_text())
        except (OSError, ValueError) as exc:
            print(f"STRICT-PARSE FAIL {extra}: {exc}")
            failures += 1
        else:
            print(f"strict-parse ok {extra}")
    return failures

#: The pooled-campaign floor only applies on runners with this many CPUs.
PARALLEL_SPEEDUP_MIN = 2.0
PARALLEL_MIN_CPUS = 4


def _trend_table(rows: list[tuple[str, str, str, str, str]]) -> str:
    """Render ``(metric, baseline, current, delta, status)`` rows aligned."""
    header = ("metric", "baseline", "current", "delta", "status")
    table = [header, *rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = []
    for i, row in enumerate(table):
        lines.append(
            "  ".join(
                cell.ljust(widths[j]) if j == 0 else cell.rjust(widths[j])
                for j, cell in enumerate(row)
            ).rstrip()
        )
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def check(path: Path) -> int:
    try:
        data = strict_loads(path.read_text())
    except ValueError as exc:
        print(f"{path}: not strict RFC 8259 JSON: {exc}")
        return 1
    records = data.get("records", [])
    if not records:
        print(f"{path}: no records; nothing to check")
        return 1
    current = records[-1]
    if len(records) == 1:
        print(f"{path}: single record (no committed baseline); pass")
        return 0
    prior = records[:-1]
    print(
        f"baseline: per-metric median of {len(prior)} committed record(s) "
        f"({prior[0]['commit']}..{prior[-1]['commit']}) vs "
        f"current {current['commit']} ({current['date']})"
    )

    def baseline_for(key: str) -> float | None:
        values = [r[key] for r in prior if r.get(key) is not None]
        return statistics.median(values) if values else None

    failures: list[str] = []
    rows: list[tuple[str, str, str, str, str]] = []

    def row(key, base, cur, status):
        delta = "-" if base is None or cur is None else f"{(cur - base) / base * 100:+.1f}%"
        rows.append(
            (
                key,
                "-" if base is None else f"{base:.3f}",
                "-" if cur is None else f"{cur:.3f}",
                delta,
                status,
            )
        )

    for key in REQUIRED_PRESENT:
        cur, cap = current.get(key), ABSOLUTE_MAX.get(key)
        if cur is None:
            failures.append(f"{key}: missing from current record")
            row(key, None, None, "MISSING")
        elif cap is not None and cur > cap:
            failures.append(f"{key}: {cur:.3f} > absolute cap {cap:.3f}")
            row(key, baseline_for(key), cur, f"REGRESSION (cap {cap:g})")
        else:
            row(key, baseline_for(key), cur, "context")

    for key, higher_is_better in GATED:
        base, cur = baseline_for(key), current.get(key)
        if cur is None:
            failures.append(f"{key}: missing from current record")
            row(key, base, None, "MISSING")
            continue
        cap = ABSOLUTE_MAX.get(key)
        if cap is not None and cur > cap:
            failures.append(f"{key}: {cur:.3f} > absolute cap {cap:.3f}")
            row(key, base, cur, f"REGRESSION (cap {cap:g})")
            continue
        if base is None:
            # Metric newer than the baseline record: nothing to compare
            # against yet; the next committed record becomes its baseline.
            row(key, None, cur, "ok (new metric)")
            continue
        if higher_is_better:
            ok = cur >= base * (1 - TOLERANCE)
        else:
            ok = cur <= base * (1 + TOLERANCE)
        row(key, base, cur, "ok" if ok else "REGRESSION")
        if not ok:
            failures.append(f"{key}: {cur:.3f} vs baseline {base:.3f}")

    # The parallel-plane speedup: absolute conditional floor, never
    # baseline-relative (the baseline may mix runners with different core
    # counts).
    key = "campaign_parallel_speedup"
    cur, cpus = current.get(key), current.get("pool_cpu_count")
    if cur is None:
        failures.append(f"{key}: missing from current record")
        row(key, None, None, "MISSING")
    elif cpus is not None and cpus >= PARALLEL_MIN_CPUS:
        if cur >= PARALLEL_SPEEDUP_MIN:
            row(key, None, cur, f"ok ({cpus:g} CPUs)")
        else:
            failures.append(
                f"{key}: {cur:.3f} < floor {PARALLEL_SPEEDUP_MIN:.1f} "
                f"on a {cpus:g}-CPU runner"
            )
            row(key, None, cur, f"REGRESSION (floor {PARALLEL_SPEEDUP_MIN:g})")
    else:
        row(key, None, cur, f"context (<{PARALLEL_MIN_CPUS} CPUs)")

    print(_trend_table(rows))
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    default = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else default
    status = check(target)
    if strict_parse_files([Path(p) for p in sys.argv[2:]]):
        status = 1
    sys.exit(status)
