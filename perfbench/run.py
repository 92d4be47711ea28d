"""Benchmark entry point: one workload, one seed, drift-corrected timings.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-batched --seed 1 --seconds 20 --trace 0

The run sets up the workload's inputs several times, then repeats passes
over its timed units until ``--seconds`` have elapsed.  Every set-up and
every unit is bracketed by the calibration kernel of :mod:`calib` and
reported in reference-speed seconds, as the median over repetitions.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced repetitions and prints the per-layer
metrics of the traced ones, plus the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Working files of a run (campaign checkpoints, span dumps); gitignored.
WORK_DIR = ROOT / ".perfbench"

#: Set-ups per run; their median is ``setup_s``.
SETUPS = 3
#: Fewest passes per run (per side when tracing alternates).
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "node_rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}
LAYER_UNITS = {
    "csrops.pick_s": "s",
    "csrops.pick_calls": "count",
    "csrops.accept_s": "s",
    "csrops.accept_in": "count",
    "csrops.accepts": "count",
    "csrops.accept_ratio": "ratio",
    "csrops.bytes_computed": "B",
    "csrops.frontier_s": "s",
    "core.step_self_s": "s",
    "core.rounds": "count",
    "core.node_rounds": "count",
    "core.ms_per_round": "ms",
    "core.sparse_rounds": "count",
    "core.dense_rounds": "count",
    "algorithms.tags_s": "s",
    "algorithms.senders_s": "s",
    "algorithms.exchange_s": "s",
    "algorithms.converged_s": "s",
    "algorithms.protocol_s": "s",
    "graphs.advance_s": "s",
    "graphs.advance_calls": "count",
    "graphs.build_s": "s",
    "faults.apply_s": "s",
    "faults.dropped": "count",
    "faults.down_node_rounds": "count",
    "asyncsim.events": "count",
    "asyncsim.busy_s": "s",
    "asyncsim.events_per_s": "1/s",
    "harness.experiment_s": "s",
    "harness.checkpoint_s": "s",
    "harness.checkpoint_bytes": "B",
    "harness.verify_s": "s",
    "harness.trials": "count",
    "harness.retries": "count",
    "harness.cell_elapsed_s": "s",
    "bench.cal_ms": "ms",
    "bench.speed_factor": "ratio",
    "bench.raw_wall_s": "s",
    "bench.raw_setup_s": "s",
    "bench.trace_overhead": "ratio",
}


class Segments:
    """Back-to-back timed segments, each bracketed by calibration samples.

    A segment runs from the previous :meth:`mark` (or construction) to the
    next one.  The calibration sample taken at a mark closes one segment
    and opens the next, so each sample brackets two neighbours.
    """

    def __init__(self, cal_ref: dict[str, float], weights: dict[str, float], tracer=None):
        import calib

        self._calib = calib
        self.cal_ref = cal_ref
        self.weights = weights
        self.tracer = tracer
        #: (label, raw_s, calibration before, calibration after, layer totals)
        self.rows: list[tuple[str, float, dict, dict, dict]] = []
        self._cal = calib.measure()
        self._start = time.perf_counter()

    def mark(self, label: str) -> None:
        raw = time.perf_counter() - self._start
        layer = self.tracer.take() if self.tracer is not None else {}
        cal = self._calib.measure()
        self.rows.append((label, raw, self._cal, cal, layer))
        self._cal = cal
        self._start = time.perf_counter()

    def factor(self, row) -> float:
        """Reference-speed seconds per raw second of a segment."""
        return self._calib.speed_factor(row[2], row[3], self.cal_ref, self.weights)

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per label: (reference-speed seconds, raw seconds)."""
        corr: dict[str, float] = defaultdict(float)
        raw: dict[str, float] = defaultdict(float)
        for row in self.rows:
            corr[row[0]] += row[1] * self.factor(row)
            raw[row[0]] += row[1]
        return corr, raw

    def layer(self) -> dict[str, float]:
        """Summed layer totals, times scaled to reference speed."""
        out: dict[str, float] = defaultdict(float)
        for row in self.rows:
            f = self.factor(row)
            for key, value in row[4].items():
                out[key] += value * f if key.endswith("_s") else value
        return out


def _median_sum(per_label: dict[str, list[float]]) -> float:
    return sum(statistics.median(v) for v in per_label.values())


def fingerprint(cal_ref: dict[str, float], cal_samples: list[dict]) -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "cal_ref_ms": {k: round(v * 1e3, 4) for k, v in cal_ref.items()},
        "cal_ms": {
            k: round(statistics.median(s[k] for s in cal_samples) * 1e3, 4)
            for k in cal_ref
        },
    }


def _git_sha() -> str:
    """HEAD commit read from ``.git`` without running git ("none" outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        import workloads

        self.reference = json.loads((HERE / "reference.json").read_text())
        self.cal_ref = {k: float(v) for k, v in self.reference["cal_ref_s"].items()}
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.scratch = WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
        self.workload = workloads.make(workload, self.scratch)
        self.band_ref = self.reference["rounds"].get(self.workload.name, {})
        self.weights = self.reference["kernel_weights"][self.workload.name]
        self.attempted = self.failed = 0
        self.notes: list[str] = []
        self.median_rounds: dict[str, float] = {}
        self.cal_samples: list[dict] = []
        self.factors: list[float] = []
        self.tracer = None

    # -- repetitions ---------------------------------------------------------

    def _segments(self, traced: bool) -> Segments:
        return Segments(self.cal_ref, self.weights, self.tracer if traced else None)

    def _close(self, seg: Segments) -> None:
        for row in seg.rows:
            self.cal_samples += [row[2], row[3]]
            self.factors.append(seg.factor(row))

    def _import(self) -> tuple[float, float]:
        seg = self._segments(False)
        import repro.core  # noqa: F401
        import repro.harness  # noqa: F401
        import repro.util.csrops  # noqa: F401

        seg.mark("import")
        self._close(seg)
        corr, raw = seg.times()
        return corr["import"], raw["import"]

    def _setup(self, traced: bool):
        if traced:
            self.tracer.install()
        try:
            seg = self._segments(traced)
            inputs = self.workload.setup(self.seed)
            seg.mark("setup")
        finally:
            if traced:
                self.tracer.restore()
        self._close(seg)
        return inputs, seg

    def _pass(self, inputs, traced: bool):
        from tracing import WorkCounter

        counter = None
        if traced:
            self.tracer.install()
        elif self.workload.name == "campaign-quick":
            counter = WorkCounter().install()
        try:
            seg = self._segments(traced)
            outs = []
            for label, run in self.workload.units(inputs):
                outs.append((label, run(seg)))
                seg.mark(label)
        finally:
            if traced:
                self.tracer.restore()
            if counter is not None:
                counter.restore()
        self._close(seg)
        node_rounds, extra = self._check(inputs, outs, seg)
        counted = (
            seg.layer().get("core.node_rounds", 0) if traced
            else counter.node_rounds if counter is not None else None
        )
        if counted is not None and self.workload.name == "campaign-quick":
            node_rounds = counted
        elif counted is not None and counted != node_rounds:
            self.attempted += 1
            self.failed += 1
            self.notes.append(f"traced node-rounds {counted} != engine results {node_rounds}")
        return seg, node_rounds, extra

    def _check(self, inputs, outs, seg: Segments) -> tuple[int, dict]:
        from repro.conformance.differential import TIER_RATIO_BAND

        lo, hi = TIER_RATIO_BAND
        node_rounds, extra = 0, defaultdict(float)
        factors = {row[0]: seg.factor(row) for row in seg.rows}
        for label, out in outs:
            outcome = self.workload.check(inputs, label, out)
            node_rounds += outcome.node_rounds
            self.attempted += outcome.attempted
            self.failed += outcome.failed
            self.notes += outcome.notes
            extra["harness.retries"] += outcome.retries
            for cell, elapsed in outcome.cell_elapsed_s.items():
                extra["harness.cell_elapsed_s"] += elapsed * factors.get(cell, 1.0)
            extra["connections"] += outcome.connections
            if not outcome.rounds:
                continue
            median = statistics.median(outcome.rounds)
            self.median_rounds[label] = median
            recorded = self.band_ref.get(label)
            if recorded is not None:
                self.attempted += 1
                if not lo * recorded <= median <= hi * recorded:
                    self.failed += 1
                    self.notes.append(
                        f"{label}: median rounds {median} outside "
                        f"[{lo}, {hi}] x recorded {recorded}"
                    )
        return node_rounds, dict(extra)

    # -- the run -------------------------------------------------------------

    def run(self) -> dict:
        import calib
        from tracing import Tracer

        begin = time.perf_counter()
        for _ in range(3):
            calib.measure()  # warm the kernel's code paths and caches
        if self.trace:
            self.tracer = Tracer()
        import_s, import_raw = self._import()
        setups = {False: [], True: []}
        inputs = None
        for k in range(SETUPS):
            traced = self.trace and k % 2 == 1
            inputs, seg = self._setup(traced)
            setups[traced].append(seg)
        units = {False: defaultdict(list), True: defaultdict(list)}
        raw_units = defaultdict(list)
        node_rounds = {False: [], True: []}
        layers, extras = [], []
        k = 0
        while True:
            count = {side: len(node_rounds[side]) for side in (False, True)}
            enough = count[False] >= MIN_PASSES and (
                not self.trace or count[True] >= MIN_TRACED_PASSES
            )
            if enough and time.perf_counter() - begin >= self.seconds:
                break
            traced = self.trace and k % 2 == 1
            k += 1
            seg, nr, extra = self._pass(inputs, traced)
            corr, raw = seg.times()
            for label, value in corr.items():
                units[traced][label].append(value)
            if not traced:
                for label, value in raw.items():
                    raw_units[label].append(value)
            node_rounds[traced].append(nr)
            if traced:
                layer = seg.layer()
                layer.update((key, layer.get(key, 0.0) + value)
                             for key, value in extra.items())
                layers.append(layer)
            extras.append(extra)
        shutil.rmtree(self.scratch, ignore_errors=True)

        def setup_s(traced: bool, raw: bool = False) -> float:
            times = [seg.times()[1 if raw else 0]["setup"] for seg in setups[traced]]
            return (import_raw if raw else import_s) + statistics.median(times)

        pass_s = _median_sum(units[False])
        wall_s = setup_s(False) + pass_s
        if len(set(node_rounds[False] + node_rounds[True])) != 1:
            self.failed += 1
            self.attempted += 1
            self.notes.append(f"work differs between passes: {node_rounds}")
        if not self.trace:
            metrics = {
                "wall_s": wall_s,
                "setup_s": setup_s(False),
                "node_rounds_per_s": statistics.median(node_rounds[False]) / pass_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_share": 1.0 - self.failed / max(self.attempted, 1),
            }
            units_of = E2E_UNITS
        else:
            metrics = self._layer_metrics(setups[True][0].layer(), layers)
            metrics["bench.raw_wall_s"] = setup_s(False, raw=True) + _median_sum(raw_units)
            metrics["bench.raw_setup_s"] = setup_s(False, raw=True)
            traced_wall = setup_s(True) + _median_sum(units[True])
            metrics["bench.trace_overhead"] = traced_wall / wall_s
            units_of = LAYER_UNITS
        metrics["bench.cal_ms"] = statistics.median(
            sum(sample.values()) for sample in self.cal_samples
        ) * 1e3
        metrics["bench.speed_factor"] = statistics.median(self.factors)
        context = {
            "raw_wall_s": setup_s(False, raw=True) + _median_sum(raw_units),
            "raw_setup_s": setup_s(False, raw=True),
            "passes": {"untraced": len(node_rounds[False]), "traced": len(node_rounds[True])},
            "node_rounds_per_pass": node_rounds[False][0],
            "connections_per_pass": extras[0].get("connections", 0),
            "median_rounds": self.median_rounds,
            "speed_factor": metrics["bench.speed_factor"],
            "fingerprint": fingerprint(self.cal_ref, self.cal_samples),
        }
        if not self.trace:
            metrics = {key: metrics[key] for key in E2E_UNITS}
        else:
            WORK_DIR.mkdir(exist_ok=True)
            spans = WORK_DIR / f"spans-{self.workload.name}-seed{self.seed}.tsv"
            self.tracer.write_spans(str(spans))
            context["spans"] = str(spans.relative_to(ROOT))
        for note in self.notes:
            print(f"FAILED CHECK: {note}", file=sys.stderr)
        for key, value in metrics.items():
            print(f"{key} {value:.6g} {units_of[key]}")
        print(json.dumps({"context": context}))
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                key: {"value": value, "unit": units_of[key]} for key, value in metrics.items()
            },
        }

    def _layer_metrics(self, setup_layer: dict, layers: list[dict]) -> dict:
        """Per-layer values of one set-up plus one pass (median over passes)."""
        keys = set(LAYER_UNITS) | set(setup_layer)
        for layer in layers:
            keys |= set(layer)
        per_pass = {
            key: statistics.median(layer.get(key, 0.0) for layer in layers) for key in keys
        }
        m = {key: setup_layer.get(key, 0.0) + per_pass[key] for key in keys}
        m["csrops.accept_ratio"] = m["csrops.accepts"] / m["csrops.accept_in"] if m[
            "csrops.accept_in"] else 0.0
        m["core.ms_per_round"] = (
            1e3 * m.get("core.step_s", 0.0) / m["core.rounds"] if m["core.rounds"] else 0.0
        )
        m["asyncsim.events_per_s"] = (
            m["asyncsim.events"] / m["asyncsim.busy_s"] if m["asyncsim.busy_s"] else 0.0
        )
        return {key: m.get(key, 0.0) for key in LAYER_UNITS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = Bench(args.workload, args.seed, args.seconds, bool(args.trace)).run()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
