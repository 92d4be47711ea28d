"""Run-to-run spread of the end-to-end metrics, raw and drift-corrected.

Runs ``perfbench/run.py`` once per seed for each workload, one process at
a time, and prints, per metric, the median and the interquartile range as
a share of the median (``statistics.quantiles(values, n=4)``).  The raw
columns repeat the same numbers without the calibration correction, so
the two spreads can be compared side by side.  From the repository root::

    python3 perfbench/steadiness.py --seeds 1-10 --seconds 20 \\
        --workloads sweep-batched,large-n --out steadiness.md
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    context = json.loads(lines[-2])["context"]
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result\n{proc.stderr}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["raw:wall_s"] = context["raw_wall_s"]
    values["raw:setup_s"] = context["raw_setup_s"]
    values["raw:node_rounds_per_s"] = values["node_rounds_per_s"] * (
        values["wall_s"] - values["setup_s"]
    ) / (context["raw_wall_s"] - context["raw_setup_s"])
    values["speed_factor"] = context["speed_factor"]
    return values


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", help="also write the report to this file")
    args = parser.parse_args()
    seeds = seeds_of(args.seeds)
    lines = [
        f"seeds {seeds}, --seconds {args.seconds}",
        "",
        "| workload | metric | median | spread | raw median | raw spread |",
        "|---|---|---|---|---|---|",
    ]
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, args.seconds))
            print(workload, seed, json.dumps(runs[-1]), file=sys.stderr, flush=True)
        for metric in ("wall_s", "setup_s", "node_rounds_per_s", "peak_rss_mb", "ok_share"):
            values = [r[metric] for r in runs]
            raw = [r.get(f"raw:{metric}") for r in runs]
            row = f"| {workload} | {metric} | {statistics.median(values):.6g} | {spread(values):.1%} |"
            if None in raw:
                row += " | |"
            else:
                row += f" {statistics.median(raw):.6g} | {spread(raw):.1%} |"
            lines.append(row)
        factors = [r["speed_factor"] for r in runs]
        lines.append(
            f"| {workload} | speed_factor | {statistics.median(factors):.4g} "
            f"| {spread(factors):.1%} | | |"
        )
    report = "\n".join(lines)
    print(report)
    if args.out:
        Path(args.out).write_text(report + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
