"""Fit a workload's calibration-kernel weights from a recorded trace.

Repeats passes of one workload in this process for ``--seconds``, with
every unit bracketed by the calibration kernels, then fits log unit time
as a linear function of the kernels' log times by least squares, each
unit label centred on its own means.  The slopes are the workload's
``kernel_weights`` in ``reference.json``.  It also prints each kernel's
median time, from which the reference times were taken.  From the
repository root, on a machine running nothing else::

    python3 perfbench/calibrate.py --workload large-n --seconds 300
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from run import HERE, ROOT, WORK_DIR, Segments


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=300)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import calib
    import workloads

    reference = json.loads((HERE / "reference.json").read_text())["cal_ref_s"]
    kernels = list(calib.KERNELS)
    workload = workloads.make(args.workload, WORK_DIR / f"calibrate-{args.workload}")
    inputs = workload.setup(args.seed)
    by_label: dict[str, list[list[float]]] = defaultdict(list)
    samples = []
    end = time.perf_counter() + args.seconds
    while time.perf_counter() < end:
        seg = Segments(reference, {})
        for label, run in workload.units(inputs):
            out = run(seg)
            seg.mark(label)
            workload.check(inputs, label, out)
        for label, raw, before, after, _ in seg.rows:
            by_label[label].append(
                [np.log((before[k] + after[k]) / 2) for k in kernels] + [np.log(raw)]
            )
            samples.append(before)
    blocks = [np.array(rows) for rows in by_label.values() if len(rows) >= 3]
    centred = np.vstack([b - b.mean(axis=0) for b in blocks])
    weights, *_ = np.linalg.lstsq(centred[:, :-1], centred[:, -1], rcond=None)
    fitted = centred[:, :-1] @ weights
    print(json.dumps({
        "workload": args.workload,
        "segments": len(centred),
        "kernel_median_s": {
            k: statistics.median(s[k] for s in samples) for k in kernels
        },
        "kernel_weights": {k: round(float(w), 3) for k, w in zip(kernels, weights)},
        "correlation": round(float(np.corrcoef(fitted, centred[:, -1])[0, 1]), 3),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
