#!/usr/bin/env python
"""CI gate: SIGKILL a quick-profile campaign partway, resume it, and diff
the resumed tables against the committed ``quick_results.txt``.

This is the executable form of the durability acceptance criterion:
killing ``repro experiments run-all`` at an arbitrary point and re-running
with ``--resume`` must complete the remaining experiments and produce
tables *bit-identical* to a campaign that was never interrupted (every
cell is deterministically seeded, so cell-set identity implies table
identity).  The reference tables are the archive's sections, read with
:func:`~repro.harness.campaign.read_campaign_text`; the archive is
itself an uninterrupted serial run, which CI diffs against a fresh one.

With ``--pool-workers K`` the killed and resumed campaigns fork their
cells in waves ``K`` wide (each child inheriting the parent's objects
copy-on-write and free to fork its own trial waves); the serial
reference makes the diff prove kill-resume durability *and*
pooled/serial table parity at once.

The gate fails when it would prove nothing: if the campaign exits
before the SIGKILL lands, or the resume re-runs no cell, the resumed
tables are just the killed run's own checkpoints.  It prints how many
cells re-ran on resume.

Usage::

    PYTHONPATH=src python benchmarks/check_kill_resume.py [--cells E1,A3,E13]
        [--pool-workers K]

Exit status 0 when every resumed table matches the archive, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_CELLS = "E1,A3,E19,E13"


def spawn_campaign(
    checkpoint_dir: Path,
    cells: str,
    *,
    resume: bool,
    pool_workers: int | None = None,
) -> subprocess.Popen:
    cmd = [
        sys.executable, "-m", "repro", "experiments", "run-all",
        "--only", cells, "--checkpoint-dir", str(checkpoint_dir),
        "--backoff-base", "0",
    ]
    if pool_workers is not None:
        cmd += ["--pool-workers", str(pool_workers)]
    if resume:
        cmd.append("--resume")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cells", default=DEFAULT_CELLS)
    parser.add_argument(
        "--kill-after", type=int, default=1, metavar="N",
        help="SIGKILL the campaign once N checkpoints exist",
    )
    parser.add_argument(
        "--pool-workers", type=int, default=None, metavar="K",
        help="run the killed/resumed campaigns in forked waves K wide "
        "(the archived reference is a serial run)",
    )
    args = parser.parse_args()
    sys.path.insert(0, str(REPO / "src"))
    from repro.harness.campaign import checkpoint_path, read_campaign_text
    from repro.harness.persistence import load_document

    cells = tuple(args.cells.split(","))
    # 1. Reference tables: the committed uninterrupted serial run.
    archived = read_campaign_text((REPO / "quick_results.txt").read_text())

    with tempfile.TemporaryDirectory(prefix="kill-resume-") as tmp:
        tmp = Path(tmp)

        # 2. Campaign killed partway through.
        killed_dir = tmp / "killed"
        proc = spawn_campaign(
            killed_dir, args.cells, resume=False, pool_workers=args.pool_workers
        )
        deadline = time.monotonic() + 300
        try:
            while time.monotonic() < deadline and proc.poll() is None:
                done = sum(
                    checkpoint_path(killed_dir, c, "quick").exists() for c in cells
                )
                if done >= args.kill_after:
                    break
                time.sleep(0.02)
            if proc.poll() is None:
                print(f"[kill] SIGKILL after {done} checkpoint(s)", flush=True)
                proc.send_signal(signal.SIGKILL)
        finally:
            returncode = proc.wait(timeout=120)
        if returncode != -signal.SIGKILL:
            print(
                f"FAIL: the campaign exited (status {returncode}) before the "
                "SIGKILL landed, so no cell would re-run on resume"
            )
            return 1
        survivors = [c for c in cells if checkpoint_path(killed_dir, c, "quick").exists()]
        print(f"[kill] checkpoints surviving the kill: {survivors}", flush=True)
        if not survivors:
            print("FAIL: campaign produced no checkpoint before the kill")
            return 1

        # 3. Resume and diff.
        resume = spawn_campaign(
            killed_dir, args.cells, resume=True, pool_workers=args.pool_workers
        )
        out, _ = resume.communicate(timeout=600)
        print("\n".join(f"[resume] {line}" for line in out.strip().splitlines()), flush=True)
        if resume.returncode != 0:
            print(f"FAIL: resume exited {resume.returncode}")
            return 1
        rerun = [
            line.split(":", 1)[0] for line in out.splitlines() if ": completed in " in line
        ]
        print(f"[resume] {len(rerun)} cell(s) re-ran on resume: {rerun}", flush=True)
        if not rerun:
            print("FAIL: no cell re-ran on resume, so the diff proves nothing")
            return 1
        mismatches = []
        for c in cells:
            resumed = load_document(
                checkpoint_path(killed_dir, c, "quick")
            ).table.render()
            if resumed != archived[c]:
                mismatches.append(c)
        if mismatches:
            print(f"FAIL: resumed tables differ from quick_results.txt: {mismatches}")
            return 1
        print(
            f"PASS: {len(cells)} resumed tables bit-identical to quick_results.txt "
            f"({len(survivors)} cell(s) survived the kill, "
            f"{len(rerun)} re-ran on resume)"
        )
        return 0


if __name__ == "__main__":
    sys.exit(main())
