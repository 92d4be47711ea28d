"""Smoke tests: every example script runs end-to-end at a tiny size.

Examples are the public face of the library; these tests run each one in
a subprocess with minimal parameters so a packaging or API regression in
any example fails CI rather than a reader's first experience.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, *args: str, timeout: int = 600) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "16", "4")
        assert "blind gossip" in out and "bit convergence" in out

    def test_festival_mesh(self):
        out = run_example("festival_mesh.py", "16")
        assert "Festival mesh" in out and "yes" in out

    def test_censorship_broadcast(self):
        out = run_example("censorship_resilient_broadcast.py", "3")
        assert "classical model" in out

    def test_network_merge(self):
        out = run_example("network_merge.py", "8")
        assert "merge rounds" in out

    def test_adversarial_churn(self):
        out = run_example("adversarial_churn.py", "8")
        assert "adaptive tau=1" in out

    def test_sensor_aggregation(self):
        out = run_example("sensor_aggregation.py", "16")
        assert "median rounds" in out

    def test_compare_algorithms(self):
        out = run_example("compare_algorithms.py", "1")
        assert "clique" in out and "classical baseline" in out
