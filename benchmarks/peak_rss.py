"""Run a command; report its wall time and peak resident set size.

Usage, from the repository root::

    python benchmarks/peak_rss.py python -m repro.cli simulate blind_gossip \\
        --family random_regular --params 1000000 8 --max-rounds 400

After the command exits, one line ``peak_rss: wall_s=<s> peak_rss_mb=<MB>``
goes to standard error, and the wrapper exits with the command's status.
The peak is ``getrusage(RUSAGE_CHILDREN).ru_maxrss``: the largest
resident set of any process the wrapper waited for, which is the
command itself unless it forks a larger child.  Linux reports it in KiB.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    start = time.perf_counter()
    status = subprocess.call(argv)
    wall = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"peak_rss: wall_s={wall:.2f} peak_rss_mb={peak_kib / 1024:.1f}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
