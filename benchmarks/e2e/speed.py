"""A speed probe: how fast is this machine *right now*?

The sandbox this benchmark runs in changes speed by itself: the same
pure-Python loop takes 95–119 ms per iteration across 5-s buckets on an
otherwise idle machine, in regimes that last seconds to minutes, and a
server's CPU seconds for identical work move with it.  Over ten runs
that is an inter-quartile spread of 0.10–0.24 on every timing — more
than any bound the benchmark could declare — and no estimator inside a
20-s run removes it (per-segment medians, best-bucket rates and CPU
pinning were tried).

So the harness measures the machine while it measures the server: a
child process runs a fixed arithmetic loop (≈ 5 ms) every 100 ms — 5% of
one CPU — and logs the loop's *CPU time*, which a preemption does not
inflate.  A phase's *speed factor* is the median of the samples taken
during it, divided by ``REFERENCE_MS``; timings of the phase are divided
by it, rates multiplied.  A factor of 1.15 says the machine ran 15%
slower than the reference while the phase was measured.  The loop is
code of this file only, so a change to the repository cannot move it.

Raw values are kept next to the normalised ones in every record.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

#: CPU milliseconds one burst takes on the seed machine in its fast
#: regime.  Only fixes the scale; comparisons between commits on one
#: machine do not depend on it.
REFERENCE_MS = 5.4
BURST_ITERATIONS = 100_000
GAP_S = 0.1


def _burst(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def _loop(path: str) -> None:
    with open(path, "w") as out:
        while True:
            cpu = time.process_time()
            _burst(BURST_ITERATIONS)
            cpu = time.process_time() - cpu
            out.write(f"{time.monotonic():.4f} {cpu * 1e3:.4f}\n")
            out.flush()
            time.sleep(GAP_S)


class SpeedProbe:
    """The child process and its log, read back by time window."""

    def __init__(self, log_path: Path) -> None:
        self.log_path = log_path
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(log_path)])

    def factor(self, start: float, end: float) -> float:
        """Speed factor over ``[start, end]`` (``time.monotonic()``);
        widened to the three nearest samples if the window is short."""
        samples = []
        for line in self.log_path.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2:
                samples.append((float(parts[0]), float(parts[1])))
        inside = [ms for at, ms in samples if start <= at <= end]
        if len(inside) < 3:
            middle = (start + end) / 2
            inside = [ms for _, ms in sorted(
                samples, key=lambda s: abs(s[0] - middle))[:3]]
        if not inside:
            return 1.0
        return statistics.median(inside) / REFERENCE_MS

    def stop(self) -> None:
        self.proc.kill()
        self.proc.wait()


if __name__ == "__main__":
    _loop(sys.argv[1])
