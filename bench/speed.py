"""The host's speed, sampled while the benchmark measures.

On a shared host the same run can take twice as long from one minute to
the next, because other tenants load the caches and memory of the machine.
A SpeedProbe runs this file as a separate process that times a fixed
pure-Python burst (Fraction arithmetic and dict updates, the kind of work
vlsym itself does) every PROBE_INTERVAL_S, while the measured children
run. A burst is timed in the probe's own CPU time, so a burst that waits
for a CPU the workload holds does not read as a slow host. The probe is a
process rather than a thread so that it never holds the benchmark's
interpreter lock while a measurement starts or ends; bursts are placed in
time with time.perf_counter, which is CLOCK_MONOTONIC on Linux and so
agrees across processes.

Durations measured in a window are scaled by REF_BURST_S over the median
burst time in that window, which gives them at reference speed: the speed
at which one burst takes REF_BURST_S, the median burst time on the 2-CPU
Xeon host the benchmark was written on while a workload ran. The probe
keeps under 10% of one CPU busy.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from statistics import median

REF_BURST_S = 0.006
PROBE_INTERVAL_S = 0.1
BURST_ITERATIONS = 1000
MIN_SAMPLES = 5


def burst() -> Fraction:
    acc: dict = {}
    total = Fraction(0)
    for i in range(1, BURST_ITERATIONS):
        f = Fraction(i % 89 + 1, i % 7 + 1)
        total += f
        key = (i % 31, i % 17)
        acc[key] = acc.get(key, 0) + f
    return total


class SpeedProbe:
    """Context manager that keeps the probe process running until it exits;
    `samples` then holds (start, duration) of every burst."""

    def __init__(self, log: Path):
        self.log = log
        self.samples: list[tuple[float, float]] = []

    def __enter__(self) -> "SpeedProbe":
        self._out = open(self.log, "w")
        self._proc = subprocess.Popen([sys.executable, __file__], stdout=self._out)
        return self

    def __exit__(self, *exc) -> None:
        self._proc.kill()
        self._proc.wait()
        self._out.close()
        lines = self.log.read_text().split("\n")[:-1]  # the last one may be cut
        self.samples = [(float(a), float(b)) for a, b in (line.split() for line in lines)]

    def scale(self, start: float, end: float) -> float:
        """Factor that takes a duration measured from start to end to
        reference speed. Uses the bursts that began in the window, or the
        MIN_SAMPLES nearest to it when the window holds fewer."""
        inside = [d for t, d in self.samples if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            mid = (start + end) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
            inside = [d for _, d in nearest]
        return REF_BURST_S / median(inside)


def main() -> None:
    while True:
        start, cpu = time.perf_counter(), time.thread_time()
        burst()
        sys.stdout.write(f"{start!r} {time.thread_time() - cpu!r}\n")
        sys.stdout.flush()
        time.sleep(PROBE_INTERVAL_S)


if __name__ == "__main__":
    main()
