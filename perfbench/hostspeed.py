"""Wall times corrected for the speed of a shared host.

On a machine shared with other tenants the same pass of a workload can
take anywhere from 1x to 1.8x its usual time, and the host stays fast or
slow for seconds to minutes at a time.  A benchmark run cannot average
that away within its time budget.  So the benchmark also times a fixed
reference loop while the program runs, and reports *reference seconds*:
the measured time scaled by how fast the reference loop ran, relative to a
host on which it takes ``REFERENCE_S``.  A change to the program moves
its time but not the reference loop's, so it shows in full; a change in
host speed moves both and cancels.  Raw times are reported next to them.

While a :class:`Stopwatch` is running, a ``SIGALRM`` timer runs the
reference loop every ``PERIOD_S`` seconds in the measuring thread itself
(no extra thread), and the loop's own time is taken out of the measured
time.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

# Time of one reference loop on a quiet 2.1 GHz x86-64 host with CPython
# 3.11; it defines the unit, so it must never be re-tuned.
REFERENCE_S = 0.002
PERIOD_S = 0.2


def reference_loop() -> float:
    """Run the fixed reference loop; return its wall time."""
    t0 = perf_counter()
    acc, table = 0, {}
    for i in range(30_000):
        acc += i & 7
        table[i & 255] = acc
    return perf_counter() - t0


def speed(samples: list[float]) -> float:
    """Host speed relative to the reference host: 1 there, 0.5 at half."""
    return statistics.fmean(REFERENCE_S / s for s in samples)


class Stopwatch:
    """Times the program's calls and samples host speed meanwhile.

    May be entered several times; the regions add up.  One sample is taken
    just before and just after each region, outside the measured time.
    """

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.samples: list[float] = []
        self._sampling_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(reference_loop())
        self._sampling_s += perf_counter() - t0

    def __enter__(self) -> "Stopwatch":
        self.samples.append(reference_loop())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        # Disarm first, so every sample taken in a region is in its time.
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall_s += perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(reference_loop())

    @property
    def measured_s(self) -> float:
        """Wall time of the regions, less the time spent sampling."""
        return self.wall_s - self._sampling_s

    @property
    def reference_s(self) -> float:
        return self.measured_s * speed(self.samples)
