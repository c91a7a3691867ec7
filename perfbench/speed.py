"""A speed meter that takes the host's speed swings out of wall-clock timings.

On a shared host the same op can take half as long again while a neighbour
competes for the core, and such phases last from a fraction of a second
to minutes.  No choice of statistic over one run removes that.  While the
meter runs, an interval timer fires every ``INTERVAL_S`` seconds and its
handler times ``probe``, a fixed piece of pure-Python work that has nothing
to do with the program.  The probe runs on the same core, at the same
moments, as the code being measured.

An interval's normalised time is its wall time, less the probes that ran
inside it, scaled by ``REFERENCE_S`` over the median probe time near the
interval.  It reads as the time the interval would have taken on a host
where the probe takes ``REFERENCE_S``.  The normalisation is the same for
every commit, so ratios between commits are ratios of program speed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.02
# Roughly the probe's time on a quiet 2.1 GHz Xeon vCPU, so normalised
# times read close to the wall times of that host when nothing competes.
REFERENCE_S = 100e-6
# Probes this close to an interval also count towards its local speed, so
# that ops shorter than the timer interval still see a few probes.
PAD_S = 0.05


def probe() -> int:
    """Fixed interpreter work: arithmetic, a dict and a list."""
    table: dict[int, int] = {}
    items = []
    total = 0
    for i in range(500):
        key = (i * 7919) & 127
        table[key] = table.get(key, 0) + i
        total += i * i % 13
        if i & 7 == 0:
            items.append(total)
    return total + len(items)


class SpeedMeter:
    """Times ``probe`` every ``INTERVAL_S`` seconds of wall time while entered."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        probe()
        self.times.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedMeter":
        for _ in range(10):
            probe()  # let the interpreter specialise the probe before it is timed
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalised(self, start: float, end: float) -> float:
        """Seconds the interval [start, end] would take at the reference speed."""
        inside = slice(bisect.bisect_left(self.times, start), bisect.bisect_right(self.times, end))
        near = self.durations[bisect.bisect_left(self.times, start - PAD_S):
                              bisect.bisect_right(self.times, end + PAD_S)]
        local = statistics.median(near or self.durations)
        return (end - start - sum(self.durations[inside])) * REFERENCE_S / local
