"""Host-speed correction for the end-to-end timings.

The benchmark runs on a few virtual CPUs of a shared host, whose speed
for the same Python code changes by up to about 1.9x within seconds, as
other tenants come and go; process CPU time slows with wall time, so it
does not help.  A run of a few dozen seconds then reads up to 40% faster
or slower than the next one, on the same code and the same inputs.

The correction is measured while the program runs.  A short, fixed
stdlib ``Fraction`` loop (the probe, about 1 ms at full speed) is timed
right before and right after every timed interval, and every
``PERIOD_S`` of process CPU time during it, from a SIGPROF handler.  The
interval's own time is its wall time less the time spent in probes, and
its reference time is that own time scaled by ``REF_PROBE_S`` over the
mean probe time seen around and inside the interval: the seconds the
interval would have taken with the probe at ``REF_PROBE_S``, the probe's
time on an uncontended core of a 2-vCPU Xeon host.  The probe runs the
same kind of code as the program (``Fraction`` arithmetic in the
interpreter), so a slow host slows both alike, while a change to the
program cannot change the probe.

Both times of every interval are kept: the reference time feeds the
bounded metrics, and the wall time is printed and recorded beside it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PROBE_ITERATIONS = 200
PERIOD_S = 0.1
REF_PROBE_S = 0.001


def probe(iterations: int = PROBE_ITERATIONS) -> float:
    """Seconds taken by the fixed probe loop."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, iterations + 1):
        acc += Fraction(i % 97 + 1, i) * Fraction(i + 1, i % 89 + 2)
        acc = Fraction(acc.numerator % 1000003, acc.denominator % 999983 + 1)
    return time.perf_counter() - start


class HostSpeed:
    """Probes the host while started; ``timed`` runs one interval."""

    def __init__(self):
        # (start, probe seconds, seconds the probe cost), in time order
        self.samples: list[tuple[float, float, float]] = []
        self.busy = False

    def _sample(self, *_):
        if self.busy:       # a timer signal that arrived during a probe
            return
        self.busy = True
        try:
            start = time.perf_counter()
            took = probe()
            self.samples.append((start, took, time.perf_counter() - start))
        finally:
            self.busy = False

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def timed(self, fn, *args):
        """fn(*args) with its wall and reference seconds, probes excluded:
        returns (result, wall_s, ref_s)."""
        first = len(self.samples)
        self._sample()
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        self._sample()
        around = self.samples[first:]
        wall = end - start - sum(spent for t, _, spent in around
                                 if start <= t < end)
        speed = statistics.fmean(took for _, took, _ in around)
        return result, wall, wall * REF_PROBE_S / speed
