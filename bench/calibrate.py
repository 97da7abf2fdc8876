"""Speed calibration against a fixed loop of exact rational arithmetic.

On a shared host a vCPU runs up to 60 % slower for seconds at a time.  The
benchmark therefore measures the speed of a fixed loop of ``Fraction``
arithmetic (the probe) around every unit of work and, from a timer signal,
every TICK_S seconds during it.  A unit's time is multiplied by PROBE_REF_S
over the mean probe time of its window, so it reads as seconds at the speed
at which the probe takes PROBE_REF_S: its uncontended time on a 2-vCPU Xeon
VM.  The probe code is the same for every revision of the library, so the
scaling cancels when a parent and a change are compared.  Time spent in
timer probes is taken out of the unit's time.
"""

import signal
import statistics
import time
from fractions import Fraction

PROBE_TERMS = 400
PROBE_REF_S = 0.0015
TICK_S = 0.25
_THREE_SEVENTHS = Fraction(3, 7)


def probe():
    """Seconds for the calibration loop: the faster of two runs."""
    best = None
    for _ in range(2):
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, PROBE_TERMS):
            acc += Fraction(i, i + 1) * _THREE_SEVENTHS
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


class Calibrator:
    """Probe log of one run; ``timed`` measures and scales one unit."""

    def __init__(self):
        self.probes = []
        self._spent_wall = 0.0
        self._spent_cpu = 0.0
        self._busy = False
        self._previous = None

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        if self._busy:
            return
        wall, cpu = time.perf_counter(), time.process_time()
        self._record()
        self._spent_wall += time.perf_counter() - wall
        self._spent_cpu += time.process_time() - cpu

    def _record(self):
        self._busy = True
        try:
            self.probes.append(probe())
        finally:
            self._busy = False

    def mark(self):
        """A probe at a unit boundary."""
        self._record()

    def timed(self, fn):
        """(output or exception, wall s, CPU s, scale) for one call.

        The window is the boundary probe before the call, the timer probes
        during it and a boundary probe after it.
        """
        first = len(self.probes) - 1
        spent_wall, spent_cpu = self._spent_wall, self._spent_cpu
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            output = fn()
        except Exception as exc:  # handed back; the caller records it
            output = exc
        wall = time.perf_counter() - wall - (self._spent_wall - spent_wall)
        cpu = time.process_time() - cpu - (self._spent_cpu - spent_cpu)
        self.mark()
        window = self.probes[max(first, 0):]
        return output, wall, cpu, PROBE_REF_S / statistics.fmean(window)
