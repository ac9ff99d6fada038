"""A clock that factors the host's speed out of a measured time.

On a shared virtual machine the same pure-Python work runs up to 1.8x
slower while neighbours load the host, in phases of seconds to a minute;
CPU time slows down with wall time, so the cost is in the host, not in
scheduling. SpeedClock samples that speed: every INTERVAL_S a SIGALRM
handler times a fixed pure-Python calibration loop (CALIBRATION), and the
speed factor becomes REF_S over the median of the last three such times
(the median drops a sample that an interrupt lengthened; it is computed
without building a list, so the handler allocates no object the garbage
collector tracks and cannot start a collection that the clock would miss). The normalised
clock advances by the elapsed real time times the latest factor and stands
still while the handler runs, so a time measured with it is the time the
work would take at the reference speed, the calibration itself left out.
The loop touches no hcov code and allocates nothing the garbage collector
tracks, so a change to hcov cannot change the factor.

REF_S is the loop's time at full speed on the machine the benchmark was
written on (a 2-vCPU Intel Xeon VM, Python 3.11). On other hardware or
another Python every normalised time shifts by one common factor, which
cancels when two commits are compared on one machine.
"""

from __future__ import annotations

import signal
import statistics
import time

clock = time.perf_counter

CALIBRATION = 60_000  # loop iterations: about 5 ms at full speed
REF_S = 0.0040
INTERVAL_S = 0.2


def calibration_s():
    """Time one run of the calibration loop."""
    t0 = clock()
    s = 0
    for i in range(CALIBRATION):
        s += i * i % 7
    return clock() - t0


class SpeedClock:
    def __init__(self):
        self.norm = 0.0  # normalised seconds up to self.mark
        self.mark = clock()
        self.factor = 1.0
        self.paused = 0.0  # real seconds spent in the handler
        self.ticks = 0
        self.samples = []  # every calibration time
        # the two samples before the newest; floats, which the collector
        # does not track, unlike a tuple or list
        self.a = calibration_s()
        self.b = calibration_s()

    def _tick(self, *_):
        t0 = clock()
        self.norm += (t0 - self.mark) * self.factor
        a, b, c = self.a, self.b, calibration_s()
        self.samples.append(c)
        self.a, self.b = b, c
        self.factor = REF_S / (a + b + c - max(a, b, c) - min(a, b, c))
        self.mark = clock()
        self.paused += self.mark - t0
        self.ticks += 1

    def read(self):
        """(normalised seconds, real seconds outside the handler)."""
        # A tick runs between two bytecodes of this thread; if one ran while
        # the fields were read, read them again.
        while True:
            ticks = self.ticks
            t = clock()
            value = (self.norm + (t - self.mark) * self.factor, t - self.paused)
            if ticks == self.ticks:
                return value

    def start(self):
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def raw_read():
    """The same pair as SpeedClock.read, without normalisation."""
    t = clock()
    return t, t


def setup_factor():
    """REF_S over the median of five calibration runs: scales one
    process's set-up time to the reference speed."""
    return REF_S / statistics.median(calibration_s() for _ in range(5))
