"""Times in reference seconds: wall time corrected for how fast the machine ran.

On a shared virtual machine the same code runs up to about 1.8 times slower
while another tenant loads the physical core.  Such phases come and go
within a fraction of a second, their share of the time drifts over minutes,
and the guest sees no steal time for them, so wall times of identical runs
differ by a third and more.

``SpeedProbe`` samples the machine's speed while the workload runs: a
timer signal interrupts the workload every ``INTERVAL_S`` seconds and the
handler times a fixed piece of reference work (``probe_work``).  The
reference is the benchmark's own code and never calls the library, so a
change to the library cannot move it; like the library it mixes
interpreted Python with numpy calls on lane arrays, so the phases slow both
by about as much.  ``reference_seconds`` turns a wall-clock interval into
the time its work would take at the nominal probe speed: the wall time
outside the probes, each stretch weighted by the speed measured on either
side of it.
"""
from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np

INTERVAL_S = 0.025
# A set-up lasts about 0.3 s, so its probe samples more often.
SETUP_INTERVAL_S = 0.01
# A set-up (starting an interpreter, reading and unmarshalling modules,
# writing input files) slows less in a slow phase than the probe does:
# measured on the tuning machine, its wall time grew 1.45 to 1.55 times
# while the probe's grew 1.75 to 1.8 times.  Scaling set-up time by the
# probe speed to this power, log(1.5) / log(1.78), corrects for the phase
# without over-correcting.
SETUP_SENSITIVITY = 0.7
# The probe's usual time, in seconds, on the 2-vCPU Intel Xeon virtual
# machine the benchmark was tuned on (about 0.2 ms when the core is not
# shared, 0.35 ms when it is).  It only sets the scale: reference seconds
# read close to wall seconds there.
NOMINAL_S = 3.0e-4

_LANES = 1000
_Z = np.linspace(0.02, 0.98, _LANES)
_A = np.linspace(0.5, 40.0, _LANES)


def probe_work() -> float:
    """A fixed piece of reference work: a Python loop, then a few lane-wise
    numpy steps shaped like the library's series evaluations."""
    acc = 0.0
    for i in range(300):
        x = (i % 17) * 0.05 + 0.5
        acc += math.log(x) * x - math.sqrt(x)
    term = np.ones(_LANES)
    total = np.zeros(_LANES)
    for k in range(1, 13):
        term = term * _Z * (_A + k) / (k + 1.0)
        total += np.where(term > 1e-12, term, 0.0)
    return acc + float(np.exp(-total).sum())


class SpeedProbe:
    """Samples speed from a SIGALRM timer every ``interval`` seconds while
    started (a context manager).

    Each probe is kept as its (start, end) and the seconds of its timed
    round; its speed is NOMINAL_S over those seconds.  The handler runs in
    the main thread between bytecodes, so a probe lies wholly inside or
    wholly outside any interval the caller times.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts: list = []
        self.ends: list = []
        self.seconds: list = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        # The workload has evicted the probe from the caches; the first
        # round reloads it and only the second is timed.
        t0 = time.perf_counter()
        probe_work()
        t1 = time.perf_counter()
        probe_work()
        t2 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t2)
        self.seconds.append(t2 - t1)

    def __enter__(self):
        probe_work()  # load the code paths before the first timed probe
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _speed(self, i: int) -> float:
        return NOMINAL_S / self.seconds[i]

    def reference_seconds(self, t0: float, t1: float, sensitivity: float = 1.0) -> float:
        """Reference seconds of the work done between t0 and t1.

        The probes inside [t0, t1] cut it into stretches of work.  Each
        stretch counts its length times the mean speed of the probes that
        bound it, raised to ``sensitivity``: how strongly the work slows in
        a slow phase, as a power of how strongly the probe slows.  The first
        and last stretch are bounded by the nearest probes outside.  With no
        probe at all the wall time is returned as is.
        """
        if not self.starts:
            return t1 - t0
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        n = len(self.starts)
        before = self._speed(lo - 1) if lo > 0 else self._speed(min(lo, n - 1))
        after = self._speed(hi) if hi < n else self._speed(max(hi - 1, 0))
        edges = [t0]
        speeds = [before]
        for i in range(lo, hi):
            edges += [self.starts[i], self.ends[i]]
            speeds.append(self._speed(i))
        edges.append(t1)
        speeds.append(after)
        total = 0.0
        for k in range(len(speeds) - 1):
            stretch = edges[2 * k + 1] - edges[2 * k]
            total += stretch * (0.5 * (speeds[k] + speeds[k + 1])) ** sensitivity
        return total

    def probe_seconds(self) -> float:
        """Wall seconds spent in the probes so far."""
        return sum(e - s for s, e in zip(self.starts, self.ends))

    def mean_speed(self) -> float:
        """The mean probe speed so far (1.0 with no probe)."""
        if not self.starts:
            return 1.0
        return sum(self._speed(i) for i in range(len(self.starts))) / len(self.starts)
