"""Operation times at a fixed reference host speed.

The benchmark runs on shared VMs whose speed changes by up to 1.8x, in
stretches of a few seconds and in slower drifts over minutes; a fixed
pure-Python loop shows the same swings in wall time and in process CPU
time, and the VMs expose no instruction counters.  A raw wall time then
says as much about the host as about dstar.  So the benchmark measures
the host's speed next to every operation, with a probe that runs no dstar
code, and reports each operation's time at a fixed reference speed:

- ProbeClock, for work done in this process.  A SIGALRM every
  PROBE_INTERVAL_S runs a fixed probe (dict updates and Fraction
  arithmetic, like dstar's inner loops).  The probe's own time is taken
  out of the operation's wall time, and the rest is scaled by
  PROBE_REF_S / probe duration, averaged over the probes that ran during
  the operation (the speed averaged over time) and PROBE_MARGIN probes on
  either side of it, so that a short operation gets the speed of the
  stretch around it.
- ProcessClock, for a child process.  The probe does not track how fast
  a process starts, so each child is paired with a bare `python -c pass`
  started just before it, and the child's wall time is scaled by
  INTERP_REF_S / that start time.

The reference figures are round values close to what a 2-vCPU Xeon VM
(Python 3.11) gives in its usual state, so reference seconds read like
wall seconds there.  A change to dstar moves an operation's reference
time in proportion to its wall time; only the host's share is divided out.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

PROBE_REF_S = 0.0015        # the probe's duration at reference speed
PROBE_INTERVAL_S = 0.05
PROBE_MARGIN = 5
INTERP_REF_S = 0.05         # a bare interpreter's start at reference speed


def probe():
    """Fixed work with no dstar in it: about 1.5 ms of dict and Fraction updates."""
    table = {}
    third = Fraction(1, 3)
    for i in range(300):
        key = (i % 17, (i, i + 1))
        table[key] = table.get(key, 0) + third * i
    return table


class WallClock:
    """Raw wall time; the reference time is the wall time.

    start() before an operation and stop() after it give a mark, whose
    first item is the wall time; reference() turns the marks of a timed
    phase into reference times once the phase is over.
    """

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def start(self):
        return perf_counter()

    def stop(self, token):
        wall = perf_counter() - token
        return wall, wall

    def reference(self, marks):
        return [ref for _, ref in marks]


class ProbeClock(WallClock):
    """In-process work, scaled by a probe that runs from a timer signal."""

    def __init__(self):
        self.speeds = []        # PROBE_REF_S / duration of each probe
        self.probe_s = 0.0      # wall time spent in the probe so far
        self._previous = None
        for _ in range(PROBE_MARGIN + 3):     # warm the probe; keep the last few
            self._tick()
        del self.speeds[:-PROBE_MARGIN]

    def _tick(self, signum=None, frame=None):
        start = perf_counter()
        probe()
        elapsed = perf_counter() - start
        self.speeds.append(PROBE_REF_S / elapsed)
        self.probe_s += elapsed

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def start(self):
        return len(self.speeds), self.probe_s, perf_counter()

    def stop(self, token):
        end = perf_counter()
        count, probe_s, start = token
        return end - start - (self.probe_s - probe_s), (count, len(self.speeds))

    def reference(self, marks):
        return [wall * statistics.fmean(self.speeds[max(0, first - PROBE_MARGIN):
                                                    last + PROBE_MARGIN])
                for wall, (first, last) in marks]


class ProcessClock(WallClock):
    """Child processes, each scaled by a bare interpreter started just before it."""

    def __init__(self, env):
        self.env = env

    def start(self):
        begin = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env,
                       stdin=subprocess.DEVNULL, capture_output=True, check=True, timeout=60)
        end = perf_counter()
        return INTERP_REF_S / (end - begin), end

    def stop(self, token):
        speed, start = token
        wall = perf_counter() - start
        return wall, wall * speed
