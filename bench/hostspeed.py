"""Host-speed calibration for the benchmark's timings.

On a small shared host the speed of one core drifts: a fixed pure-Python
loop has been seen to take anywhere from 1x to 2x its fastest time within one
minute, in phases that last from a fraction of a second to minutes, while no
CPU time is stolen from the process. The timed phases slow down with it, so
raw wall times of the same work spread by 15-40% from run to run.

``SpeedProbe`` times one phase and samples the host's speed with a short
fixed loop: a few times right before and right after the phase, and every
``INTERVAL_S`` during it, from a timer signal. The loops run during the
phase are taken out of its wall time. Each stretch of the phase between two
samples is weighted by the speed at its ends, so the phase is reported as

    scaled = sum over stretches of  duration * REFERENCE_S / loop time

(the loop time interpolated harmonically over the stretch): the phase's
wall time on a host where one loop always takes ``REFERENCE_S``. The loop
touches no privfed code, so a change to privfed moves the scaled time as it
moves the wall time. Raw wall times and mean loop times are kept in the
benchmark's result file.
"""

from __future__ import annotations

import signal
import statistics
import time

# One probe loop's time on an unloaded 2-core x86-64 host with Python 3.11.7:
# the unit that scaled times are expressed in.
REFERENCE_S = 0.002

LOOP_ITERATIONS = 25_000
INTERVAL_S = 0.1
EDGE_PROBES = 3


def probe(clock=time.perf_counter) -> float:
    """Time of one fixed pure-Python loop: the host's speed right now."""
    start = clock()
    total = 0
    for j in range(LOOP_ITERATIONS):
        total += j * j
    return clock() - start


def scaled(wall_s: float, loop_s: float) -> float:
    """``wall_s`` measured while one loop took ``loop_s``, on the reference host."""
    return wall_s * REFERENCE_S / loop_s


def reference_time(points: list[tuple[float, float]]) -> float:
    """Scaled duration of a phase sampled at ``points``: (phase time, loop time)
    pairs in time order, the first at 0 and the last at the phase's end."""
    total = 0.0
    for (t0, loop0), (t1, loop1) in zip(points, points[1:]):
        total += (t1 - t0) * (REFERENCE_S / loop0 + REFERENCE_S / loop1) / 2.0
    return total


class SpeedProbe:
    """Context manager: wall time of the enclosed phase and the host's speed
    over it. After exit, ``wall_s`` excludes the probes run during the phase,
    ``loop_s`` is the mean probe time and ``scaled_s`` the scaled time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.points: list[tuple[float, float]] = []
        self.in_phase_s = 0.0
        self.wall_s = 0.0

    def _sample(self, signum, frame) -> None:
        at = self.clock() - self._start - self.in_phase_s
        elapsed = probe(self.clock)
        self.points.append((at, elapsed))
        self.in_phase_s += elapsed

    def __enter__(self) -> "SpeedProbe":
        before = statistics.fmean(probe(self.clock) for _ in range(EDGE_PROBES))
        self.points = [(0.0, before)]
        self.in_phase_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = self.clock()
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.wall_s = self.clock() - self._start - self.in_phase_s
        signal.signal(signal.SIGALRM, self._previous)
        after = statistics.fmean(probe(self.clock) for _ in range(EDGE_PROBES))
        self.points.append((self.wall_s, after))
        return False

    @property
    def loop_s(self) -> float:
        return statistics.fmean(loop for _, loop in self.points)

    @property
    def scaled_s(self) -> float:
        return reference_time(self.points)
