"""Reference-speed probe: scales wall times to one fixed CPU speed.

The benchmark runs on shared cores whose speed for the same pure-Python
work wanders by up to ~70 % over tens of seconds (other tenants, shared
caches, frequency).  CPU time wanders just as much, so neither clock
alone can tell a slower program from a slower machine.  A fixed kernel
(integer arithmetic, no calls, no allocation that the collector tracks)
is timed just before and just after each timed phase and, from a
SIGALRM handler, every INTERVAL_S during it.  Each stretch of the
phase's own work between two samples is scaled by

    REFERENCE_S / mean(kernel time of the two samples)

and the phase reports the sum: the seconds it would take on a machine
that runs the kernel in REFERENCE_S.  A sample is the fastest of
SAMPLE_RUNS back-to-back kernel runs, since an interrupt only ever adds
time; the samples' own time is left out of the phase.  The kernel is
benchmark code, so a change to the program moves the phase time and not
the kernel.  It runs with any trace or profile hook switched off, so a
program that installs one still shows the cost in its own phases.
Traced runs sample only around their phases, so no sample lands in a
layer's span.
"""

from __future__ import annotations

import signal
import statistics
import sys
import time

KERNEL_ITERATIONS = 50_000
SAMPLE_RUNS = 3
REFERENCE_S = 0.005  # kernel time at the reference speed
INTERVAL_S = 0.3  # wall seconds between samples inside a phase


def _kernel() -> int:
    total = 0
    for i in range(KERNEL_ITERATIONS):
        total += i * i % 7
    return total


class SpeedProbe:
    """Kernel samples for one run, and the phases they bracket."""

    def __init__(self, periodic: bool = True) -> None:
        # (start, end, kernel seconds) of every sample, in time order
        self.samples: list[tuple[float, float, float]] = []
        self.periodic = periodic

    def sample(self) -> None:
        trace, profile = sys.gettrace(), sys.getprofile()
        sys.settrace(None)
        sys.setprofile(None)
        try:
            begin = time.perf_counter()
            runs = []
            for _ in range(SAMPLE_RUNS):
                start = time.perf_counter()
                _kernel()
                runs.append(time.perf_counter() - start)
        finally:
            sys.settrace(trace)
            sys.setprofile(profile)
        self.samples.append((begin, time.perf_counter(), min(runs)))

    def _on_alarm(self, signum, frame) -> None:
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def timed(self, fn, *args):
        """Run ``fn(*args)``; returns (result, its scaled wall seconds)."""
        first = len(self.samples)
        self.sample()
        if self.periodic:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        try:
            result = fn(*args)
        finally:
            if self.periodic:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        self.sample()
        marks = self.samples[first:]
        scaled = sum(
            (later[0] - earlier[1]) * REFERENCE_S * 2 / (earlier[2] + later[2])
            for earlier, later in zip(marks, marks[1:])
        )
        return result, scaled

    def scale(self) -> float:
        """REFERENCE_S over the median kernel time of the whole run."""
        return REFERENCE_S / statistics.median(kernel for _, _, kernel in self.samples)
