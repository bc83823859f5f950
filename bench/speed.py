"""The machine's pace, sampled while the benchmark runs, and times converted by it.

On a host shared with other tenants the same op's time swings by 20-40 %
within seconds: the whole machine changes pace, and CPU time swings with the
wall time.  A fixed reference kernel swings with it.  While a Speedometer
runs, a profiling timer interrupts the program every SAMPLE_EVERY_S of its
CPU time and times one reference pass in the signal handler, so the pace is
sampled during each op, not only between ops.  Times are CPU times of the
main thread, where all of the benchmark's work runs (BLAS is pinned to one
thread and nothing else starts one), so a stretch in which another process
holds the CPU counts neither in the op nor in the passes.  A stretch of CPU
time is converted to machine seconds:

    (CPU time - CPU time of reference passes) * REFERENCE_NOMINAL_S / mean pass

where the mean is over the passes that ran in the stretch, widened to at
least MIN_WINDOW_S.  A machine second is a second of a machine on which one
reference pass takes REFERENCE_NOMINAL_S.

The handler runs between bytecodes of the main thread, never inside a numpy
call, and touches nothing of the library.
"""

import bisect
import signal
import statistics
import time

import numpy as np

# a reference pass's usual time on the shared 2-vCPU Xeon VM the benchmark was tuned on
REFERENCE_NOMINAL_S = 1.6e-3
# one reference pass per this much CPU time: about 3 % of the run
SAMPLE_EVERY_S = 0.05
# the shortest stretch whose passes are averaged: at least ten passes
MIN_WINDOW_S = 0.5

# the clock of every stretch: CPU time of the main thread.  (Process CPU time
# advances only at scheduler ticks while a profiling timer is armed.)
clock = time.thread_time


def reference_pass():
    """CPU seconds one pass of a fixed pure-Python and numpy kernel takes right now."""
    t0 = clock()
    table = {}
    for i in range(3000):
        key = (i % 7, i % 5)
        table[key] = table.get(key, 0) + i * 0.5
    values = np.arange(512.0)
    for _ in range(60):
        values = np.sin(values) * 0.5 + values
    return clock() - t0


class Speedometer:
    """Reference passes timed on SIGPROF while running; see the module docstring."""

    def __init__(self):
        self.starts = []  # clock() at the start of each pass, increasing
        self.passes = []  # CPU seconds each pass took
        self._previous = None

    def _tick(self, signum, frame):
        self.starts.append(clock())
        self.passes.append(reference_pass())

    def start(self):
        reference_pass()  # warm the kernel's code paths before the first sample
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    def _between(self, t0, t1):
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def sampling_s(self, t0, t1):
        """CPU seconds spent on reference passes that started in [t0, t1)."""
        lo, hi = self._between(t0, t1)
        return sum(self.passes[lo:hi])

    def reference_s(self, t0, t1):
        """Mean pass time over [t0, t1), widened about its middle to at least MIN_WINDOW_S."""
        half = max(t1 - t0, MIN_WINDOW_S) / 2
        middle = (t0 + t1) / 2
        lo, hi = self._between(middle - half, middle + half)
        if hi == lo:
            raise RuntimeError(f"no reference pass within {MIN_WINDOW_S} s of CPU time around the stretch")
        return statistics.fmean(self.passes[lo:hi])

    def machine_s(self, t0, t1):
        """The CPU-time stretch [t0, t1), less its reference passes, in machine seconds."""
        return (t1 - t0 - self.sampling_s(t0, t1)) * REFERENCE_NOMINAL_S / self.reference_s(t0, t1)

    def summary(self):
        """What a set-up probe reports when it is ready: its CPU time so far and its passes."""
        return {
            "cpu_s": clock(),
            "sampling_s": sum(self.passes),
            "reference_s": statistics.fmean(self.passes),
            "passes": len(self.passes),
        }
