"""The speed of the core the benchmark's subprocesses run on.

The cores of a shared host slow down while other tenants' work runs
beside them.  On the 2-vCPU box this benchmark was tuned on, the same
loop_binary `stability` subcommand took 8.4 s or 12.4 s depending on
when it ran.  The slow spells last from seconds to minutes.  CPU time
from wait4 slows as much as wall time, and almost no steal is reported.
So no run long enough to average the spells away fits the time budget.

CoreSpeed pins the calling thread, and with it every subprocess started
from it, to one core.  A sampler thread pinned to the same core wakes
every PERIOD_S and times a fixed small numpy kernel, which slows with
the core; a little more than the program does, so pacing over-corrects
by a few percent.  paced(start, wall) rescales an interval's wall time to a core on which
that kernel takes REFERENCE_S: the wall time, less the sampler's own
time in it, times the mean of REFERENCE_S / d over the kernel times d
sampled in it.  On that box, over five minutes of single_real, 34
`stability` runs spread 21% in wall time and 5% paced, and 68 set-up
probes 26% and 8.5% (interquartile range over median).  A kernel a
fifth as long, sampled as often, left the probes at 14%.
"""

import bisect
import os
import threading
import time

import numpy as np

PERIOD_S = 0.04
STEPS = 200             # about 1 ms of kernel, 2.5% of the core
# About the kernel's time, sampled between a subcommand's own work, on an
# uncontended core of the tuning box; a fixed scale, the same for every run.
REFERENCE_S = 800e-6


def kernel(a, x):
    for _ in range(STEPS):
        x = x + 0.01 * (np.tanh(a @ x) - x)
    return x


class CoreSpeed:
    def __init__(self):
        self.cpu = max(os.sched_getaffinity(0))
        self.samples = []            # (start, kernel seconds), in time order
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self):
        self._saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cpu})
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._saved)

    def _sample(self):
        os.sched_setaffinity(0, {self.cpu})
        a = np.random.default_rng(0).standard_normal((20, 20)) / 5
        x = np.zeros(20)
        while not self._stop.wait(PERIOD_S):
            t = time.perf_counter()
            kernel(a, x)
            self.samples.append((t, time.perf_counter() - t))

    def paced(self, start, wall) -> float:
        """wall seconds from start, at the reference speed; wall itself
        when no sample fell inside."""
        lo = bisect.bisect_left(self.samples, start, key=lambda s: s[0])
        hi = bisect.bisect_right(self.samples, start + wall, key=lambda s: s[0])
        d = [s[1] for s in self.samples[lo:hi]]
        if not d:
            return wall
        return (wall - sum(d)) * REFERENCE_S * sum(1.0 / x for x in d) / len(d)
