"""Machine-speed calibration for the timed loop.

On the shared 2-vCPU machine the reference figures in README.md come from,
the clock alternates between two speeds about 1.7x apart, every few seconds
to tens of seconds; the same operation on the same input takes 0.19 s or
0.34 s depending on when it runs. Wall times alone would therefore measure the machine rather than
evpkit. A fixed kernel that does not touch evpkit (small numpy array calls
and interpreter arithmetic, the mix evpkit's hot paths consist of) is timed
between operations; each operation's wall time is multiplied by
``REFERENCE_S / k``, where ``k`` is the kernel time interpolated to the
middle of the operation. The reported times are thus seconds at the speed
at which the kernel takes ``REFERENCE_S``. Raw wall times are kept in the
run's result file next to the scaled ones.
"""

import bisect
import statistics
import time

import numpy as np

# kernel time at full clock on the reference machine (2 vCPUs at 2.1 GHz)
REFERENCE_S = 0.004
INTERVAL_S = 0.2
REPEATS = 3

_A = np.eye(3)
_V = np.array([0.5, 1.0, 1.5])


def _kernel():
    hits = 0
    for i in range(600):
        y = np.asarray([i * 0.001, 1.0, 2.0])
        if np.all(_A @ (y - _V) >= -1e-9):
            hits += 1
    total = 0
    for i in range(20000):
        total += i % 7
    return hits + total


def kernel_time():
    """Median of a few kernel timings, in seconds."""
    samples = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - t)
    return statistics.median(samples)


class Speedometer:
    """Kernel timings taken along a loop, at least every ``INTERVAL_S``."""

    def __init__(self):
        self.times = []
        self.kernel = []
        self.mark()

    def mark(self):
        now = time.perf_counter()
        self.kernel.append(kernel_time())
        self.times.append(now)

    def maybe_mark(self):
        if time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.mark()

    def at(self, t):
        """Kernel time interpolated at clock time ``t``."""
        i = bisect.bisect_right(self.times, t)
        if i == 0:
            return self.kernel[0]
        if i == len(self.times):
            return self.kernel[-1]
        t0, t1 = self.times[i - 1], self.times[i]
        k0, k1 = self.kernel[i - 1], self.kernel[i]
        return k0 + (k1 - k0) * (t - t0) / (t1 - t0)

    def scale(self, start, duration):
        """``duration`` seconds starting at ``start``, at reference speed."""
        return duration * REFERENCE_S / self.at(start + duration / 2)
