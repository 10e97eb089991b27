"""How fast this machine runs right now, from a fixed calibration kernel.

The host this benchmark runs on is shared: for seconds to minutes at a time
it runs a pass 10-40% slower, and that neither shows as CPU steal nor spares
any kind of code. A workload's time divided by the time of a fixed kernel
measured in the same seconds barely moves with it, while a change to the
program moves it in full. So the pass time `wall_s` is reported in
reference seconds: wall seconds x `REF_KERNEL_S` / the median kernel time
measured while they ran, that is, seconds on a machine that runs the kernel
in exactly `REF_KERNEL_S`. The kernel never changes with the program.

An import of the package is too short to sample during it, and a burst of
kernels run back to back beside it did not track it (warm kernels react to
the host differently), so `setup_s` is scaled by the median sampled kernel
time of the whole run instead.
"""

import signal
import statistics
import time

import numpy as np

REF_KERNEL_S = 1e-3  # about one sampled kernel on a quiet 2-vCPU Xeon guest

_BIG = np.zeros(1 << 17)  # 1 MB: streamed from L2, as the package's grids are
_OUT = np.empty_like(_BIG)
_SMALL = np.ones((48, 48))


def kernel():
    """About 1 ms of Python bytecode, a 1 MB numpy stream and small matmuls."""
    s = 0
    for i in range(8000):
        s += i * i
    for _ in range(4):
        np.multiply(_BIG, 1.0001, out=_OUT)
        _SMALL @ _SMALL
    return s


def timed_kernel():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def to_reference(seconds, kernel_s):
    """Wall seconds measured while the kernel took `kernel_s`, in reference seconds."""
    return seconds * REF_KERNEL_S / kernel_s


class SpeedSampler:
    """Samples the kernel time while a pass runs.

    Every `INTERVAL_S` a timer signal runs the kernel once and records its
    time, about 1% of the pass. The handler runs between bytecodes of the
    main thread and touches no state of the program.
    """

    INTERVAL_S = 0.1

    def __init__(self):
        self.samples = []  # (perf_counter at start, kernel seconds)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def start(self):
        kernel()  # page the arrays in before the first sample
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def median_between(self, t0, t1):
        """Median kernel time of the samples taken in [t0, t1], or None."""
        inside = [dt for t, dt in self.samples if t0 <= t <= t1]
        return statistics.median(inside) if inside else None
