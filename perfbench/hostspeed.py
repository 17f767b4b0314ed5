"""Host speed calibration: a fixed kernel timed around every operation.

The shared 2-vCPU host the benchmark was written on changes speed by up
to 1.7x, for seconds to minutes at a time, whatever the work: a fixed
pure-Python loop took from 228 ms to 394 ms within 15 s, with CPU time
equal to wall time and no steal time.  A run cannot average that out,
because a slow spell can last longer than a run.  So the benchmark times
this kernel right before and right after every operation, takes the
median kernel time over the run, weighted by the time of the operations
it brackets, and scales the run's times by ``REFERENCE_S / median``:
times are reported in seconds at the host speed at which the kernel
takes ``REFERENCE_S``.

The kernel is a pure-Python loop.  Across slow and fast spells its time
followed the workloads' pass times to within 1-7%; numpy element-wise,
FFT, LAPACK and threaded BLAS kernels followed them worse.  The kernel
belongs to the benchmark, so no change to the program changes its time.
"""

from __future__ import annotations

import time

# The kernel's time on the machine the benchmark was written on, in a fast spell.
REFERENCE_S = 0.005


def _kernel():
    s = 0
    for i in range(60000):
        s += i * i % 7
    return s


def kernel_seconds() -> float:
    """Time of one run of the calibration kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def weighted_median(values, weights) -> float:
    """The value at which the cumulative weight, in value order, reaches half."""
    pairs = sorted(zip(values, weights))
    half = sum(w for _, w in pairs) / 2.0
    total = 0.0
    for value, weight in pairs:
        total += weight
        if total >= half:
            return value
    return pairs[-1][0]


def scale_factor(kernels, weights) -> float:
    """Factor from measured seconds to seconds at the reference speed.

    ``kernels`` are the mean kernel times around each operation and
    ``weights`` the operations' measured times.
    """
    return REFERENCE_S / weighted_median(kernels, weights)
