"""Calibrated seconds: op times corrected for the machine's current speed.

The 2-CPU virtual machine this benchmark was built on changes speed by up
to 1.8x for seconds to minutes at a time. Process CPU time tracks wall
time through these swings, so they are not scheduling delays the
benchmark could exclude. A fixed kernel, independent of the package and
built from the same kinds of work as the integrator (Python calls, tuple
returns, float arithmetic, numpy element stores), is timed before the
first op, after every op and, where the op allows it, every
SAMPLE_INTERVAL_S during the op from a SIGALRM handler, whose own time is
taken out of the op's. Each op's wall time is scaled by REFERENCE_S over
the mean of the kernel times from just before it to just after it. On
that machine, sampling during the op brought the spread of presets-cli
pass times from 0.12-0.14 of their median (kernel only between ops) to
0.01-0.02, while raw pass times moved by 20-50%.

A calibrated second is therefore a second at the speed where the kernel
takes REFERENCE_S, which is about the machine's fast state.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import time

import numpy as np

# Kernel time on the reference machine (2-CPU Intel Xeon VM, Python 3.11.7,
# numpy 2.4.6) in its fast state. It only sets the scale of calibrated
# seconds; changing it rescales every time metric and breaks comparisons.
REFERENCE_S = 0.0025
KERNEL_STEPS = 1500
SAMPLE_INTERVAL_S = 0.25


def _kernel(n: int = KERNEL_STEPS) -> float:
    """RK4 on a damped oscillator, storing each step into an array."""
    buf = np.empty((n, 2))

    def f(x, y, w):
        return (y, -w * x - 0.01 * y)

    x, y, h = 1.0, 0.0, 0.01
    for k in range(n):
        a0, a1 = f(x, y, 4.0)
        b0, b1 = f(x + 0.5 * h * a0, y + 0.5 * h * a1, 4.0)
        c0, c1 = f(x + 0.5 * h * b0, y + 0.5 * h * b1, 4.0)
        d0, d1 = f(x + h * c0, y + h * c1, 4.0)
        x += h / 6.0 * (a0 + 2.0 * (b0 + c0) + d0)
        y += h / 6.0 * (a1 + 2.0 * (b1 + c1) + d1)
        buf[k, 0] = x
        buf[k, 1] = len(repr(y))
    return float(buf.sum())


def kernel_seconds() -> float:
    """Median of three timed kernel runs, with the cyclic garbage collector
    held off so garbage left by the previous op is not collected inside
    them. The median drops a run that an interrupt or preemption hit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
        return sorted(times)[1]
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Turns consecutive raw call times into calibrated seconds.

    Create it just before the first call. Time each call inside
    ``sampling()`` where sampling is wanted, and call ``scale`` right after
    each timed call, with nothing else timed in between.
    """

    def __init__(self) -> None:
        self.before = kernel_seconds()
        self.samples: list[float] = []
        self.sampling_s = 0.0

    @contextlib.contextmanager
    def sampling(self):
        """Time the kernel every SAMPLE_INTERVAL_S while the block runs.

        Uses SIGALRM, so it must run in the main thread. The handler's own
        time is kept in ``sampling_s`` for ``scale`` to take out.
        """

        def sample(signum, frame):
            t0 = time.perf_counter()
            self.samples.append(kernel_seconds())
            self.sampling_s += time.perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, raw_seconds: float) -> tuple[float, float]:
        """(seconds of the call itself, the same in calibrated seconds)."""
        after = kernel_seconds()
        kernels = [self.before, *self.samples, after]
        own = raw_seconds - self.sampling_s
        self.before, self.samples, self.sampling_s = after, [], 0.0
        return own, own * REFERENCE_S * len(kernels) / sum(kernels)
