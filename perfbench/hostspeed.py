"""Command times scaled to a fixed reference speed of the host core.

The cores of a shared VM change speed by up to 1.8x within seconds, as the
work of other tenants on the same physical core comes and goes; a fixed
pure-Python loop shows it as well as the program does, and CPU time moves
with wall time.  A median over a 30 s run cannot average that away.  So
while a span is timed, SIGALRM runs a short fixed calibration kernel every
INTERVAL_S seconds.  The kernel's times sample the core's speed over the
span; the time spent in the kernel is taken off the span's wall time; and

    ref_s = wall_s * mean(REF_KERNEL_S / kernel_s)

is the span's time had the core run at the speed at which the kernel takes
REF_KERNEL_S throughout.  A faster program lowers ref_s just as it lowers
wall_s, because the kernel does not change with the program.
"""
from __future__ import annotations

import contextlib
import os
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

#: seconds between two kernel samples while a span is timed
INTERVAL_S = 0.05

#: seconds one calibration_work() takes on an uncontended core of the
#: 2-vCPU Intel Xeon VM the benchmark was tuned on (the tenth percentile
#: of 3000 calls)
REF_KERNEL_S = 0.00033


def calibration_work() -> float:
    """A fixed mix of interpreter work and small numpy calls, as in the CLI."""
    x = np.linspace(0.0, 1.0, 501)
    acc = 0.0
    for k in range(16):
        y = np.exp(-x * (k + 1)) * np.cos(x * k)
        c = np.cumsum(y * y)
        acc += float(np.interp(0.5 * c[-1], c, x))
        for v in y[:96].tolist():
            acc += v * v if v > 0.1 else -v
    return acc


@dataclass
class Span:
    wall_s: float = 0.0  # wall seconds, time in the kernel taken off
    ref_s: float = 0.0   # wall_s at the reference speed


class Sampler:
    """Times spans with the calibration kernel running beside them."""

    def __init__(self):
        self._samples: list[float] = []
        for _ in range(20):  # warm the kernel's code paths before sampling
            calibration_work()

    def _sample(self, *_) -> None:
        t0 = perf_counter()
        calibration_work()
        self._samples.append(perf_counter() - t0)

    @contextlib.contextmanager
    def span(self):
        """Time the body; the Span is filled in when the body ends."""
        span = Span()
        self._samples = []
        self._sample()  # one sample before and one after, both untimed
        previous = signal.signal(signal.SIGALRM, self._sample)
        t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield span
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = perf_counter() - t0 - sum(self._samples[1:])
            signal.signal(signal.SIGALRM, previous)
            self._sample()
            span.wall_s = wall
            span.ref_s = wall * statistics.fmean(REF_KERNEL_S / s for s in self._samples)


@contextlib.contextmanager
def unsampled():
    """Time the body by wall clock alone; ref_s stays 0."""
    span = Span()
    t0 = perf_counter()
    try:
        yield span
    finally:
        span.wall_s = perf_counter() - t0


@contextlib.contextmanager
def pinned():
    """Keep this process and its children on the core it is on now.

    A child started inside then runs on the core the sampler samples.
    """
    allowed = os.sched_getaffinity(0)
    with open("/proc/self/stat") as fh:
        core = int(fh.read().rsplit(")", 1)[1].split()[36])
    try:
        os.sched_setaffinity(0, {core})
    except OSError:
        allowed = None
    try:
        yield
    finally:
        if allowed is not None:
            os.sched_setaffinity(0, allowed)
