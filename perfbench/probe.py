"""A speed probe: times taken against a reference kernel run alongside.

On a shared host the CPU does not run at one speed.  On a 2-vCPU KVM guest
(Intel Xeon, 2.1 GHz) the same code ran in one of two regimes about 1.5x
apart, each lasting from one to more than twenty seconds, so the share of
slow time in a run, and with it any raw time, moved by 10-15% between runs.
Neither medians nor minima over a run remove that: a whole run can fall in
the slow regime.

The probe runs a small fixed kernel (a Python integer loop and a few small
matrix products, about 0.8 ms) from a ``SIGPROF`` handler every ``PERIOD``
of CPU time, in the middle of whatever the main thread is doing, and records
how long each run of it took.  The kernel runs in the regime of the code
around it, so the kernel's mean time over an interval measures the
machine's speed in that interval.  ``Probe.clock`` leaves the kernel's own
time out, and a timed interval is reported in *calibrated seconds*:

    calibrated = cpu_seconds * REF_SECONDS / mean kernel time in the interval

``REF_SECONDS`` is the kernel's time in the faster regime of the host above,
so there a calibrated second is close to a CPU second.  A change in the
program moves its CPU time and not the kernel's, so it moves the calibrated
figure by the same share.  In a two-minute check, the spread of 20-second
totals between their quartiles fell from 13% of the median to 2% for model
forward passes, and from 13% to 2.3% for augmentation.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

PERIOD = 0.025          # CPU seconds between kernel runs
REF_SECONDS = 0.0008    # the kernel's time in the faster regime (see above)
MIN_SAMPLES = 4         # kernel runs a calibration averages over, at least

_MASK = (1 << 64) - 1
_A = np.full((64, 96), 0.5)
_W = np.full((96, 96), 0.01)


def reference_kernel() -> int:
    """Fixed work: 1500 steps of a 64-bit mixer and 20 small matrix products."""
    x = 0x9E3779B97F4A7C15
    for _ in range(1500):
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    a = _A
    for _ in range(20):
        a = np.tanh(a @ _W)
    return x


class Timing:
    """One timed interval: CPU seconds outside the probe, and calibrated."""

    raw: float = float("nan")
    seconds: float = float("nan")
    scale: float = float("nan")


class Probe:
    """Run ``reference_kernel`` every ``PERIOD`` of CPU time while active."""

    def __init__(self):
        self.samples: list[float] = []   # kernel times, in firing order
        self._spent = 0.0                # CPU time spent in the probe
        self._busy = False
        self._previous = None

    def _fire(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.thread_time()
            reference_kernel()
            end = time.thread_time()
            self.samples.append(end - start)
            self._spent += time.thread_time() - start
        finally:
            self._busy = False

    def __enter__(self) -> "Probe":
        reference_kernel()      # the first run is slower; leave it out
        for _ in range(MIN_SAMPLES):
            self._fire()
        self._previous = signal.signal(signal.SIGPROF, self._fire)
        signal.setitimer(signal.ITIMER_PROF, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def clock(self) -> float:
        """The thread's CPU time, less the time spent in the probe.  The
        thread's clock, because while ``ITIMER_PROF`` is armed Linux
        advances the process's CPU clock only at scheduler ticks."""
        return time.thread_time() - self._spent

    def mark(self) -> tuple[float, int]:
        return self.clock(), len(self.samples)

    def scale(self, mark: tuple[float, int]) -> float:
        """REF_SECONDS over the mean kernel time since ``mark``, widened to
        the latest MIN_SAMPLES kernel runs when fewer fired since."""
        first = min(mark[1], len(self.samples) - MIN_SAMPLES)
        window = self.samples[first:]
        return REF_SECONDS * len(window) / sum(window)

    @contextmanager
    def timed(self):
        """Time the enclosed block; the ``Timing`` is filled in on exit."""
        timing = Timing()
        mark = self.mark()
        yield timing
        timing.raw = self.clock() - mark[0]
        timing.scale = self.scale(mark)
        timing.seconds = timing.raw * timing.scale
