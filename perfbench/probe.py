"""Machine-speed probe for calibrating benchmark times.

The machine this benchmark was tuned on (2 cores, shared with other
tenants) drifts in speed by 10-30% within a minute: the same work timed in
consecutive 10-second blocks varied with an interquartile spread of 13-18%.
The probe samples that speed on the benchmark's own core, interleaved with
the work: a ``SIGALRM`` timer runs one fixed task (an interpreter loop and a
small sort, which fit in cache) every ``INTERVAL_S`` seconds, between two
bytecodes of whatever the main thread is doing, and records how long the
task took. An operation's calibrated time is its time net of the probe's
own tasks, scaled by ``REF_S`` over the probe's mean duration around the
operation. In the same test the calibrated blocks spread by 4%.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# the task's median duration on the machine the bounds were set on
# (2 cores, Python 3.11.7, NumPy 2.4.6); calibrated times are seconds at
# that speed
REF_S = 0.002
INTERVAL_S = 0.15
# probe samples this far either side of an interval also count, so that an
# operation shorter than the interval still gets a speed estimate
MARGIN_S = 0.25


class SpeedProbe:
    """Samples the speed of this process's core while it is started."""

    def __init__(self):
        # The task allocates nothing that outlives it: a heap block or a
        # tracked object left at a timing-dependent point could change the
        # heap layout and the garbage collector's schedule of the work it
        # interrupts.
        self._values = np.random.default_rng(0).random(20_000)
        self._work = np.empty_like(self._values)
        self._samples = np.empty((4096, 2))   # (start, end) of each task, monotonic clock
        self._n = 0
        self._previous = None
        self.start_s = self.end_s = self.dur = None

    def _task(self, signum, frame) -> None:
        t0 = time.monotonic()
        acc = 0
        for i in range(25_000):
            acc += i * i
        self._work[:] = self._values
        self._work.sort()
        if self._n == len(self._samples):
            self._samples = np.concatenate([self._samples, np.empty_like(self._samples)])
        self._samples[self._n] = t0, time.monotonic()
        self._n += 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._task)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self._n:
            raise RuntimeError("the speed probe recorded nothing")
        self.start_s, self.end_s = self._samples[:self._n].T
        self.dur = self.end_s - self.start_s

    def slowdown(self) -> float:
        """Mean probe duration over the reference one."""
        return float(self.dur.mean()) / REF_S

    def calibrate(self, start: float, end: float) -> float:
        """Time of the interval [start, end], less the probe's own tasks
        inside it, at the reference speed."""
        inside = (self.start_s >= start) & (self.end_s <= end)
        seconds = end - start - float(self.dur[inside].sum())
        mid = 0.5 * (self.start_s + self.end_s)
        near = (mid >= start - MARGIN_S) & (mid <= end + MARGIN_S)
        if not near.any():
            near = np.abs(mid - 0.5 * (start + end)).argmin()
        return seconds * REF_S / float(np.mean(self.dur[near]))
