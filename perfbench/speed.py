"""The machine's current speed, from a fixed calibration unit.

On a shared 2-core VM the same code runs 10-45% slower or faster from one
minute to the next, and process CPU time drifts with wall time, so the drift
is the machine's speed, not scheduling.  The benchmark therefore times a
calibration unit every tenth of a second, during operations too, and
scales each operation's wall time by CAL_REF_S over the calibration time
measured around and during it.

The unit is a frozen, benchmark-owned copy of the hot loop the program
spends its time in: the Cauchy-dual term stream of ex52 on the tqb tree,
with tuple vertices, kernel method calls, log weights and a norm cache.  A
plain arithmetic loop tracked the program's slowdowns poorly (it sped up by
40% while the operations sped up by 10%); this unit follows them closely.
It imports nothing from woldlab, so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
import statistics
import time

CAL_REF_S = 0.002     # median calibration-unit time at the reference speed


class _Tqb:
    @staticmethod
    def _check(v):
        if not (isinstance(v, tuple) and len(v) == 2) or v[0] < 0:
            raise ValueError(v)

    def children(self, v):
        self._check(v)
        n, m = v
        return ((0, m - 1), (1, m)) if n == 0 else ((n + 1, m),)

    def parent(self, v):
        self._check(v)
        n, m = v
        return (0, m + 1) if n == 0 else (n - 1, m)


class _Ex52:
    @staticmethod
    def p(m, x):
        return 1.0 + x + x * x

    def log_weight(self, v):
        n, m = v
        if n >= 2:
            return 0.5 * (math.log(self.p(m, n - 1)) - math.log(self.p(m, n - 2)))
        if m >= 1:
            return 0.5 * (math.log(m) - math.log(m + 1.0)) if n == 0 else -0.5 * math.log(m)
        return 0.0


class _Dual:
    def __init__(self, primal, kernel):
        self.primal, self.kernel, self.cache = primal, kernel, {}

    def log_weight(self, v):
        u = self.kernel.parent(v)
        norm = self.cache.get(u)
        if norm is None:
            norm = math.fsum(math.exp(2.0 * self.primal.log_weight(c))
                             for c in self.kernel.children(u))
            self.cache[u] = norm
        return self.primal.log_weight(v) - math.log(norm)


def calibration_unit(generations: int = 30) -> float:
    """Sum of the first dual-series terms at (0,0); about 2 ms of work."""
    kernel = _Tqb()
    ws = _Dual(_Ex52(), kernel)
    top, base_log, total = (0, 0), 0.0, 0.0
    for n in range(1, generations):
        base_log += ws.log_weight(top)
        anchor = kernel.parent(top)
        fresh = [(c, ws.log_weight(c)) for c in kernel.children(anchor) if c != top]
        for _ in range(n - 1):
            fresh = [(c, acc + ws.log_weight(c)) for u, acc in fresh
                     for c in kernel.children(u)]
        total += sum(math.exp(2.0 * (acc - base_log)) for _, acc in fresh)
        top = anchor
    return total


class SpeedClock:
    """Calibration samples over a run, and the speed factor of a span.

    A sample is the median time of three calibration units.  The speed of
    this machine flips between states as far as 1.7x apart within seconds,
    so a span is scaled by CAL_REF_S over the mean of the samples from the
    last one before it to the first one after it.  Inside `sampling()` a
    timer signal also takes samples during long operations; the time they
    take is counted in `paused` so that it can be taken off the operation.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []
        self.paused = 0.0

    def calibrate(self) -> None:
        units = []
        for _ in range(3):
            t0 = time.perf_counter()
            calibration_unit()
            units.append(time.perf_counter() - t0)
        self.times.append(time.perf_counter())
        self.samples.append(statistics.median(units))

    def since_last(self) -> float:
        return time.perf_counter() - self.times[-1]

    def _on_timer(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.calibrate()
        self.paused += time.perf_counter() - t0

    @contextlib.contextmanager
    def sampling(self, interval: float):
        """Take a sample every `interval` seconds of wall time in the block."""
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float) -> float:
        lo = max(0, bisect.bisect_right(self.times, start) - 1)
        hi = min(len(self.times) - 1, bisect.bisect_left(self.times, end)) + 1
        return CAL_REF_S / statistics.fmean(self.samples[lo:hi])

    def run_factor(self, start: float, end: float) -> float:
        """CAL_REF_S over the median sample taken from `start` to `end`."""
        lo = max(0, bisect.bisect_right(self.times, start) - 1)
        hi = bisect.bisect_left(self.times, end) + 1
        return CAL_REF_S / statistics.median(self.samples[lo:hi])
