"""A reference kernel that says how fast the machine is right now.

This box is a 2-vCPU microVM with neighbours: for stretches of seconds
to minutes a growing share of everything it runs takes about 1.5 times
as long (see README, "Why the gated times are normalised").  Raw wall
medians of identical runs then spread by 17-19 % between their
quartiles, which a 10 % bound cannot gate.  The kernel below is fixed
work that touches nothing of ``repro`` (a third each interpreter loop,
small-array numpy calls and BLAS/LAPACK).  It is timed between ops, and
an end-to-end time is divided by the slowdown its neighbouring readings
show against ``UNIT_S``.  Raw wall medians are reported beside the
normalised ones; per-layer times are raw.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

perf = time.perf_counter


class RefClock:
    #: one kernel run is called this many seconds.  It fixes the unit
    #: only (a reported time of T s is T / UNIT_S kernel runs) and
    #: cancels whenever two commits are compared on one machine; the
    #: value is the kernel's time on the box the benchmark was defined
    #: on, when quiet (fastest reading of 80 runs: 18.8 to 20.9 ms).
    #: Taking each run's own fastest reading instead was tried: that
    #: reading moves by 5 % between runs, and the spread with it.
    UNIT_S = 0.020
    #: ops shorter than this share one reading
    MIN_GAP_S = 0.25

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        spd = rng.random((160, 160))
        self._spd = spd @ spd.T + 160.0 * np.eye(160)
        self._small = [rng.random((12, 12)) for _ in range(64)]
        self._index = rng.integers(0, 50_000, size=20_000)
        self._buffer = np.zeros(50_000)
        self.at: list[float] = []
        self.seconds: list[float] = []
        t0 = perf()
        self._kernel()  # first-call costs of numpy are not machine speed
        self.spent_s = perf() - t0

    def _kernel(self) -> None:
        acc = 0
        for i in range(150_000):
            acc += i * i
        for block in self._small:
            for _ in range(30):
                (block @ block).sum()
        for _ in range(25):
            np.linalg.cholesky(self._spd)
            self._spd @ self._spd
        for _ in range(10):
            np.add.at(self._buffer, self._index, 1.0)

    def tick(self, force: bool = False) -> None:
        """Take a reading unless the last one is still fresh."""
        t0 = perf()
        if not force and self.at and t0 - self.at[-1] < self.MIN_GAP_S:
            return
        self._kernel()
        t1 = perf()
        self.at.append(t1)
        self.seconds.append(t1 - t0)
        self.spent_s += t1 - t0

    def slowdown(self, t0: float, t1: float) -> float:
        """Machine slowdown over [t0, t1]: the mean of the readings
        inside the interval and the one on each side of it, in units of
        ``UNIT_S``.  Call it after the reading that follows ``t1``."""
        lo = max(0, bisect.bisect_left(self.at, t0) - 1)
        hi = bisect.bisect_left(self.at, t1) + 1
        return statistics.fmean(self.seconds[lo:hi]) / self.UNIT_S
