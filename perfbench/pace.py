"""Host speed, measured by fixed reference kernels timed four times a second.

The benchmark runs on shared machines whose speed drifts: on a 2-vCPU
x86-64 VM the process switched every few seconds between a fast and a slow
state, and spent minutes at a time mostly in one of them, so wall-clock
medians of separate runs spread by 20-60%.  The slow state costs BLAS and
sorting about 1.3x and interpreter-bound code (plain Python, many small NumPy
calls) about 1.7-1.9x.  Longer runs do not average that away when a slow
spell outlasts the run.

So while a run is timed, an interval timer interrupts it every GAP_S seconds
to time four small kernels that never change, one for each kind of work
embnum does: a float32 GEMM, a sort with a binary search, a loop of
dictionary updates, and many NumPy calls on a short array.  The geometric
mean of their times over their times on the quiet reference machine is the
host's slowdown at that moment.  An operation's time is its wall time less
the probes that interrupted it, divided by the median slowdown measured
during and around it, so end-to-end times read as seconds on the reference
machine at its quiet speed.  The kernels call nothing in embnum, so a change
to embnum cannot move them.
"""

from __future__ import annotations

import bisect
import itertools
import math
import signal
import statistics
import time

import numpy as np

# milliseconds each kernel takes on the reference machine when it is quiet: the
# 5th percentile of 2,662 probes inside 12 benchmark runs on a 2-vCPU Intel
# Xeon VM, Python 3.11, NumPy 2.4 with its OpenBLAS pinned to one thread
REFERENCE_MS = (0.92, 1.27, 0.62, 0.555)
GAP_S = 0.25        # seconds between probes
WINDOW_S = 0.25     # an operation is scaled by the probes this close to it
MIN_PROBES = 2      # or by the nearest ones, when fewer are that close

_rng = np.random.default_rng(20180704)
_A = _rng.standard_normal((64, 1024)).astype(np.float32)
_B = _rng.standard_normal((1024, 64)).astype(np.float32)
_S = _rng.standard_normal(2000)
_SHORT = np.arange(50.0)


def _gemm() -> None:
    for _ in range(8):
        _A @ _B


def _search() -> None:
    for _ in range(6):
        np.searchsorted(np.sort(_S), _S)


def _loop() -> None:
    d = {}
    for i in range(6000):
        d[i & 255] = d.get(i & 255, 0) + i


def _calls() -> None:
    for _ in range(200):
        (_SHORT * 2.0 + 1.0).sum()


KERNELS = (_gemm, _search, _loop, _calls)


class Pace:
    """The slowdown probes of one timed run, and the scaling of its timings.

    Use as a context manager around the timed part; it holds SIGALRM and the
    real-time interval timer while it is entered.
    """

    def __init__(self):
        self.starts: list[float] = []     # perf_counter seconds
        self.ends: list[float] = []
        self.slowdowns: list[float] = []  # geometric mean over the kernels of time / reference
        self._busy = [0.0]                # cumulative probe time after each probe
        self._probing = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, GAP_S, GAP_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def _on_alarm(self, signum, frame) -> None:
        if not self._probing:
            self._probing = True
            try:
                self.probe()
            finally:
                self._probing = False

    def probe(self) -> None:
        logs = 0.0
        start = time.perf_counter()
        for kernel, ref in zip(KERNELS, REFERENCE_MS):
            t0 = time.perf_counter()
            kernel()
            logs += math.log((time.perf_counter() - t0) * 1e3 / ref)
        self.add(start, time.perf_counter(), math.exp(logs / len(KERNELS)))

    def add(self, start: float, end: float, slowdown: float) -> None:
        """Record a probe that ran over [start, end], after every earlier one."""
        self.starts.append(start)
        self.ends.append(end)
        self.slowdowns.append(slowdown)
        self._busy.append(self._busy[-1] + end - start)

    def wall(self, t0: float, t1: float) -> float:
        """Seconds in [t0, t1] less the probes that ran inside it."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        return t1 - t0 - (self._busy[hi] - self._busy[lo] if hi > lo else 0.0)

    def slowdown(self, t0: float, t1: float) -> float:
        """Median slowdown of the probes within WINDOW_S of [t0, t1], or of
        the MIN_PROBES nearest to it when fewer are that close."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if hi - lo < MIN_PROBES:
            mid = (t0 + t1) / 2
            near = sorted(range(len(self.starts)), key=lambda i: abs(self.starts[i] - mid))
            return statistics.median(self.slowdowns[i] for i in near[:MIN_PROBES])
        return statistics.median(itertools.islice(self.slowdowns, lo, hi))

    def scaled(self, t0: float, t1: float) -> float:
        """The work done in [t0, t1], in seconds at the reference machine's quiet speed."""
        return self.wall(t0, t1) / self.slowdown(t0, t1)

    def median(self) -> float:
        return statistics.median(self.slowdowns) if self.slowdowns else math.nan
