"""How fast the host runs, sampled from inside the measured process.

On a shared virtual machine the speed one thread gets moves by tens of
percent with what the neighbours run: each vCPU flips between a fast and
a slow state every few seconds, and the share of slow time drifts over
minutes. The CPU time of fixed work stretches with it, so it is the
processor's speed, not waiting. The benchmark therefore runs a small fixed
workload, which does not touch the code under test, from a timer signal in
the thread that runs the jobs, and scales each job's time by the speed
those samples saw around it (see RATIONALE.md, "Host speed").

The slice mixes the two kinds of work the package does: interpreted
Python over tuples and dicts, and small dense LAPACK calls.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from itertools import combinations

import numpy as np

#: CPU seconds one slice takes at the reference speed, between the fast
#: (about 1.05 ms) and slow (about 1.8 ms) states of a 2-vCPU 2.1 GHz Xeon
#: VM. Only ratios of speeds matter; the constant keeps scaled times close
#: to seconds on such a host.
REF_SLICE_S = 0.0015
#: Seconds between two samples while jobs run.
EVERY_S = 0.1
#: A job's speed is the mean of the samples within this many seconds of it.
WINDOW_S = 0.5
#: Slices per one-off probe; it reports their median.
PROBE_SLICES = 25

_FACES = list(combinations(range(14), 3))
_MATS = [m + m.T for m in np.random.default_rng(20260117).standard_normal(
    (20, 24, 24))]


def _slice() -> float:
    """Speed from one slice: reference CPU time over the CPU time it took."""
    start = time.thread_time()
    index = {f: k for k, f in enumerate(_FACES)}
    edges: dict[tuple[int, int], int] = {}
    for f in index:
        for j in range(3):
            e = f[:j] + f[j + 1:]
            edges[e] = edges.get(e, 0) + index[f]
    for m in _MATS:
        np.linalg.eigvalsh(m)
    return REF_SLICE_S / (time.thread_time() - start)


def probe() -> float:
    """The host's speed now: 1.0 at the reference, 0.8 when 25% slower."""
    return statistics.median(_slice() for _ in range(PROBE_SLICES))


class Sampler:
    """Takes a slice every EVERY_S seconds, from SIGALRM, while active.

    Python runs the handler in the main thread between bytecodes, so the
    samples come from the thread (and the vCPU) that runs the jobs. The
    wall time the handler takes is kept in ``spent`` so that callers can
    take it out of their measurements.
    """

    def __init__(self):
        self.times: list[float] = []
        self.speeds: list[float] = []
        self.spent = 0.0
        self._old = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.speeds.append(_slice())
        self.times.append(start)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._sample(None, None)
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample(None, None)
        return False

    def around(self, start: float, end: float) -> float:
        """Mean speed of the samples within WINDOW_S of [start, end], or
        of the nearest sample when there are none."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:
            k = min(max(lo, 1), len(self.times) - 1)
            nearest = min((k - 1, k), key=lambda i: abs(self.times[i] - start))
            return self.speeds[nearest]
        return statistics.fmean(self.speeds[lo:hi])
