"""How fast the host is running this process, measured by a fixed probe.

The benchmark shares a few vCPUs of a host with other tenants, and their
load changes how fast the same code runs, by half or more, in stretches
that can outlast a whole run.  So the benchmark runs this probe between
operations, every ``EVERY_S`` seconds, and reports each time divided by
the probe's time around it, rescaled to a fixed reference speed: the
speed at which one probe takes ``REF_MS``.  That is about its median on
an otherwise idle 2-vCPU Xeon host of the kind the baseline was measured
on, so there a reported time and a wall-clock time agree.

The probe uses no stackalloc code, so no change to the package moves it.
It is an interpreter loop, NumPy arithmetic on a vector that fits the
per-core cache, and a NumPy gather from a 4 MB array.  On the shared
2-vCPU host, over 2.5 minutes of solves from paper-protocol and
solve-cold, each of the three tracked the solver's slowdown with a
correlation of 0.93-0.94 between windows of 12 operations; chasing pointers
through a heap larger than the per-core cache slowed about twice as much
as the solver did, so the probe leaves that out.  It allocates no object
that the garbage collector tracks, so it costs the same whatever the
solver has left on the heap.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_MS = 1.5
EVERY_S = 0.25
# An operation's host factor is the median of the marks taken within this
# many seconds of its midpoint.
WINDOW_S = 1.0
_LOOP = 7_000
_VECTOR = 20_000           # 160 KB
_VECTOR_ROUNDS = 30
_ARRAY = 1 << 19           # 4 MB
_GATHERS = 1 << 17


class Probe:
    """Owns the probe's buffers and the marks it has taken.  A mark is
    (time, probe seconds); ``time`` is ``time.perf_counter()``."""

    def __init__(self) -> None:
        gen = np.random.default_rng(0)
        self._vector = gen.random(_VECTOR)
        self._vector_out = np.empty_like(self._vector)
        self._array = gen.random(_ARRAY)
        self._index = gen.integers(0, _ARRAY, _GATHERS)
        self._gathered = np.empty(_GATHERS)
        self.marks: list[tuple[float, float]] = []

    def mark(self) -> None:
        """Take a mark.  The first run brings the probe's data back into
        the caches the last operation used, so the mark does not depend on
        what that operation left there."""
        self._run()
        self.marks.append((time.perf_counter(), min(self._run(), self._run())))

    def due(self) -> bool:
        return not self.marks or time.perf_counter() - self.marks[-1][0] >= EVERY_S

    def _run(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(_LOOP):
            acc += i * i % 7
        for _ in range(_VECTOR_ROUNDS):
            np.multiply(self._vector, self._vector, out=self._vector_out)
            self._vector_out.sum()
        np.take(self._array, self._index, out=self._gathered)
        return time.perf_counter() - start


def factor(marks: list[tuple[float, float]], at: float) -> float:
    """Host factor at time ``at``, in units of REF_MS: the median of the
    marks within WINDOW_S of it, or of the nearest mark on each side."""
    near = [p for t, p in marks if abs(t - at) <= WINDOW_S]
    if not near:
        before = [p for t, p in marks if t <= at]
        after = [p for t, p in marks if t > at]
        near = before[-1:] + after[:1]
    return statistics.median(near) / (REF_MS / 1e3)
