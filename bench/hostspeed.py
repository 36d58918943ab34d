"""Host-speed normalisation of measured times.

The benchmark shares its host with other tenants.  On the 2-core box it was
sized on, one fixed 0.15 s operation took anywhere from 0.105 s to 0.259 s
within a single minute, in phases lasting from seconds to whole runs.  Raw
times of one run then say more about the neighbours than about hnbody.

``HostSpeed`` times a fixed reference loop, which does not touch hnbody,
before and after each operation and every ``PERIOD_S`` during it (from a
SIGALRM handler in the calling thread).  The operation's time, less the
time of the references taken during it, is cut at each reference.  Each
piece is scaled by ``NOMINAL_S`` over the mean of the reference times at
its two ends.  That gives seconds at the host speed for which the
reference takes ``NOMINAL_S``.

The reference mixes small-array arithmetic in a Python loop with
medium-array arithmetic, like hnbody at n = 2 and at n = 128.  NOTES.md
gives the spreads measured with and without it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

NOMINAL_S = 0.0048  # reference loop time on a quiet host of the box the benchmark was sized on
PERIOD_S = 0.1  # reference interval inside an operation

_SMALL = np.arange(8.0) + 0j
_MEDIUM = np.outer(np.arange(128.0), np.arange(128.0)) + 0j


def reference_loop():
    y = _SMALL
    for _ in range(600):
        y = (y * 1.0000001 + 1e-9) / (_SMALL + 1.0)
    z = _MEDIUM
    for _ in range(16):
        z = (z * 1.0000001 + 1e-9) / (_MEDIUM + 1.0)


class HostSpeed:
    """Reference timings around and inside the measured work; ``samples`` keeps every one."""

    def __init__(self):
        self.samples = []
        self._last = self._time_reference()

    def _time_reference(self) -> float:
        start = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1]

    def scale(self) -> float:
        """Factor that turns the time of what ran since the previous call into nominal seconds."""
        before, self._last = self._last, self._time_reference()
        return NOMINAL_S / (0.5 * (before + self._last))

    def call(self, fn, *args, record=None):
        """Run ``fn(*args)``; returns its result, the nominal seconds it took and the raw seconds
        less the in-call references.

        ``record(start, end)``, when given, is told about each in-call reference.
        """
        marks = []  # (start of an in-call reference, its duration)

        def take(signum, frame):
            at = time.perf_counter()
            marks.append((at, self._time_reference()))
            if record is not None:
                record(at, at + marks[-1][1])

        previous = signal.signal(signal.SIGALRM, take)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            end = time.perf_counter()
        refs = [self._last] + [d for _, d in marks] + [self._time_reference()]
        self._last = refs[-1]
        cuts = [start] + [edge for at, d in marks for edge in (at, at + d)] + [end]
        pieces = [cuts[2 * i + 1] - cuts[2 * i] for i in range(len(marks) + 1)]
        nominal = sum(p * NOMINAL_S / (0.5 * (a + b)) for p, a, b in zip(pieces, refs, refs[1:]))
        return result, nominal, sum(pieces)
