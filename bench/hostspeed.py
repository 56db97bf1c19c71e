"""Samples of the host's speed, taken all through a measured run.

The host this benchmark runs on changes speed by up to 2x within seconds to
minutes, as other tenants load the machine.  So while the program runs, a
timer interrupts it every ``INTERVAL_S`` seconds and times a fixed kernel of
about a millisecond: small numpy calls in a Python loop, the same kind of
work as the pipeline's DTW, SOM and autodiff loops.  A sample's speed is
1 / its kernel time, and a measured interval is scaled by the mean speed of
the samples taken during it:

    seconds x REFERENCE_S x mean(1 / kernel time) within the interval

which is the interval's length on a host where the kernel takes
``REFERENCE_S``.  A mean of speeds, not of times, because the work done in
a slice of time is proportional to the speed; it also keeps one sample that
an interrupt stretched from outweighing the rest.  The time spent in the kernel is kept apart, and
``Sampler.clock`` leaves it out, so the program's own time is not inflated.

The kernel touches only its own small arrays and runs between two bytecodes
of the main thread, so the program computes exactly what it computes
without it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy

# Kernel time of the machine the benchmark was tuned on, in a fast phase.
REFERENCE_S = 0.0006
INTERVAL_S = 0.1
ROUNDS = 20   # of the kernel: numpy calls and a chain of CHAIN objects each
CHAIN = 30


class _Node:
    __slots__ = ("value", "parent")

    def __init__(self, value, parent):
        self.value, self.parent = value, parent


class Sampler:
    def __init__(self):
        rng = numpy.random.default_rng(0)
        self._small = rng.random((8, 8))
        self._row, self._other = rng.random(300), rng.random(300)
        self._nodes, self._point = rng.random((5, 24)), rng.random(24)
        self.times: list[float] = []      # when each sample started
        self.kernel_s: list[float] = []   # how long its kernel took
        self.spent = 0.0                  # seconds spent sampling
        self._previous = None
        self.kernel()  # warm up numpy's dispatch before the first sample

    def kernel(self) -> float:
        """The fixed work whose duration measures the host's speed.

        Half small numpy calls (as in DTW and the SOM), half plain Python
        objects and dicts (as in the autodiff tape's bookkeeping).
        """
        acc = 0.0
        for i in range(ROUNDS):
            acc += float(numpy.abs(self._small @ self._small
                                   - self._small).max())
            best = numpy.minimum(self._row, self._other)
            best = numpy.minimum(best, self._other) + self._row
            deltas = self._nodes - self._point
            j = int(numpy.argmin(numpy.einsum("ij,ij->i", deltas, deltas)))
            acc += float(best[j]) + i * 0.5
            node, seen = None, {}
            for k in range(CHAIN):
                node = _Node(k, node)
            while node is not None:
                seen[id(node)] = node.value
                node = node.parent
            acc += len(seen)
        return acc

    def sample(self, *_) -> None:
        start = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.times.append(start)
        self.kernel_s.append(end - start)
        self.spent += time.perf_counter() - start

    def clock(self) -> float:
        """Seconds since an arbitrary origin, without the sampling time."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if self.spent == spent:  # no sample ran between the two reads
                return now - spent

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def speed(self, start: float, end: float) -> float:
        """Mean of 1 / kernel time over the samples taken in [start, end].

        ``start`` and ``end`` are ``time.perf_counter`` readings.  With
        fewer than three samples in the interval, the three nearest in time
        are used.
        """
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        while hi - lo < 3 and (lo > 0 or hi < len(self.times)):
            if lo > 0 and (hi == len(self.times) or
                           start - self.times[lo - 1] < self.times[hi] - end):
                lo -= 1
            else:
                hi += 1
        return statistics.fmean(1.0 / k for k in self.kernel_s[lo:hi])

    def scale(self, seconds: float, start: float, end: float) -> float:
        return seconds * REFERENCE_S * self.speed(start, end)
