"""Machine speed, sampled all the time the benchmark measures.

The benchmark shares a busy machine whose speed moves by a fifth or more
within a second, for every process alike.  While a Speedometer is active, a
wall-clock timer interrupts the program every INTERVAL_S and the signal
handler times a short fixed integer loop of the benchmark's own, the sample.
Python runs the handler between two bytecodes of whatever is running, so the
samples fall inside the jobs as well as between them.

``reference(start, end)`` takes the samples of an interval out of its wall
time and rescales the rest to reference speed, the speed at which one sample
takes REF_SAMPLE_S: a slower endoscope still reads slower, a slower moment of
the machine does not.
"""

from __future__ import annotations

import signal
from array import array
from bisect import bisect_left
from time import perf_counter

INTERVAL_S = 0.01
# one sample's time at reference speed: near its median on the two-core
# x86_64 host the benchmark was defined on, so reference figures read close
# to wall-clock ones there
REF_SAMPLE_S = 0.00018


def _loop() -> int:
    m = (1 << 127) - 1
    a, s = 3**40, 0
    for i in range(1, 300):
        a = (a * a + i) % m
        s += a & 0xFF
    return s


class Speedometer:
    def __init__(self):
        self.at = array("d")  # sample start times, ascending
        self.took = array("d")  # sample durations
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        _loop()
        self.at.append(t0)
        self.took.append(perf_counter() - t0)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def settle(self, end: float) -> None:
        """Wait until a sample has started after ``end``."""
        while not self.at or self.at[-1] < end:
            _loop()

    def reference(self, start: float, end: float) -> tuple[float, float]:
        """(own, reference) seconds of the interval from ``start`` to ``end``.

        Own seconds are the wall time less the samples taken inside the
        interval.  Reference seconds rescale them by the mean sample time,
        from the last sample before the interval to the first one after it.
        """
        i, j = bisect_left(self.at, start), bisect_left(self.at, end)
        own = end - start - sum(self.took[i:j])
        around = self.took[max(i - 1, 0) : j + 1]
        return own, own * REF_SAMPLE_S * len(around) / sum(around)
