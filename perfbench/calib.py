"""Host-speed calibration.

The speed of the hosts this benchmark runs on changes by up to ~1.8x in
phases of half a second to tens of seconds, and CPU time tracks wall time,
so raw op times are not comparable between runs.  A fixed pure-Python loop
is therefore timed every SAMPLE_EVERY seconds from a SIGALRM handler, and
every measured interval is rescaled to reference speed:

    t_ref = t_raw * calib_ref / calib_now

The loop mixes what the library spends its time on (Fraction arithmetic,
small tuples, sorting with key closures, json) and never calls the library,
so a change to the library cannot move it.  Time spent inside the handler
is removed from every interval it falls into.
"""

from __future__ import annotations

import json
import signal
import statistics
import time
from bisect import bisect_right
from fractions import Fraction

SAMPLE_EVERY = 0.1


def calib_loop() -> int:
    acc = Fraction(0)
    out = []
    for i in range(1, 500):
        acc += Fraction(i % 7, i % 11 + 1)
        out.append(tuple(sorted((i % 5, i % 3, i % 7))))
    out.sort(key=lambda t: (t[1], t[0]))
    return len(json.dumps(out[:50])) + acc.numerator % 7


class HostClock:
    """Context manager sampling the calibration loop while it is active.

    After exit, `ref_seconds(a, b)` converts a perf_counter interval taken
    inside the context into reference-speed seconds and `raw_seconds(a, b)`
    gives the same interval with only the sampling time removed.
    """

    def __init__(self, calib_ref_ms: float):
        self.calib_ref_ms = calib_ref_ms
        self.starts: list = []
        self.ends: list = []
        self._busy = False
        self._ref = None
        self._raw = None

    def _sample(self, *_):
        if self._busy:  # a signal that lands inside the handler itself
            return
        self._busy = True
        a = time.perf_counter()
        calib_loop()
        self.starts.append(a)
        self.ends.append(time.perf_counter())
        self._busy = False

    def __enter__(self):
        calib_loop()  # the first call in a fresh process runs cold
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        ms = self.samples_ms()
        # median of three neighbours: one noisy sample cannot set the rate,
        # and a phase switch moves it within one sample period
        smooth = [statistics.median(ms[max(0, k - 1):k + 2]) for k in range(len(ms))]
        self._ref = self._cumulative([self.calib_ref_ms / c for c in smooth])
        self._raw = self._cumulative([1.0] * len(ms))
        return False

    def samples_ms(self) -> list:
        return [(b - a) * 1000.0 for a, b in zip(self.starts, self.ends)]

    def _cumulative(self, rates):
        """Breakpoints of a piecewise-linear clock: sample k sets the rate
        from the midpoint before it to the midpoint after it, except inside
        the sample itself, where the clock stands still."""
        points, values, slopes = [], [], []
        total = 0.0
        last_t, last_rate = self.starts[0], 0.0
        for k, rate in enumerate(rates):
            marks = [(self.starts[k], 0.0), (self.ends[k], rate)]
            if k > 0:
                marks.insert(0, ((self.ends[k - 1] + self.starts[k]) / 2, rate))
            for t, slope in marks:
                total += (t - last_t) * last_rate
                points.append(t)
                values.append(total)
                slopes.append(slope)
                last_t, last_rate = t, slope
        return points, values, slopes

    @staticmethod
    def _at(clock, t: float) -> float:
        points, values, slopes = clock
        i = max(bisect_right(points, t) - 1, 0)
        return values[i] + (t - points[i]) * slopes[i]

    def ref_seconds(self, a: float, b: float) -> float:
        return self._at(self._ref, b) - self._at(self._ref, a)

    def raw_seconds(self, a: float, b: float) -> float:
        return self._at(self._raw, b) - self._at(self._raw, a)

    def calib_ms(self) -> float:
        """Median raw calibration time over the context."""
        return statistics.median(self.samples_ms())
