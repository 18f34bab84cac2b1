"""Host-speed calibration kernel.

The benchmark host changes its own speed by tens of percent over seconds
to minutes, so a raw wall-clock figure mixes the program's cost with the
host's mood.  Every host-time metric is therefore reported twice: raw, and
scaled by ``NOMINAL_MS / k`` where ``k`` is the median time of this fixed
kernel measured next to the timed calls.  The kernel mixes Python dict and
list work with small NumPy ops on 64-row arrays -- the prediction engine's
own mix -- so a slow phase stretches both alike and the ratio cancels it.

This module imports nothing from the program under test: a change to the
program cannot change the yardstick.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: nominal kernel time; normalised values are expressed on a host whose
#: kernel takes exactly this long.  Never change it between runs that are
#: compared with each other.
NOMINAL_MS = 2.0

_ROWS = np.linspace(0.0, 1.0, 64 * 4).reshape(64, 4)
_CDF = np.cumsum(np.linspace(1.0, 2.0, 65))
_CDF /= _CDF[-1]
_U = (np.arange(64) * 0.61803398875) % 1.0


def kernel() -> float:
    """Fixed work: dict updates, small sorts, inverse-CDF gathers."""
    table: dict[tuple[int, int], int] = {}
    acc = 0.0
    for i in range(240):
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0) + 1
        pending = [(j, i) for j in range(8)]
        pending.sort(key=lambda item: -item[0])
        acc += pending[0][0]
        if i % 2 == 0:
            idx = np.searchsorted(_CDF, (_U + i * 1e-3) % 1.0)
            x = np.take(_CDF, idx) * _ROWS[:, i % 4]
            acc += float(np.maximum.accumulate(x + _ROWS[:, (i + 1) % 4])[-1])
    return acc + len(table)


def time_kernel() -> float:
    """Seconds one kernel call takes right now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class HostRef:
    """Kernel samples taken during one run, in the order they were taken.

    ``probe(n)`` times the kernel *n* times and stores the median as one
    sample; ``factor(i)`` is the time-scale factor for work done next to
    sample *i*: ``NOMINAL / median(samples i-2 .. i+2)``.  Multiply a
    host time by it (divide a rate by it) to normalise.
    """

    #: samples either side of the one next to the work
    WINDOW = 2

    def __init__(self):
        self.samples: list[float] = []

    def probe(self, n: int = 1) -> int:
        """Take one sample (median of *n* kernel calls); return its index."""
        self.samples.append(statistics.median(time_kernel() for _ in range(n)))
        return len(self.samples) - 1

    def factor(self, i: int) -> float:
        return self.factor_between(i - self.WINDOW, i + self.WINDOW)

    def factor_between(self, i: int, j: int) -> float:
        """Factor for work done between samples *i* and *j*."""
        return NOMINAL_MS / 1e3 / statistics.median(self.samples[max(0, i):j + 1])

    def global_factor(self) -> float:
        return NOMINAL_MS / 1e3 / statistics.median(self.samples)

    def ref_ms(self) -> float:
        """Raw kernel median of the run (``host.ref_ms``)."""
        return statistics.median(self.samples) * 1e3
