"""Host-speed calibration for the benchmark's time metrics.

The 2-core VMs this benchmark runs on change speed by about ±20% from one
30-second run to the next (other tenants share the physical cores), which
is as large as the regressions the time metrics are meant to catch.  Each
run therefore times a fixed pure-Python loop next to its measurements and
reports its times scaled to a reference host on which one slice of that
loop takes :data:`REFERENCE_SLICE_MS`.  The raw times are printed as well.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: One calibration slice on the reference host (a 2-core x86-64 VM, fast
#: phase), in milliseconds.
REFERENCE_SLICE_MS = 13.0
#: Slices per sample; the sample is their median, so one slice that
#: catches a garbage collection or a burst of interference does not count.
SLICES = 3


def _slice() -> float:
    """Seconds for a fixed loop of dict writes and integer arithmetic."""
    started = time.perf_counter()
    table = {}
    value = 0
    for index in range(60_000):
        table[index % 1000] = value * 3 + index
        value = (value + index * index) % 1_000_003
    return time.perf_counter() - started


class HostSpeed:
    """Calibration samples taken around and between measurements."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.times: List[float] = []

    def sample(self, slices: int = SLICES) -> float:
        """Take one sample; returns its slice time in milliseconds."""
        value = statistics.median(_slice() for _ in range(slices)) * 1000.0
        self.samples.append(value)
        self.times.append(time.perf_counter())
        return value

    def scale_near(self, moment: float, count: int = 3) -> float:
        """Scale factor from the ``count`` samples taken nearest ``moment``
        (a ``time.perf_counter()`` value)."""
        nearest = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - moment))
        return REFERENCE_SLICE_MS / statistics.median(self.samples[i] for i in nearest[:count])

    def scale(self, first: int, last: int) -> float:
        """Factor from this host's time to reference-host time, from the
        samples ``first`` .. ``last`` (inclusive)."""
        return REFERENCE_SLICE_MS / statistics.median(self.samples[first : last + 1])
