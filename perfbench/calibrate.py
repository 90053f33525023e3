"""A fixed reference kernel that gauges the machine's speed while a run measures.

The benchmark runs on a shared host whose speed changes within seconds:
the same kernel takes 1.8 ms for a while, then 3.3 ms, then 1.8 ms again
as other tenants come and go. Such swings hit the program and any other
Python code alike. So each repetition runs this kernel every few tens of
milliseconds, always between two statements and never inside one, and
converts every interval it measured to *reference time*: each stretch of
wall time between two ticks is divided by the local speed factor, the
median of the ticks around it against ``REFERENCE_S``. The time the
ticks themselves take is left out.

The kernel is the benchmark's own code and never calls the program, so
a change to the program moves the reference times and leaves the
factors alone. It does the kinds of work a statement does: regex
tokenizing, tuple and dict building, ``struct`` row packing, CRC32,
sorting and ``bisect`` probes.
"""

from __future__ import annotations

import bisect
import re
import statistics
import struct
import time
import zlib
from typing import List

_TOKEN = re.compile(r"\s*(?:(\d+)|('[^']*')|(\w+)|(.))")
_ROW = struct.Struct(">qqH")
_ROWS_PER_TICK = 160

#: Median kernel time at the reference speed (2-vCPU 2 GHz Xeon VM).
REFERENCE_S = 0.0025
#: Wall time between two ticks that ``maybe_tick`` aims at.
TICK_INTERVAL_S = 0.05
#: Ticks on each side of an interval whose median gives its speed factor.
HALF_WINDOW = 3


def kernel() -> int:
    """One fixed unit of reference work; returns a checksum of it."""
    index: dict = {}
    keys: List[bytes] = []
    crc = 0
    for i in range(_ROWS_PER_TICK):
        key = (i * 7919) % 100_003
        sql = f"INSERT INTO bench (id, v, name) VALUES ({key}, {i * 31 % 1000}, 'user{i:06d}')"
        tokens = [m.group(0).strip() for m in _TOKEN.finditer(sql)]
        name = tokens[-3].strip("'").encode()
        record = _ROW.pack(key, i * 31 % 1000, len(name)) + name
        crc = zlib.crc32(record, crc)
        packed = record[:8]
        bisect.insort(keys, packed)
        index[packed] = (key, tokens[4], record)
        probe = keys[bisect.bisect_left(keys, packed) // 2]
        crc ^= len(index[probe][2])
    return crc ^ len(sorted(index, reverse=True))


class Speedometer:
    """Ticks the kernel, then converts wall intervals to reference time.

    Creating one runs the kernel once to warm it, then ticks ``ticks``
    times, so that what follows has a speed factor of its own. Call
    ``tick`` or ``maybe_tick`` only between the intervals that will be
    converted, ``finish`` once after the last tick, then ``reference``
    for each interval.
    """

    def __init__(self, ticks: int = HALF_WINDOW) -> None:
        self.clock = time.perf_counter
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._factors: List[float] = []
        kernel()
        for _ in range(ticks):
            self.tick()

    def tick(self) -> None:
        start = self.clock()
        kernel()
        self.starts.append(start)
        self.ends.append(self.clock())

    def maybe_tick(self) -> None:
        """Tick when ``TICK_INTERVAL_S`` has passed since the last tick."""
        if self.clock() - self.ends[-1] >= TICK_INTERVAL_S:
            self.tick()

    def median_factor(self) -> float:
        return statistics.median(self._factors)

    def finish(self) -> None:
        """Fix the speed factor of the interval after each tick."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        self._factors = [
            statistics.median(durations[max(0, k - HALF_WINDOW + 1):k + HALF_WINDOW + 1])
            / REFERENCE_S
            for k in range(len(durations))
        ]

    def reference(self, start: float, end: float) -> float:
        """Reference time of the wall interval ``[start, end]``, ticks left out."""
        k = bisect.bisect_right(self.ends, start) - 1  # the last tick before it
        total, t = 0.0, start
        while True:
            factor = self._factors[max(k, 0)]
            if k + 1 >= len(self.starts) or end <= self.starts[k + 1]:
                return total + (end - t) / factor
            total += max(self.starts[k + 1] - t, 0.0) / factor
            t = max(t, self.ends[k + 1])
            k += 1
