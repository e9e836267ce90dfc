"""Machine-speed gauge: a fixed reference kernel timed between ops.

The reference machine shares its cores with other tenants, and its speed
drifts: the same op ran up to 2x slower for stretches of tens of seconds,
so raw times from runs made minutes apart spread by 10-45%.  A run cannot
average that away, so the end-to-end times are reported in reference
seconds: each measured time is scaled by the kernel's nominal time over its
time measured just before and just after it.  The kernels touch no rcl
code, so a change to rcl cannot move them.  Raw times stay in the detail
record.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REPS = 5
EVERY_S = 0.5


def interpreter_kernel() -> int:
    """Interpreter loops, small objects, small and medium NumPy calls."""
    counts: dict[int, int] = {}
    for i in range(6000):
        counts[i & 255] = counts.get(i & 255, 0) + i
    sets = [frozenset((i, i + 1, i + 2)) for i in range(1000)]
    a = np.arange(64, dtype=np.uint64)
    for _ in range(200):
        np.bitwise_count(a & np.uint64(12345))
        a = a ^ np.uint64(7)
    x = np.random.default_rng(0).random(40000)
    x.sort()
    return len(counts) + len(sets)


def array_kernel() -> int:
    """Whole-array NumPy passes over 2^18 masks, like a subset enumeration."""
    masks = np.arange(1 << 18, dtype=np.uint64)
    counts = np.zeros(masks.size, dtype=np.int32)
    for i in range(4):
        counts += (np.bitwise_count(masks & np.uint64(0x5555 << i)) >= 3).astype(np.int32)
    return int(counts[7])


# kernel -> its seconds at the reference machine's usual speed (the median
# of many timings on the 2 vCPU Xeon VM described in perfbench/README.md).
# Interpreter-bound code slowed by up to 2x there while whole-array NumPy
# code slowed far less, so each workload is gauged by the kernel that does
# its kind of work.
KERNELS = {
    "interpreter": (interpreter_kernel, 0.00175),
    "arrays": (array_kernel, 0.0028),
}


class Gauge:
    """Holds raw times until the next kernel timing, then releases them
    scaled by ``nominal / mean(kernel before, kernel after)``."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._kernel, self.nominal_s = KERNELS[kind]
        self.samples: list[float] = []
        self._pending: list[tuple[float, tuple[list, ...]]] = []
        self._kernel()  # the first call pays NumPy's lazy imports
        self._last = self._measure()
        self._at = perf_counter()

    def _measure(self) -> float:
        times = []
        for _ in range(REPS):
            t0 = perf_counter()
            self._kernel()
            times.append(perf_counter() - t0)
        value = statistics.median(times)
        self.samples.append(value)
        return value

    def due(self) -> bool:
        return perf_counter() - self._at >= EVERY_S

    def add(self, seconds: float, *buckets: list) -> None:
        """Queue a raw time; its scaled value is appended to each bucket at
        the next ``tick``."""
        self._pending.append((seconds, buckets))

    def tick(self) -> None:
        current = self._measure()
        factor = self.nominal_s / ((self._last + current) / 2)
        for seconds, buckets in self._pending:
            for bucket in buckets:
                bucket.append(seconds * factor)
        self._pending.clear()
        self._last = current
        self._at = perf_counter()
