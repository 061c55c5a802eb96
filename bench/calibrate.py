"""Host-speed calibration: a short fixed kernel sampled between units of work.

On a virtual machine that shares its CPUs with other tenants, a rep slows
by up to a half for seconds to minutes at a time.  The kernel below
touches nothing of the program.  A rep runs it between its units of work
(clips, cells, fleet sizes), at most once per ``SAMPLE_EVERY_S``, in the
process doing the work, and every time the rep reports is multiplied by
``REFERENCE_S / mean kernel time``: it reads as seconds of a machine on
which the kernel takes ``REFERENCE_S``.  Samples are taken while the
program is between units and has no other thread running, so the program
cannot slow the kernel; the raw times stay in the rep record.

On the reference machine of ``bench/README.md`` (2-vCPU x86-64 VM,
CPython 3.11), scaling by samples taken between the clip-stream units cut
the spread of repeated reps (interquartile range over median) from 10.8%
to 4.5%; scaling by samples taken only before and after each rep did not
help.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

# The kernel's time on the reference machine when idle: scaled times read
# as raw ones there.
REFERENCE_S = 0.017
SAMPLE_EVERY_S = 0.5

_FRAME = np.arange(480 * 640, dtype=np.float64).reshape(480, 640) % 97.0


def kernel_s() -> float:
    """Seconds for one pass of interpreter work plus frame-sized numpy stencils."""
    start = time.perf_counter()
    heap: list[int] = []
    counts: dict[int, int] = {}
    for i in range(12_000):
        heapq.heappush(heap, (i * 7919) % 1009)
        counts[i % 257] = counts.get(i % 257, 0) + 1
    while heap:
        heapq.heappop(heap)
    a = _FRAME.copy()
    b = np.empty_like(a)
    for _ in range(8):
        b[1:-1, 1:-1] = 0.25 * (a[:-2, 1:-1] + a[2:, 1:-1] + a[1:-1, :-2] + a[1:-1, 2:])
        a, b = b, a
    return time.perf_counter() - start


class HostSpeed:
    """Kernel samples taken between units of work, at most one per ``SAMPLE_EVERY_S``."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self, force: bool = False) -> None:
        if not force and time.monotonic() - self._last < SAMPLE_EVERY_S:
            return
        self.samples.append(kernel_s())
        self._last = time.monotonic()
