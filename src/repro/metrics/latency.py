"""Latency accounting helpers.

Collects the per-component latencies the pipeline simulator reports and
summarises them like the paper's Table II (detection 230-500 ms, good
feature extraction ~40 ms, per-frame tracking 7-20 ms, overlay ~50 ms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True, slots=True)
class LatencyStats:
    """Summary statistics of one latency population (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    minimum: float
    maximum: float


def summarize_latencies(samples: Sequence[float]) -> LatencyStats:
    """Summarise a latency sample list; raises on empty input."""
    if len(samples) == 0:
        raise ValueError("no latency samples")
    arr = np.asarray(samples, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("latencies must be non-negative")
    return LatencyStats(
        count=int(arr.size),
        mean=float(arr.mean()),
        p50=float(np.percentile(arr, 50)),
        p95=float(np.percentile(arr, 95)),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
    )
