"""Video-content change rate from tracker intermediate results (Eq. 3).

The metric is the mean per-frame motion magnitude of the tracked feature
points::

    v_{i,j} = sum_k |f_i^k - f_j^k|  /  (M * (j - i))

normalised by the frame gap ``j - i`` because the tracker skips frames.
It is "almost free" (paper §IV-D2): the displacements already exist as the
tracker's output.
"""

from __future__ import annotations

import numpy as np


def motion_velocity(
    prev_points: np.ndarray,
    next_points: np.ndarray,
    frame_gap: int,
    status: np.ndarray | None = None,
) -> float | None:
    """Eq. 3: mean feature displacement per frame between two tracked frames.

    ``prev_points``/``next_points`` are ``(M, 2)`` positions of the same
    features in the earlier and later frame; ``frame_gap`` is ``j - i``.
    ``status`` optionally restricts to successfully tracked features.
    Returns ``None`` when no feature survives — the caller decides how to
    handle an unmeasurable chunk.
    """
    if frame_gap <= 0:
        raise ValueError("frame_gap must be positive")
    prev_points = np.asarray(prev_points, dtype=np.float64).reshape(-1, 2)
    next_points = np.asarray(next_points, dtype=np.float64).reshape(-1, 2)
    if prev_points.shape != next_points.shape:
        raise ValueError("point arrays must have matching shapes")
    if status is not None:
        mask = np.asarray(status, dtype=bool)
        prev_points = prev_points[mask]
        next_points = next_points[mask]
    if prev_points.shape[0] == 0:
        return None
    displacement = np.hypot(
        next_points[:, 0] - prev_points[:, 0], next_points[:, 1] - prev_points[:, 1]
    )
    return float(displacement.mean() / frame_gap)


class MotionVelocityEstimator:
    """Accumulates per-step velocity samples over one detection cycle.

    AdaVP decides the *next* DNN setting from the velocity measured during
    the *current* cycle (§IV-D3), so the pipeline starts a fresh estimator
    at each cycle boundary and reads the aggregate at the end.
    """

    def __init__(self) -> None:
        self._samples: list[float] = []

    def add_sample(self, velocity: float) -> None:
        if velocity < 0:
            raise ValueError("velocity must be non-negative")
        self._samples.append(velocity)

    def cycle_velocity(self) -> float | None:
        """Mean velocity over the cycle, or ``None`` if nothing was tracked."""
        if not self._samples:
            return None
        return float(np.mean(self._samples))
