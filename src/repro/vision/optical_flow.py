"""Iterative pyramidal Lucas-Kanade sparse optical flow [Lucas & Kanade 1981].

The equivalent of OpenCV's ``calcOpticalFlowPyrLK``, which the paper uses
to propagate good features from one DNN-detected frame through the
accumulated frames (paper §IV-C).  The implementation follows Bouguet's
classic pyramidal formulation and is vectorised across feature points:
all windows are gathered and iterated together, so tracking ~100 points
costs a handful of numpy operations per iteration.

Per-point status reports tracking failure, which is central to the paper's
behaviour: fast content loses features, which degrades box propagation and
raises the measured content-change velocity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.vision.image import (  # noqa: F401 (image_gradients used by FramePyramid)
    _bilinear_gather,
    _bilinear_taps,
    build_pyramid,
    image_gradients,
    sample_bilinear,
)


@dataclass(frozen=True, slots=True)
class LKParams:
    """Tuning knobs for pyramidal Lucas-Kanade.

    Defaults mirror common OpenCV usage (15x15 window, 3 pyramid levels,
    up to 10 iterations, 0.03 px convergence threshold).
    """

    window_radius: int = 7
    pyramid_levels: int = 3
    max_iterations: int = 10
    epsilon: float = 0.03
    min_eigen_threshold: float = 1e-5
    # A point whose appearance changed too much between frames is reported
    # lost.  0.055 (images in [0,1]) is tuned so deforming fast content
    # sheds features within a few steps while slow rigid content keeps
    # them — the differential that drives the paper's Observation 3.
    max_residual: float = 0.048

    def __post_init__(self) -> None:
        if self.window_radius < 1:
            raise ValueError("window_radius must be >= 1")
        if self.pyramid_levels < 1:
            raise ValueError("pyramid_levels must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.min_eigen_threshold <= 0:
            raise ValueError("min_eigen_threshold must be positive")
        # A non-positive residual ceiling silently marks every tracked point
        # lost, which reads as "fast content" and pins the adaptation policy
        # at its smallest setting.
        if self.max_residual <= 0:
            raise ValueError("max_residual must be positive")


class FramePyramid:
    """Precomputed pyramid (images + gradients) for one frame.

    Tracking frame ``i`` to ``i+1`` and then ``i+1`` to ``i+2`` reuses the
    middle frame's pyramid, which roughly halves per-step cost — the same
    optimisation OpenCV exposes via ``buildOpticalFlowPyramid``.

    Gradients are memoised per level: the first ``gradients(level)`` call
    computes them, every later one — across LK levels, repeated
    ``track_features`` calls, and tracker generations sharing a pyramid
    through the clip cache — returns the stored pair.  The memo is a pure
    function of the (immutable) pyramid images, so a hit is bit-identical
    to a recompute.
    """

    def __init__(self, image: np.ndarray, levels: int) -> None:
        image = np.asarray(image, dtype=np.float64)
        if image.ndim != 2:
            raise ValueError("FramePyramid expects a 2-D grayscale frame")
        self.shape = image.shape
        self.images = build_pyramid(image, levels)
        self._gradients: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(
            self.images
        )

    @classmethod
    def from_arrays(
        cls,
        images: "list[np.ndarray] | tuple[np.ndarray, ...]",
        gradients: "tuple[tuple[np.ndarray, np.ndarray], ...] | None" = None,
    ) -> "FramePyramid":
        """Adopt prebuilt pyramid levels without rebuilding them.

        ``images`` must be exactly what :func:`build_pyramid` would produce
        (finest first); ``gradients``, when given, pre-fills the per-level
        memo with ``(Ix, Iy)`` pairs.  This is the artifact-store read
        path: a stored pyramid is reconstructed as views over shared bytes
        instead of re-running blur/decimate and Scharr passes.
        """
        if not images:
            raise ValueError("from_arrays needs at least one pyramid level")
        pyramid = cls.__new__(cls)
        pyramid.shape = images[0].shape
        pyramid.images = list(images)
        memo: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(images)
        if gradients is not None:
            if len(gradients) != len(images):
                raise ValueError("gradients must pair one (Ix, Iy) per level")
            for level, pair in enumerate(gradients):
                memo[level] = (pair[0], pair[1])
        pyramid._gradients = memo
        return pyramid

    @property
    def levels(self) -> int:
        return len(self.images)

    def prefix(self, levels: int) -> "FramePyramid":
        """A pyramid limited to the first ``levels`` levels, sharing storage.

        :func:`~repro.vision.image.build_pyramid` is iterative — level
        ``i`` never depends on how many levels were requested — so the
        prefix of a deeper pyramid is bit-identical to building the
        shallower one directly.  The returned object shares this
        pyramid's images *and* its gradient memo (a gradient computed
        through either is visible to both), which is what lets a tracker
        tier requesting fewer levels reuse a deeper tier's warmed work.
        """
        if levels < 1:
            raise ValueError("levels must be >= 1")
        if levels >= self.levels:
            return self
        return _PyramidPrefix(self, levels)

    def gradients(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        cached = self._gradients[level]
        if cached is None:
            cached = image_gradients(self.images[level])
            self._gradients[level] = cached
        return cached

    def warm_gradients(self) -> None:
        """Materialise every level's gradient memo (idempotent).

        Lets a builder (e.g. :class:`~repro.vision.pyramid_cache.PyramidCache`
        with warming enabled) pay the gradient cost up front, off the
        consumer's critical path.
        """
        for level in range(self.levels):
            self.gradients(level)


class _PyramidPrefix(FramePyramid):
    """A truncated view of a deeper :class:`FramePyramid`.

    Must be a real ``FramePyramid`` instance: :func:`track_features` and
    the block matcher ``isinstance``-check their pyramid arguments and
    clamp to ``min(prev.levels, next.levels)``, so handing a consumer the
    *deeper* parent would change which levels run.  Gradient calls
    delegate to the parent so the memo is shared in both directions.
    """

    def __init__(self, parent: FramePyramid, levels: int) -> None:
        self._parent = parent
        self.shape = parent.shape
        self.images = parent.images[:levels]

    def gradients(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        if level >= len(self.images):
            raise IndexError(f"level {level} out of range for {len(self.images)}-level prefix")
        return self._parent.gradients(level)

    def warm_gradients(self) -> None:
        for level in range(self.levels):
            self.gradients(level)


@dataclass(frozen=True, slots=True)
class FlowResult:
    """Result of tracking N points between two frames.

    ``points``: ``(N, 2)`` tracked positions in the second frame.
    ``status``: ``(N,)`` bool, True where tracking succeeded.
    ``residual``: ``(N,)`` mean absolute window residual (diagnostics).
    """

    points: np.ndarray
    status: np.ndarray
    residual: np.ndarray

    def good_points(self) -> np.ndarray:
        return self.points[self.status]


def _window_grid(radius: int) -> tuple[np.ndarray, np.ndarray]:
    offs = np.arange(-radius, radius + 1, dtype=np.float64)
    dx, dy = np.meshgrid(offs, offs)
    return dx, dy


def track_features(
    prev_image: np.ndarray | FramePyramid,
    next_image: np.ndarray | FramePyramid,
    points: np.ndarray,
    params: LKParams | None = None,
) -> FlowResult:
    """Track ``points`` from ``prev_image`` to ``next_image``.

    ``points`` is ``(N, 2)`` in ``(x, y)`` order.  Both frames must share
    the same shape and be 2-D grayscale in ``[0, 1]``; either may be passed
    as a precomputed :class:`FramePyramid` to amortise pyramid construction
    across consecutive tracking steps.
    """
    params = params or LKParams()
    if not isinstance(prev_image, FramePyramid):
        prev_image = FramePyramid(prev_image, params.pyramid_levels)
    if not isinstance(next_image, FramePyramid):
        next_image = FramePyramid(next_image, params.pyramid_levels)
    if prev_image.shape != next_image.shape:
        raise ValueError("frame shapes differ")
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    n = points.shape[0]
    if n == 0:
        return FlowResult(
            points=np.zeros((0, 2)),
            status=np.zeros(0, dtype=bool),
            residual=np.zeros(0),
        )

    prev_pyr = prev_image.images
    next_pyr = next_image.images
    levels = min(prev_image.levels, next_image.levels)

    dx, dy = _window_grid(params.window_radius)
    window_area = dx.size

    flow = np.zeros((n, 2), dtype=np.float64)
    status = np.ones(n, dtype=bool)
    residual = np.full(n, np.inf, dtype=np.float64)

    for level in range(levels - 1, -1, -1):
        prev_l = prev_pyr[level]
        next_l = next_pyr[level]
        grad_x, grad_y = prev_image.gradients(level)
        scale = 0.5**level
        pts_l = points * scale
        h, w = prev_l.shape

        # Window sample coordinates around each point in the previous frame:
        # shapes (N, W, W).
        wx = pts_l[:, 0, None, None] + dx[None]
        wy = pts_l[:, 1, None, None] + dy[None]

        in_bounds = (
            (pts_l[:, 0] >= params.window_radius)
            & (pts_l[:, 0] <= w - 1 - params.window_radius)
            & (pts_l[:, 1] >= params.window_radius)
            & (pts_l[:, 1] <= h - 1 - params.window_radius)
        )

        # The level image and both gradients are sampled at identical
        # coordinates, so one coordinate pass serves all three gathers.
        taps = _bilinear_taps(prev_l.shape, wx, wy)
        patch_prev = _bilinear_gather(prev_l, taps)
        ix = _bilinear_gather(grad_x, taps)
        iy = _bilinear_gather(grad_y, taps)

        gxx = np.einsum("nij,nij->n", ix, ix)
        gxy = np.einsum("nij,nij->n", ix, iy)
        gyy = np.einsum("nij,nij->n", iy, iy)
        trace_half = (gxx + gyy) / 2.0
        disc = np.sqrt(np.maximum(((gxx - gyy) / 2.0) ** 2 + gxy * gxy, 0.0))
        min_eigen = (trace_half - disc) / window_area
        det = gxx * gyy - gxy * gxy

        solvable = in_bounds & (min_eigen > params.min_eigen_threshold) & (det > 1e-12)
        # Only the finest level is authoritative for failure: a point that
        # falls outside a *coarse* level's usable area simply skips that
        # level's refinement (matching OpenCV), keeping its current flow.
        if level == 0:
            status &= solvable
        # Keep the solve well-defined for failed points; their output is
        # ignored but must not produce NaNs that poison the arrays.
        det_safe = np.where(det > 1e-12, det, 1.0)

        v = np.zeros((n, 2), dtype=np.float64)
        active = solvable.copy()
        for _ in range(params.max_iterations):
            if not active.any():
                break
            # Gather only the rows still iterating: once a point converges
            # its window never needs resampling again, and convergence is
            # front-loaded (most points stop within a few iterations), so
            # the tail iterations touch a small fraction of N.  Per-row
            # arithmetic is unchanged, so results are bit-identical to the
            # all-rows formulation.  When every row is active the gather
            # copy is skipped entirely.
            if active.all():
                rows = slice(None)
            else:
                rows = np.nonzero(active)[0]
            qx = wx[rows] + (flow[rows, 0] + v[rows, 0])[:, None, None]
            qy = wy[rows] + (flow[rows, 1] + v[rows, 1])[:, None, None]
            patch_next = sample_bilinear(next_l, qx, qy)
            diff = patch_prev[rows] - patch_next
            bx = np.einsum("nij,nij->n", diff, ix[rows])
            by = np.einsum("nij,nij->n", diff, iy[rows])
            dvx = (gyy[rows] * bx - gxy[rows] * by) / det_safe[rows]
            dvy = (gxx[rows] * by - gxy[rows] * bx) / det_safe[rows]
            v[rows, 0] += dvx
            v[rows, 1] += dvy
            active[rows] = np.hypot(dvx, dvy) >= params.epsilon

        flow = np.where(solvable[:, None], flow + v, flow)

        if level == 0:
            qx = wx + flow[:, 0][:, None, None]
            qy = wy + flow[:, 1][:, None, None]
            patch_next = sample_bilinear(next_l, qx, qy)
            residual = np.abs(patch_prev - patch_next).mean(axis=(1, 2))
        else:
            flow *= 2.0

    new_points = points + flow
    h0, w0 = prev_pyr[0].shape
    inside = (
        (new_points[:, 0] >= 0)
        & (new_points[:, 0] <= w0 - 1)
        & (new_points[:, 1] >= 0)
        & (new_points[:, 1] <= h0 - 1)
    )
    status = status & inside & (residual <= params.max_residual)
    return FlowResult(points=new_points, status=status, residual=residual)
