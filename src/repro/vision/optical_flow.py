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

from repro.vision.image import (
    _BilinearTaps,
    _bilinear_gather,
    _bilinear_taps,
    _gradients_on_tiles,
    _image_gradients_into,
    _scratch_buffer,
    build_pyramid,
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
    """Precomputed pyramid images for one frame.

    Tracking frame ``i`` to ``i+1`` and then ``i+1`` to ``i+2`` reuses the
    middle frame's pyramid, which roughly halves per-step cost — the same
    optimisation OpenCV exposes via ``buildOpticalFlowPyramid``.  Gradients
    are not held: :func:`track_features` computes them where it reads.

    Level 0 is the frame itself, uncopied (see :func:`build_pyramid`): a
    rendered ``float32`` frame stays ``float32``, and a pyramid the frame
    store builds holds the store's own read-only frame.  Levels 1 and up
    are ``float64``.  Every reader widens level 0 to ``float64`` where it
    reads it — the Scharr and decimation pads, the bilinear gather's
    corners, the block matcher's SAD — and the widening is exact, so a
    ``float32`` level 0 gives bit for bit the results of its widened copy.
    """

    def __init__(self, image: np.ndarray, levels: int) -> None:
        image = np.asarray(image)
        if image.ndim != 2:
            raise ValueError("FramePyramid expects a 2-D grayscale frame")
        self.shape = image.shape
        self.images = build_pyramid(image, levels)

    @property
    def levels(self) -> int:
        return len(self.images)


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


def _window_grid(radius: int) -> tuple[np.ndarray, np.ndarray]:
    """The full ``(2r+1, 2r+1)`` offset grid, kept for the frozen
    reference; :func:`track_features` offsets each axis on its own."""
    offs = np.arange(-radius, radius + 1, dtype=np.float64)
    dx, dy = np.meshgrid(offs, offs)
    return dx, dy


def _window_axes(points: np.ndarray, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Window sample coordinates around ``points``, one array per axis.

    The full grid's ``x`` at row ``i``, column ``j`` is ``p_x + offs[j]``,
    whatever ``i``, and its ``y`` is ``p_y + offs[i]``, so columns come
    back as ``(N, 1, W)`` and rows as ``(N, W, 1)``: the same values,
    each computed once instead of ``W`` times.
    """
    offs = np.arange(-radius, radius + 1, dtype=np.float64)
    wx = points[:, 0, None, None] + offs[None, None, :]
    wy = points[:, 1, None, None] + offs[None, :, None]
    return wx, wy


# Past this share of a level, its support tiles (halos included) cost
# more than one full-level sweep; both paths give identical values.
_SUPPORT_MAX_FRACTION = 0.5


def _support_tiles(taps: _BilinearTaps, size: int, shape: tuple[int, int]) -> np.ndarray:
    """``(y, x)`` corners of the ``size``-square tiles holding every pixel
    the windows' bilinear ``taps`` read, as a ``(K, 2)`` array.

    A tile is at least one window's taps wide, so a window touches at most
    two tiles per axis: those of its first tap and of its last tap's
    bottom-right neighbour (window offsets are sorted, and clamping and
    truncation are monotone).  The taps hold each window's columns and
    rows once, so both ends are read off per axis.  Edge tiles are shifted
    inside the level.
    """
    h, w = shape
    ys = taps.y0[:, [0, -1], 0]
    xs = taps.x0[:, 0, [0, -1]]
    ys[:, 1] += 1
    xs[:, 1] += 1
    touched = np.zeros((-(-h // size), -(-w // size)), dtype=bool)
    touched[ys[:, :, None] // size, xs[:, None, :] // size] = True
    origins = np.stack(np.nonzero(touched), axis=1) * size
    return np.minimum(origins, (h - size, w - size), out=origins)


def _window_gradients(
    images: list[np.ndarray], taps: list[_BilinearTaps], radius: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Scharr ``(Ix, Iy)`` planes per level, exact wherever that level's
    ``taps`` read; elsewhere these per-thread scratch planes hold stale
    values that no gather reads.  Levels narrower than a tile, or mostly
    covered by their tiles, take the full sweep; the rest share one tile
    stack, so a coarse level adds pixels, not passes.
    """
    size = 2 * radius + 2
    planes = []
    tiled = []
    for image, level_taps in zip(images, taps):
        h, w = image.shape
        ix = _scratch_buffer("lk.ix", (h, w))
        iy = _scratch_buffer("lk.iy", (h, w))
        planes.append((ix, iy))
        if h >= size and w >= size:
            origins = _support_tiles(level_taps, size, (h, w))
            if origins.shape[0] * (size + 2) ** 2 <= _SUPPORT_MAX_FRACTION * h * w:
                tiled.append((image, origins, ix, iy))
                continue
        _image_gradients_into(image, ix, iy)
    if tiled:
        _gradients_on_tiles(tiled, size)
    return planes


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

    window_area = (2 * params.window_radius + 1) ** 2

    flow = np.zeros((n, 2), dtype=np.float64)
    status = np.ones(n, dtype=bool)
    residual = np.full(n, np.inf, dtype=np.float64)

    # Window sample coordinates around each point in the previous frame,
    # per axis ((N, 1, W) columns, (N, W, 1) rows), and their taps, per
    # level: the level image and both gradients are sampled through one
    # coordinate pass, and the gradients are computed only where it reads.
    windows = []
    for level in range(levels):
        pts_l = points * 0.5**level
        wx, wy = _window_axes(pts_l, params.window_radius)
        windows.append((pts_l, wx, wy, _bilinear_taps(prev_pyr[level].shape, wx, wy)))
    gradients = _window_gradients(
        prev_pyr[:levels], [window[3] for window in windows], params.window_radius
    )

    for level in range(levels - 1, -1, -1):
        prev_l = prev_pyr[level]
        next_l = next_pyr[level]
        h, w = prev_l.shape
        pts_l, wx, wy, taps = windows[level]

        in_bounds = (
            (pts_l[:, 0] >= params.window_radius)
            & (pts_l[:, 0] <= w - 1 - params.window_radius)
            & (pts_l[:, 1] >= params.window_radius)
            & (pts_l[:, 1] <= h - 1 - params.window_radius)
        )

        patch_prev = _bilinear_gather(prev_l, taps)
        grad_x, grad_y = gradients[level]
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
