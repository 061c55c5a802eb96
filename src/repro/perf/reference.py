"""Frozen pre-optimisation copies of the vision hot paths.

These are the implementations the repo shipped *before* the perf passes:
the pure-Python occupancy-grid suppression that
``good_features_to_track`` used, the Lucas-Kanade iteration loop that
resampled every window on every iteration regardless of convergence
(both from the PR "live-executor races & hot-path perf"), the
meshgrid-everything frame renderer from before the frame-store PR —
full-grid bilinear background scroll, per-call warp-table
RNG construction, and a fresh render of every frame — and the
allocate-per-tap separable convolution stack (kernel build, reflect
pad, ``out += k * padded[...]`` loop, blur-everything-then-subsample
pyramid level, three separate structure-tensor blurs) from before the
fused-engine PR.  The LK and renderer references sample through
:func:`sample_bilinear_reference`, the bilinear sampler from before its
coordinate pass was split from its gather, so no change to the live
sampler can reach them.

They exist for exactly one purpose: the microbenchmark harness
(:mod:`repro.perf.benches`) times them against the live implementations
and records the speedup in ``BENCH_micro.json``, so the perf trajectory
is measured against a fixed baseline instead of a guess.  They are also
the oracle for the equivalence tests — the optimised code must reproduce
their output bit for bit.

Do not "fix" or optimise this module; it is deliberately frozen.
"""

from __future__ import annotations

import numpy as np

from repro.geometry import Box
from repro.video.objects import SceneObject
from repro.video.render import (
    _BACKGROUND_TILE,
    _TEXTURE_TILE,
    make_background,
    make_object_texture,
    _smooth_noise,
)
from repro.video.scene import Scene
from repro.vision.optical_flow import (
    FlowResult,
    FramePyramid,
    LKParams,
    _window_grid,
)


def sample_bilinear_reference(
    image: np.ndarray, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """The one-piece bilinear sampler: ``np.clip`` through its dispatch
    wrapper, then truncation, weights and the four flat gathers, all in
    one body per call.  The live sampler splits the coordinate pass from
    the gather so callers can share it; the frozen LK and renderer
    references sample through this copy so they cannot follow it."""
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape
    if h < 2 or w < 2:
        raise ValueError("sample_bilinear needs an image of at least 2x2")
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    out_shape = xs.shape
    xs = np.clip(xs.ravel(), 0.0, w - 1.000001)
    ys = np.clip(ys.ravel(), 0.0, h - 1.000001)
    x0 = xs.astype(np.intp)
    y0 = ys.astype(np.intp)
    fx = xs - x0
    fy = ys - y0
    flat = image.ravel()
    base = y0 * w + x0
    tl = flat[base]
    tr = flat[base + 1]
    bl = flat[base + w]
    br = flat[base + w + 1]
    top = tl + (tr - tl) * fx
    bottom = bl + (br - bl) * fx
    return (top + (bottom - top) * fy).reshape(out_shape)


def _gaussian_kernel1d_reference(sigma: float, radius: int | None = None) -> np.ndarray:
    """The pre-fused-engine kernel builder: rebuilt on every call."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if radius is None:
        radius = max(1, int(round(3.0 * sigma)))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    return kernel / kernel.sum()


def _convolve1d_reflect_reference(
    image: np.ndarray, kernel: np.ndarray, axis: int
) -> np.ndarray:
    """The pre-fused-engine tap loop: a fresh ``np.pad`` per axis and a
    fresh ``k * padded[...]`` array per tap."""
    radius = len(kernel) // 2
    pad = [(0, 0), (0, 0)]
    pad[axis] = (radius, radius)
    padded = np.pad(image, pad, mode="reflect")
    out = np.zeros_like(image, dtype=np.float64)
    for i, k in enumerate(kernel):
        if axis == 0:
            out += k * padded[i : i + image.shape[0], :]
        else:
            out += k * padded[:, i : i + image.shape[1]]
    return out


def gaussian_blur_reference(image: np.ndarray, sigma: float) -> np.ndarray:
    """The pre-fused-engine separable Gaussian blur."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError("gaussian_blur expects a 2-D image")
    kernel = _gaussian_kernel1d_reference(sigma)
    return _convolve1d_reflect_reference(
        _convolve1d_reflect_reference(image, kernel, 0), kernel, 1
    )


_SCHARR_DERIV_REFERENCE = np.array([-1.0, 0.0, 1.0]) / 2.0
_SCHARR_SMOOTH_REFERENCE = np.array([3.0, 10.0, 3.0]) / 16.0


def image_gradients_reference(image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pre-fused-engine Scharr gradients: four independent padded
    convolutions per frame."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError("image_gradients expects a 2-D image")
    ix = _convolve1d_reflect_reference(
        _convolve1d_reflect_reference(image, _SCHARR_DERIV_REFERENCE, 1),
        _SCHARR_SMOOTH_REFERENCE,
        0,
    )
    iy = _convolve1d_reflect_reference(
        _convolve1d_reflect_reference(image, _SCHARR_DERIV_REFERENCE, 0),
        _SCHARR_SMOOTH_REFERENCE,
        1,
    )
    return ix, iy


def pyramid_down_reference(image: np.ndarray) -> np.ndarray:
    """The pre-fused-engine pyramid level: blur every sample at full
    resolution, then throw three quarters of them away."""
    image = np.asarray(image, dtype=np.float64)
    if min(image.shape) < 2:
        raise ValueError("image too small to downsample")
    blurred = gaussian_blur_reference(image, sigma=1.0)
    return blurred[::2, ::2]


def build_pyramid_reference(image: np.ndarray, levels: int) -> list[np.ndarray]:
    """The pre-fused-engine pyramid builder."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    pyramid = [np.asarray(image, dtype=np.float64)]
    for _ in range(levels - 1):
        current = pyramid[-1]
        if min(current.shape) < 16:
            break
        pyramid.append(pyramid_down_reference(current))
    return pyramid


def shi_tomasi_response_reference(
    image: np.ndarray, window_sigma: float = 1.5
) -> np.ndarray:
    """The pre-fused-engine corner response: three separate full blurs of
    the structure-tensor products, all arithmetic out-of-place."""
    ix, iy = image_gradients_reference(image)
    sxx = gaussian_blur_reference(ix * ix, window_sigma)
    syy = gaussian_blur_reference(iy * iy, window_sigma)
    sxy = gaussian_blur_reference(ix * iy, window_sigma)
    trace_half = (sxx + syy) / 2.0
    disc = np.sqrt(np.maximum(((sxx - syy) / 2.0) ** 2 + sxy * sxy, 0.0))
    return trace_half - disc


def suppress_min_distance_reference(
    candidate_xs: np.ndarray,
    candidate_ys: np.ndarray,
    min_distance: float,
    max_corners: int,
) -> np.ndarray:
    """The seed revision's greedy NMS: a dict-of-cells occupancy grid
    walked with three nested Python loops per candidate."""
    cell = max(min_distance, 1.0)
    grid: dict[tuple[int, int], list[tuple[float, float]]] = {}
    selected: list[tuple[float, float]] = []
    min_dist_sq = min_distance * min_distance
    for x, y in zip(candidate_xs, candidate_ys):
        gx, gy = int(x // cell), int(y // cell)
        ok = True
        for nx in (gx - 1, gx, gx + 1):
            for ny in (gy - 1, gy, gy + 1):
                for px, py in grid.get((nx, ny), ()):
                    if (px - x) ** 2 + (py - y) ** 2 < min_dist_sq:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            selected.append((float(x), float(y)))
            grid.setdefault((gx, gy), []).append((float(x), float(y)))
            if len(selected) >= max_corners:
                break
    return np.asarray(selected, dtype=np.float64).reshape(-1, 2)


def track_features_reference(
    prev_image: np.ndarray | FramePyramid,
    next_image: np.ndarray | FramePyramid,
    points: np.ndarray,
    params: LKParams | None = None,
) -> FlowResult:
    """The seed revision's ``track_features``: every Gauss-Newton iteration
    resamples and solves all N windows, converged or not."""
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

        wx = pts_l[:, 0, None, None] + dx[None]
        wy = pts_l[:, 1, None, None] + dy[None]

        in_bounds = (
            (pts_l[:, 0] >= params.window_radius)
            & (pts_l[:, 0] <= w - 1 - params.window_radius)
            & (pts_l[:, 1] >= params.window_radius)
            & (pts_l[:, 1] <= h - 1 - params.window_radius)
        )

        patch_prev = sample_bilinear_reference(prev_l, wx, wy)
        ix = sample_bilinear_reference(grad_x, wx, wy)
        iy = sample_bilinear_reference(grad_y, wx, wy)

        gxx = np.einsum("nij,nij->n", ix, ix)
        gxy = np.einsum("nij,nij->n", ix, iy)
        gyy = np.einsum("nij,nij->n", iy, iy)
        trace_half = (gxx + gyy) / 2.0
        disc = np.sqrt(np.maximum(((gxx - gyy) / 2.0) ** 2 + gxy * gxy, 0.0))
        min_eigen = (trace_half - disc) / window_area
        det = gxx * gyy - gxy * gxy

        solvable = in_bounds & (min_eigen > params.min_eigen_threshold) & (det > 1e-12)
        if level == 0:
            status &= solvable
        det_safe = np.where(det > 1e-12, det, 1.0)

        v = np.zeros((n, 2), dtype=np.float64)
        active = solvable.copy()
        for _ in range(params.max_iterations):
            if not active.any():
                break
            qx = wx + (flow[:, 0] + v[:, 0])[:, None, None]
            qy = wy + (flow[:, 1] + v[:, 1])[:, None, None]
            patch_next = sample_bilinear_reference(next_l, qx, qy)
            diff = patch_prev - patch_next
            bx = np.einsum("nij,nij->n", diff, ix)
            by = np.einsum("nij,nij->n", diff, iy)
            dvx = (gyy * bx - gxy * by) / det_safe
            dvy = (gxx * by - gxy * bx) / det_safe
            step = np.where(active[:, None], np.stack([dvx, dvy], axis=1), 0.0)
            v += step
            active &= np.hypot(step[:, 0], step[:, 1]) >= params.epsilon

        flow = np.where(solvable[:, None], flow + v, flow)

        if level == 0:
            qx = wx + flow[:, 0][:, None, None]
            qy = wy + flow[:, 1][:, None, None]
            patch_next = sample_bilinear_reference(next_l, qx, qy)
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


def block_motion_field_reference(
    prev_frame: np.ndarray | FramePyramid,
    next_frame: np.ndarray | FramePyramid,
    points: np.ndarray,
    params: "BlockMotionParams | None" = None,
) -> "BlockMotionField":
    """The naive block matcher: one Python loop per block per candidate.

    Semantics are identical to :func:`repro.vision.block_motion
    .block_motion_field` — clamped-border patch gather, row-major
    ``(dy, dx)`` candidate scan with strict ``<`` tie-breaking, per-level
    prediction doubling — evaluated one block at a time.  Each block's SAD
    reduces a C-contiguous ``(B, B)`` patch exactly as the vectorised
    version reduces its row of the ``(N, B*B)`` candidate matrix, so the
    two are bit-identical, which the bench harness asserts before timing.
    """
    from repro.vision.block_motion import BlockMotionField, BlockMotionParams

    params = params or BlockMotionParams()
    if not isinstance(prev_frame, FramePyramid):
        prev_frame = FramePyramid(prev_frame, params.pyramid_levels)
    if not isinstance(next_frame, FramePyramid):
        next_frame = FramePyramid(next_frame, params.pyramid_levels)
    if prev_frame.shape != next_frame.shape:
        raise ValueError("frame shapes differ")
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    n = points.shape[0]
    if n == 0:
        return BlockMotionField(
            points=np.zeros((0, 2)),
            vectors=np.zeros((0, 2)),
            cost=np.zeros(0),
            valid=np.zeros(0, dtype=bool),
        )

    block = params.block_size
    offsets = np.arange(block, dtype=np.intp) - block // 2
    levels = min(prev_frame.levels, next_frame.levels, params.pyramid_levels)

    def gather(image: np.ndarray, cx: int, cy: int) -> np.ndarray:
        height, width = image.shape
        rows = np.clip(cy + offsets, 0, height - 1)
        cols = np.clip(cx + offsets, 0, width - 1)
        return image[rows[:, None], cols[None, :]]

    displacement = np.zeros((n, 2), dtype=np.intp)
    sad = np.zeros(n, dtype=np.float64)
    for level in range(levels - 1, -1, -1):
        prev_level = prev_frame.images[level]
        next_level = next_frame.images[level]
        scale = 0.5**level
        radius = params.coarse_radius if level == levels - 1 else params.refine_radius
        for i in range(n):
            cx = int(np.rint(points[i, 0] * scale))
            cy = int(np.rint(points[i, 1] * scale))
            patch = gather(prev_level, cx, cy)
            best_sad = np.inf
            best_dx = int(displacement[i, 0])
            best_dy = int(displacement[i, 1])
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    candidate = gather(
                        next_level,
                        cx + int(displacement[i, 0]) + dx,
                        cy + int(displacement[i, 1]) + dy,
                    )
                    value = float(np.abs(candidate - patch).sum())
                    if value < best_sad:
                        best_sad = value
                        best_dx = int(displacement[i, 0]) + dx
                        best_dy = int(displacement[i, 1]) + dy
            displacement[i, 0] = best_dx
            displacement[i, 1] = best_dy
            sad[i] = best_sad
        if level > 0:
            displacement = displacement * 2

    vectors = displacement.astype(np.float64)
    cost = sad / float(block * block)
    height, width = prev_frame.shape
    target_x = points[:, 0] + vectors[:, 0]
    target_y = points[:, 1] + vectors[:, 1]
    valid = (
        (cost <= params.max_match_cost)
        & (target_x >= 0)
        & (target_x <= width - 1)
        & (target_y >= 0)
        & (target_y <= height - 1)
    )
    return BlockMotionField(points=points, vectors=vectors, cost=cost, valid=valid)


def warp_modulation_reference(
    seed: int, base_period: float, age: float
) -> tuple[float, float]:
    """The pre-frame-store-PR ``_warp_modulation``: a fresh
    ``default_rng`` built per object per frame to redraw the same
    frequency/phase tables."""
    rng = np.random.default_rng(seed ^ 0x3A7B)
    freqs = rng.uniform(0.6, 1.9, size=3) / base_period
    phases = rng.uniform(0.0, 2.0 * np.pi, size=6)
    angle = 2.0 * np.pi * freqs * age
    mod_u = float(np.sin(angle + phases[:3]).sum() / 3.0)
    mod_v = float(np.sin(angle + phases[3:]).sum() / 3.0)
    return mod_u, mod_v


class ReferenceFrameRenderer:
    """The pre-frame-store-PR ``FrameRenderer`` render path, cache stripped.

    Full ``meshgrid`` + :func:`sample_bilinear_reference` background scroll over
    every H×W point, per-frame warp-table RNG reconstruction, 2-D
    object-local grids, and out-of-place noise arithmetic.  Texture and
    warp-field construction are shared with the live renderer (they are
    scene setup, not the hot path) and cached here exactly as they were
    then, so timed renders measure per-frame work only.
    """

    def __init__(self, scene: Scene) -> None:
        self.scene = scene
        self._background = make_background(
            scene.seed ^ 0xBAC4, scene.config.background_contrast
        )
        self._textures: dict[int, np.ndarray] = {}
        self._warp_fields: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _texture_for(self, obj: SceneObject) -> np.ndarray:
        texture = self._textures.get(obj.object_id)
        if texture is None:
            texture = make_object_texture(
                obj.texture_seed, self.scene.config.object_contrast
            )
            self._textures[obj.object_id] = texture
        return texture

    def _warp_fields_for(self, obj: SceneObject) -> tuple[np.ndarray, np.ndarray]:
        fields = self._warp_fields.get(obj.object_id)
        if fields is None:
            rng = np.random.default_rng(obj.texture_seed ^ 0xDEF0)
            fields = (
                _smooth_noise(rng, (_TEXTURE_TILE, _TEXTURE_TILE), sigma=2.5),
                _smooth_noise(rng, (_TEXTURE_TILE, _TEXTURE_TILE), sigma=2.5),
            )
            self._warp_fields[obj.object_id] = fields
        return fields

    def _render_background(self, frame_index: int) -> np.ndarray:
        cfg = self.scene.config
        off_x, off_y = self.scene.camera_offset(frame_index)
        ys = (np.arange(cfg.frame_height, dtype=np.float64) + off_y) % (
            _BACKGROUND_TILE - 1
        )
        xs = (np.arange(cfg.frame_width, dtype=np.float64) + off_x) % (
            _BACKGROUND_TILE - 1
        )
        grid_x, grid_y = np.meshgrid(xs, ys)
        return sample_bilinear_reference(self._background, grid_x, grid_y)

    def _paint_object(
        self, frame: np.ndarray, obj: SceneObject, full_box: Box, frame_index: int
    ) -> None:
        cfg = self.scene.config
        rows, cols = full_box.pixel_slice((cfg.frame_height, cfg.frame_width))
        if rows.stop <= rows.start or cols.stop <= cols.start:
            return
        if full_box.width < 1e-6 or full_box.height < 1e-6:
            return
        ys = np.arange(rows.start, rows.stop, dtype=np.float64) + 0.5
        xs = np.arange(cols.start, cols.stop, dtype=np.float64) + 0.5
        grid_x, grid_y = np.meshgrid(xs, ys)
        u = (grid_x - full_box.left) / full_box.width * (_TEXTURE_TILE - 1)
        v = (grid_y - full_box.top) / full_box.height * (_TEXTURE_TILE - 1)
        inside = (
            (u >= 0) & (u <= _TEXTURE_TILE - 1) & (v >= 0) & (v <= _TEXTURE_TILE - 1)
        )
        if obj.deform_amp > 0:
            field_u, field_v = self._warp_fields_for(obj)
            age = frame_index - obj.spawn_frame
            mod_u, mod_v = warp_modulation_reference(
                obj.texture_seed, obj.deform_period, age
            )
            amp_u = obj.deform_amp * mod_u * (_TEXTURE_TILE - 1) / full_box.width
            amp_v = obj.deform_amp * mod_v * (_TEXTURE_TILE - 1) / full_box.height
            u = u + amp_u * sample_bilinear_reference(field_u, u, v)
            v = v + amp_v * sample_bilinear_reference(field_v, u, v)
        texture = self._texture_for(obj)
        patch = sample_bilinear_reference(texture, u, v)
        norm_u = u / (_TEXTURE_TILE - 1)
        norm_v = v / (_TEXTURE_TILE - 1)
        radius = np.sqrt(((norm_u - 0.5) / 0.5) ** 2 + ((norm_v - 0.5) / 0.5) ** 2)
        inside &= radius <= 1.0
        region = frame[rows, cols]
        frame[rows, cols] = np.where(inside, patch, region)

    def render_frame(self, frame_index: int) -> np.ndarray:
        """Render from scratch, exactly as the pre-PR ``render`` did on a
        cache miss (minus the cache bookkeeping)."""
        cfg = self.scene.config
        frame = self._render_background(frame_index)
        drawable = []
        for obj in self.scene.objects:
            full = self.scene.full_box(obj, frame_index)
            if full is None or full.area <= 0:
                continue
            clipped = full.intersection(Box(0, 0, cfg.frame_width, cfg.frame_height))
            if clipped.area <= 0:
                continue
            drawable.append((full.area, obj, full))
        drawable.sort(key=lambda item: item[0])
        for _, obj, full in drawable:
            self._paint_object(frame, obj, full, frame_index)
        if cfg.sensor_noise > 0:
            noise_rng = np.random.default_rng(
                (self.scene.seed * 1_000_003 + frame_index) & 0x7FFFFFFF
            )
            frame = frame + cfg.sensor_noise * noise_rng.standard_normal(frame.shape)
        return np.clip(frame, 0.0, 1.0).astype(np.float32)
