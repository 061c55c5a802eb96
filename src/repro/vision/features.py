"""Shi-Tomasi *good features to track* [Shi & Tomasi 1993].

This is the feature extractor AdaVP runs on every DNN-detected frame
(paper §IV-C).  The corner response is the smaller eigenvalue of the local
gradient structure tensor; points are kept when their response exceeds a
fraction of the global maximum, then thinned with a minimum-distance rule
(greedy non-maximum suppression), exactly like OpenCV's
``goodFeaturesToTrack``.

:func:`seed_features` is what a tracker's clip runs to seed it: the
features inside each detected box, under one frozen :class:`SeedParams`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.geometry import Box
from repro.obs import WORK
from repro.vision.fast import fast_corners
from repro.vision.image import (
    _image_gradients_into,
    _scratch_buffer,
    gaussian_blur_batched,
)


def shi_tomasi_response(image: np.ndarray, window_sigma: float = 1.5) -> np.ndarray:
    """Per-pixel minimum eigenvalue of the gradient structure tensor.

    The structure tensor ``[[Sxx, Sxy], [Sxy, Syy]]`` is the gradient outer
    product smoothed over a Gaussian window; its smaller eigenvalue is the
    Shi-Tomasi "cornerness".

    This is the fused-engine pipeline of DESIGN.md §10: gradients land in
    scratch, the three tensor products are stacked ``(3, H, W)`` and blurred
    in one batched call, and the eigenvalue arithmetic runs ``out=``-style
    through scratch — the same float operations in the same order as the
    frozen reference, so the response is bit-identical.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError("image_gradients expects a 2-D image")
    h, w = image.shape
    ix = _scratch_buffer("st.ix", (h, w))
    iy = _scratch_buffer("st.iy", (h, w))
    _image_gradients_into(image, ix, iy)
    products = _scratch_buffer("st.products", (3, h, w))
    np.multiply(ix, ix, out=products[0])
    np.multiply(iy, iy, out=products[1])
    np.multiply(ix, iy, out=products[2])
    smoothed = gaussian_blur_batched(
        products, window_sigma, out=_scratch_buffer("st.smoothed", (3, h, w))
    )
    sxx, syy, sxy = smoothed[0], smoothed[1], smoothed[2]
    trace_half = _scratch_buffer("st.trace", (h, w))
    np.add(sxx, syy, out=trace_half)
    trace_half /= 2.0
    disc = _scratch_buffer("st.disc", (h, w))
    np.subtract(sxx, syy, out=disc)
    disc /= 2.0
    np.multiply(disc, disc, out=disc)
    cross = _scratch_buffer("st.cross", (h, w))
    np.multiply(sxy, sxy, out=cross)
    disc += cross
    # Guard the sqrt against tiny negative values from floating-point error.
    np.maximum(disc, 0.0, out=disc)
    np.sqrt(disc, out=disc)
    out = np.empty((h, w), dtype=np.float64)
    np.subtract(trace_half, disc, out=out)
    return out


def good_features_to_track(
    image: np.ndarray,
    max_corners: int = 100,
    quality_level: float = 0.05,
    min_distance: float = 4.0,
    mask: np.ndarray | None = None,
    border: int = 2,
) -> np.ndarray:
    """Detect up to ``max_corners`` trackable points, strongest first.

    Returns an ``(N, 2)`` array of ``(x, y)`` pixel coordinates.  ``mask``
    (same shape as ``image``, truthy = allowed) restricts detection; AdaVP
    masks everything outside the DNN-detected bounding boxes so features are
    only extracted on objects (paper §V).  ``border`` pixels at each edge
    are excluded; an image whose every pixel falls inside the border strips
    (``min(shape) <= 2 * border``) yields no corners.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError("good_features_to_track expects a 2-D image")
    if max_corners < 1:
        raise ValueError("max_corners must be >= 1")
    if not 0 < quality_level <= 1:
        raise ValueError("quality_level must be in (0, 1]")
    if border < 0:
        # A negative border used to flip the zeroing slices and exclude the
        # image *interior* instead of its rim.
        raise ValueError("border must be >= 0")

    response = shi_tomasi_response(image)
    if border > 0:
        if min(image.shape) <= 2 * border:
            # The border strips cover the whole image; nothing can qualify
            # (the empty return below still validates the mask first).
            response[:, :] = 0.0
        else:
            response[:border, :] = 0.0
            response[-border:, :] = 0.0
            response[:, :border] = 0.0
            response[:, -border:] = 0.0
    if mask is not None:
        mask = np.asarray(mask)
        if mask.shape != image.shape:
            raise ValueError(
                f"mask shape {mask.shape} does not match image {image.shape}"
            )
        response = np.where(mask.astype(bool), response, 0.0)

    peak = float(response.max(initial=0.0))
    if peak <= 0.0:
        return np.zeros((0, 2), dtype=np.float64)
    threshold = peak * quality_level

    candidate_ys, candidate_xs = np.nonzero(response > threshold)
    if candidate_ys.size == 0:
        return np.zeros((0, 2), dtype=np.float64)
    scores = response[candidate_ys, candidate_xs]
    order = np.argsort(scores)[::-1]
    candidate_xs = candidate_xs[order]
    candidate_ys = candidate_ys[order]

    return suppress_min_distance(
        candidate_xs, candidate_ys, image.shape, min_distance, max_corners
    )


@lru_cache(maxsize=64)
def _disk_offsets(min_distance: float) -> tuple[np.ndarray, np.ndarray]:
    """Integer offsets ``(dx, dy)`` with ``dx² + dy² < min_distance²``.

    Memoised by ``min_distance`` (every caller passes one of a handful of
    values); the returned arrays are read-only.
    """
    min_dist_sq = min_distance * min_distance
    radius = int(np.sqrt(max(min_dist_sq - 1e-9, 0.0)))
    offs = np.arange(-radius, radius + 1, dtype=np.intp)
    dx, dy = np.meshgrid(offs, offs)
    inside = dx * dx + dy * dy < min_dist_sq
    dx, dy = dx[inside], dy[inside]
    dx.setflags(write=False)  # cached: shared across callers and threads
    dy.setflags(write=False)
    return dx, dy


def suppress_min_distance(
    candidate_xs: np.ndarray,
    candidate_ys: np.ndarray,
    shape: tuple[int, int],
    min_distance: float,
    max_corners: int,
) -> np.ndarray:
    """Greedy min-distance suppression, strongest (= earliest) first.

    Candidates are integer pixel coordinates ordered by descending score; a
    candidate is accepted only if no already-accepted point lies strictly
    within ``min_distance``.  Because coordinates are integral, "within
    min_distance of an accepted point" is exactly "inside the integer disk
    stamped around it", so each acceptance stamps a disk on a blocked
    raster and each rejection is a single lookup — the selection is
    identical to pairwise distance checks, without the per-candidate
    Python-level neighbour walk.
    """
    disk_dx, disk_dy = _disk_offsets(min_distance)
    h, w = shape
    blocked = np.zeros(shape, dtype=bool)
    remaining = np.arange(candidate_xs.size, dtype=np.intp)
    selected: list[tuple[float, float]] = []
    while remaining.size and len(selected) < max_corners:
        free = ~blocked[candidate_ys[remaining], candidate_xs[remaining]]
        remaining = remaining[free]
        if remaining.size == 0:
            break
        first = remaining[0]
        x = int(candidate_xs[first])
        y = int(candidate_ys[first])
        selected.append((float(x), float(y)))
        px = x + disk_dx
        py = y + disk_dy
        inside = (px >= 0) & (px < w) & (py >= 0) & (py < h)
        blocked[py[inside], px[inside]] = True
        remaining = remaining[1:]
    return np.asarray(selected, dtype=np.float64).reshape(-1, 2)


@dataclass(frozen=True, slots=True)
class SeedParams:
    """How a tracker seeds the features of one box: frozen and hashable,
    so seeds can be keyed on them, as flows are on
    :class:`~repro.vision.optical_flow.LKParams`.

    ``detector`` is ``"good_features"`` (Shi-Tomasi, the paper's choice)
    or ``"fast"``; FAST reads only ``max_corners`` and ``min_distance``.
    ``border`` pixels at each box edge are excluded from Shi-Tomasi.
    """

    detector: str = "good_features"
    max_corners: int = 10
    quality_level: float = 0.05
    min_distance: float = 3.0
    border: int = 1


# The boxes :func:`seed_features` seeds, in the process's one account of
# pixel work.
_BOXES = WORK.counter("seed.boxes")


def seed_features(
    frame: np.ndarray, boxes: Sequence[Box], params: SeedParams
) -> list[np.ndarray]:
    """The features inside each of ``boxes``, in full-frame ``(x, y)``.

    A box's features depend only on the frame's pixels under its
    :meth:`~repro.geometry.Box.pixel_slice` and on ``params``.  A box
    whose slice is under 6 pixels on a side gets none.
    """
    _BOXES.inc(len(boxes))
    return [_box_features(frame, box, params) for box in boxes]


def _box_features(frame: np.ndarray, box: Box, params: SeedParams) -> np.ndarray:
    rows, cols = box.pixel_slice(frame.shape)
    roi = frame[rows, cols]
    if roi.shape[0] < 6 or roi.shape[1] < 6:
        return np.zeros((0, 2), dtype=np.float64)
    if params.detector == "fast":
        corners = fast_corners(
            roi, max_corners=params.max_corners, min_distance=params.min_distance
        )
    else:
        corners = good_features_to_track(
            roi,
            max_corners=params.max_corners,
            quality_level=params.quality_level,
            min_distance=params.min_distance,
            border=params.border,
        )
    if corners.shape[0] == 0:
        return corners
    return corners + np.asarray([cols.start, rows.start], dtype=np.float64)
