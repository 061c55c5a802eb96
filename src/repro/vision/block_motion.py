"""Coarse-to-fine block-matching motion estimation (DESIGN.md §12).

The MVE tracker (True & Khan, "Motion Vector Extrapolation for Video
Object Detection") needs dense-ish motion for the pixels under each box,
but nothing as precise — or as expensive — as per-feature pyramidal
Lucas-Kanade.  This module matches fixed-size blocks between two frames
with an integer SAD search, refined coarse-to-fine over the existing
:class:`~repro.vision.optical_flow.FramePyramid` levels: the coarsest
level does a full ``(2r+1)^2`` scan around zero, every finer level
doubles the running estimate and rescans a ±1 neighbourhood.  With the
defaults that is 49 + 9 + 9 candidate positions per block for a ±15 px
reach at full resolution.

The search is vectorised across blocks and candidates at once: per level,
one clamped gather pulls each block's whole ``(B+2r, B+2r)`` search
window, every ``(2r+1)^2`` candidate patch is a strided view into it, and
a single reduction yields every candidate's SAD; ``argmin`` picks the
winner.  Windows are gathered with clamped-to-border coordinates
("clamped-border SAD"), so blocks near the frame edge compare against
edge-replicated samples — the frozen reference in
:mod:`repro.perf.reference` replicates these semantics exactly and the two
are ``np.array_equal``-pinned by the bench harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.geometry import Box, clip_box
from repro.vision.optical_flow import FramePyramid


@dataclass(frozen=True, slots=True)
class BlockMotionParams:
    """Knobs of the coarse-to-fine block matcher.

    ``coarse_radius`` is the scan radius at the coarsest pyramid level and
    ``refine_radius`` the per-level correction below it, so the maximum
    displacement reach at full resolution is roughly
    ``coarse_radius * 2**(levels-1) + refine_radius * (2**(levels-1) - 1)``.
    ``max_match_cost`` is the per-pixel mean-absolute-difference ceiling
    (images live in ``[0, 1]``) above which a block's vector is reported
    invalid — occlusions and deforming texture land there.
    """

    block_size: int = 8
    coarse_radius: int = 3
    refine_radius: int = 1
    pyramid_levels: int = 3
    max_match_cost: float = 0.08

    def __post_init__(self) -> None:
        if self.block_size < 2:
            raise ValueError("block_size must be >= 2")
        if self.coarse_radius < 1:
            raise ValueError("coarse_radius must be >= 1")
        if self.refine_radius < 1:
            raise ValueError("refine_radius must be >= 1")
        if self.pyramid_levels < 1:
            raise ValueError("pyramid_levels must be >= 1")
        if self.max_match_cost <= 0:
            raise ValueError("max_match_cost must be positive")


@dataclass(frozen=True, slots=True)
class BlockMotionField:
    """Integer motion vectors for N blocks between two frames.

    ``points``: ``(N, 2)`` block centres in full-resolution ``(x, y)``.
    ``vectors``: ``(N, 2)`` integer displacements (stored as float64).
    ``cost``: ``(N,)`` per-pixel mean absolute difference at the match.
    ``valid``: ``(N,)`` bool — cheap match found and target centre in frame.
    """

    points: np.ndarray
    vectors: np.ndarray
    cost: np.ndarray
    valid: np.ndarray

    @property
    def num_blocks(self) -> int:
        return int(self.points.shape[0])

    def good_vectors(self) -> np.ndarray:
        return self.vectors[self.valid]


def _clamped_windows(
    image: np.ndarray, cx: np.ndarray, cy: np.ndarray, first: int, span: int
) -> np.ndarray:
    """One ``span x span`` patch per centre, starting ``first`` pixels from
    it, gathered with clamped-to-border coordinates: ``(N, span, span)``."""
    height, width = image.shape
    steps = np.arange(first, first + span, dtype=np.intp)
    rows = np.minimum(np.maximum(cy[:, None] + steps, 0), height - 1)
    cols = np.minimum(np.maximum(cx[:, None] + steps, 0), width - 1)
    return image[rows[:, :, None], cols[:, None, :]]


def _match_level(
    prev_level: np.ndarray,
    next_level: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    predicted: np.ndarray,
    radius: int,
    block_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Best integer displacement per block around ``predicted`` at one level.

    Every block's whole search area is one clamped ``(B+2r, B+2r)`` window;
    its ``(2r+1)^2`` candidate patches are strided views of that window.
    Clamping each coordinate commutes with offsetting the patch inside the
    window, so every candidate sees exactly the pixels a per-candidate
    clamped gather would.  ``argmin`` over the row-major ``(dy, dx)``
    candidate axis returns the first minimum — the tie-break of a scan with
    a strict ``<``, which the frozen reference performs.
    """
    n = cx.shape[0]
    side = 2 * radius + 1
    first = -(block_size // 2)
    prev_patches = _clamped_windows(prev_level, cx, cy, first, block_size)
    windows = _clamped_windows(
        next_level,
        cx + predicted[:, 0],
        cy + predicted[:, 1],
        first - radius,
        block_size + 2 * radius,
    )
    candidates = sliding_window_view(windows, (block_size, block_size), axis=(1, 2))
    # (N, 2r+1, 2r+1, B, B) in C order, so each candidate's SAD reduces B*B
    # contiguous values: the same pairwise sum the reference takes per patch.
    diff = np.subtract(candidates, prev_patches[:, None, None], order="C")
    np.abs(diff, out=diff)
    sad = diff.reshape(n, side * side, block_size * block_size).sum(axis=2)
    winner = sad.argmin(axis=1)
    best_sad = sad[np.arange(n), winner]
    step = np.stack((winner % side, winner // side), axis=1) - radius
    return predicted + step, best_sad


def block_motion_field(
    prev_frame: np.ndarray | FramePyramid,
    next_frame: np.ndarray | FramePyramid,
    points: np.ndarray,
    params: BlockMotionParams | None = None,
) -> BlockMotionField:
    """Coarse-to-fine block-matching motion field at ``points``.

    ``points`` is ``(N, 2)`` block centres in full-resolution ``(x, y)``
    coordinates.  Either frame may be a precomputed
    :class:`FramePyramid` (the MVE tracker passes cache-shared pyramids);
    raw arrays are wrapped with ``params.pyramid_levels`` levels.  Only the
    pyramid *images* are read — gradients are never computed, which is a
    large share of why this is cheaper than Lucas-Kanade.
    """
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

    levels = min(prev_frame.levels, next_frame.levels, params.pyramid_levels)
    displacement = np.zeros((n, 2), dtype=np.intp)
    sad = np.zeros(n, dtype=np.float64)
    for level in range(levels - 1, -1, -1):
        prev_level = prev_frame.images[level]
        next_level = next_frame.images[level]
        scale = 0.5**level
        cx = np.rint(points[:, 0] * scale).astype(np.intp)
        cy = np.rint(points[:, 1] * scale).astype(np.intp)
        radius = params.coarse_radius if level == levels - 1 else params.refine_radius
        displacement, sad = _match_level(
            prev_level, next_level, cx, cy, displacement, radius, params.block_size
        )
        if level > 0:
            displacement = displacement * 2

    vectors = displacement.astype(np.float64)
    cost = sad / float(params.block_size * params.block_size)
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


def box_block_centers(
    boxes: Sequence[Box],
    frame_width: int,
    frame_height: int,
    block_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Grid-aligned block centres covering each box, with owner indices.

    Returns ``(points, owners)`` where ``points`` is ``(N, 2)`` centres of
    the frame-global block grid that fall inside each box (clipped to the
    frame), and ``owners[k]`` is the index into ``boxes`` that centre
    belongs to.  A box too small to contain any grid centre contributes
    its own centre point, so every live box always has at least one motion
    sample — the block-matching analogue of the tracker's centre-feature
    fallback.  Total centre count scales with summed box area over
    ``block_size**2``, which is what makes the MVE tracker O(boxes).
    """
    if block_size < 2:
        raise ValueError("block_size must be >= 2")
    half = block_size / 2.0
    points: list[tuple[float, float]] = []
    owners: list[int] = []
    for index, box in enumerate(boxes):
        clipped = clip_box(box, frame_width, frame_height)
        if clipped.area <= 0:
            continue
        k0 = int(np.ceil((clipped.left - half) / block_size))
        k1 = int(np.floor((clipped.right - half) / block_size))
        j0 = int(np.ceil((clipped.top - half) / block_size))
        j1 = int(np.floor((clipped.bottom - half) / block_size))
        xs = [
            k * block_size + half
            for k in range(max(k0, 0), k1 + 1)
            if k * block_size + half <= frame_width - 1
        ]
        ys = [
            j * block_size + half
            for j in range(max(j0, 0), j1 + 1)
            if j * block_size + half <= frame_height - 1
        ]
        if not xs or not ys:
            cx, cy = clipped.center
            points.append((cx, cy))
            owners.append(index)
            continue
        for cy in ys:
            for cx in xs:
                points.append((cx, cy))
                owners.append(index)
    if not points:
        return np.zeros((0, 2), dtype=np.float64), np.zeros(0, dtype=np.intp)
    return (
        np.asarray(points, dtype=np.float64),
        np.asarray(owners, dtype=np.intp),
    )
