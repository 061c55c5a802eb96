"""Seeded, deterministic workloads for the microbenchmark harness.

Every workload is a pure function of its arguments: frames come from the
procedural clip generator (seeded), feature points from the deterministic
Shi-Tomasi extractor, and candidate lists from a fixed response threshold.
Two runs of the harness therefore time *exactly* the same computation —
the only nondeterminism in ``BENCH_micro.json`` is the clock.

The default workload mirrors the tracking hot path's steady state: the
paper's executor tracks every other frame (gap 2), and a busy scene keeps
a few hundred live feature points across its objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detection.detector import Detection
from repro.vision.block_motion import BlockMotionParams, box_block_centers
from repro.vision.features import shi_tomasi_response, good_features_to_track
from repro.vision.image import image_gradients
from repro.vision.optical_flow import FramePyramid, LKParams
from repro.video.dataset import VideoClip, make_clip

SCENARIO = "racetrack"
SEED = 7

# The render bench scenario matches the macro-bench suite's composition:
# every quick-suite clip is a fixed-camera scene (as are 11 of the 14
# library scenarios), which is the case the renderer's background memo
# targets.  Moving-camera scenes (racetrack, car_highway, ...) take the
# separable-sampling path instead; the equivalence tests pin both.
RENDER_SCENARIO = "highway_surveillance"


@dataclass(frozen=True)
class NMSWorkload:
    """Score-ordered integer candidates for the suppression benches."""

    candidate_xs: np.ndarray
    candidate_ys: np.ndarray
    shape: tuple[int, int]
    min_distance: float
    max_corners: int


@dataclass(frozen=True)
class LKWorkload:
    """Prebuilt pyramids + points so the bench isolates the LK iteration.

    ``pyramid_a``/``pyramid_b`` hold the ``float32`` frames as their level
    0, as the frame store serves them to every pipeline.  The frozen
    reference arm reads ``reference_pyramids``, built as it always was
    from the frames widened to ``float64``.
    """

    pyramid_a: FramePyramid
    pyramid_b: FramePyramid
    reference_pyramids: tuple[FramePyramid, FramePyramid]
    frame_a: np.ndarray
    frame_b: np.ndarray
    points: np.ndarray
    params: LKParams


@dataclass(frozen=True)
class MVEWorkload:
    """Prebuilt pyramids + the block grid under frame 0's annotated boxes.

    Mirrors :class:`LKWorkload` — same clip, same gap-2 frame pair — so the
    ``mve_track``-vs-``lk_track`` speedup compares the two tracker tiers on
    identical content, and splits its pyramids the same way: ``float32``
    level 0 for the live arm, ``float64`` for the frozen reference.
    """

    pyramid_a: FramePyramid
    pyramid_b: FramePyramid
    reference_pyramids: tuple[FramePyramid, FramePyramid]
    points: np.ndarray
    owners: np.ndarray
    detections: tuple[Detection, ...]
    params: BlockMotionParams
    frame_gap: int
    frame_width: int
    frame_height: int


@dataclass(frozen=True)
class ConvWorkload:
    """Inputs for the fused-convolution benches, at the scales the
    pipeline actually runs them.

    ``served_frame`` is frame 0 as the frame store serves it (``float32``)
    and feeds the pyramid-build bench's live arm (full frame, the
    per-frame cost); ``frame`` is its ``float64`` widening, which the
    frozen references read.  ``rois`` are the frame's annotated object
    boxes — the tracker runs Shi-Tomasi per box (paper §IV-C), so the
    response bench sweeps exactly those crops; ``product_stack`` is one ROI's ``(3, h, w)``
    structure-tensor products — the batched-blur bench's input.
    """

    served_frame: np.ndarray
    frame: np.ndarray
    levels: int
    rois: tuple[np.ndarray, ...]
    product_stack: np.ndarray
    window_sigma: float


def make_conv_workload(window_sigma: float = 1.5) -> ConvWorkload:
    """Frame 0 of the bench clip plus its annotated-object ROIs."""
    params = LKParams()
    clip = bench_clip()
    served_frame = clip.frame(0)
    frame = np.asarray(served_frame, dtype=np.float64)
    rois = []
    for obj in clip.annotation(0).objects:
        rows, cols = obj.box.pixel_slice(frame.shape)
        roi = frame[rows, cols].copy()  # own the memory; benches reuse it
        if roi.shape[0] >= 6 and roi.shape[1] >= 6:  # tracker's ROI floor
            rois.append(roi)
    if not rois:
        raise RuntimeError("conv workload found no usable annotation boxes")
    ix, iy = image_gradients(rois[0])
    product_stack = np.stack([ix * ix, iy * iy, ix * iy])
    return ConvWorkload(
        served_frame=served_frame,
        frame=frame,
        levels=params.pyramid_levels,
        rois=tuple(rois),
        product_stack=product_stack,
        window_sigma=window_sigma,
    )


def bench_clip(num_frames: int = 12) -> VideoClip:
    return make_clip(SCENARIO, seed=SEED, num_frames=num_frames)


def _pyramid_fields(frame_a: np.ndarray, frame_b: np.ndarray, levels: int) -> dict:
    """Both arms' pyramids of a frame pair: the live arm's on the frames as
    served, the frozen reference's on their ``float64`` widening."""
    return {
        "pyramid_a": FramePyramid(frame_a, levels),
        "pyramid_b": FramePyramid(frame_b, levels),
        "reference_pyramids": tuple(
            FramePyramid(np.asarray(frame, dtype=np.float64), levels)
            for frame in (frame_a, frame_b)
        ),
    }


def render_bench_clip(num_frames: int = 12) -> VideoClip:
    """The clip the renderer benches draw frames from (see RENDER_SCENARIO)."""
    return make_clip(RENDER_SCENARIO, seed=SEED, num_frames=num_frames)


def make_nms_workload(
    quality_level: float = 0.01,
    min_distance: float = 4.0,
    max_corners: int = 100,
) -> NMSWorkload:
    """All above-threshold corners of a rendered frame, strongest first.

    A low quality level keeps the candidate list in the thousands — the
    regime where the seed revision's per-candidate Python walk dominated
    feature-extraction cost.
    """
    frame = np.asarray(bench_clip().frame(0), dtype=np.float64)
    response = shi_tomasi_response(frame)
    threshold = float(response.max()) * quality_level
    ys, xs = np.nonzero(response > threshold)
    scores = response[ys, xs]
    order = np.argsort(scores)[::-1]
    return NMSWorkload(
        candidate_xs=xs[order],
        candidate_ys=ys[order],
        shape=frame.shape,
        min_distance=min_distance,
        max_corners=max_corners,
    )


def make_mve_workload(
    frame_gap: int = 2,
    params: BlockMotionParams | None = None,
) -> MVEWorkload:
    """Block-match the grid under frame 0's annotated boxes across the
    same gap-2 frame pair the LK bench tracks."""
    params = params or BlockMotionParams()
    clip = bench_clip()
    frame_a = clip.frame(0)
    frame_b = clip.frame(frame_gap)
    annotation = clip.annotation(0)
    detections = tuple(
        Detection(obj.label, obj.box, 0.9) for obj in annotation.objects
    )
    width = clip.config.frame_width
    height = clip.config.frame_height
    points, owners = box_block_centers(
        [det.box for det in detections], width, height, params.block_size
    )
    if points.shape[0] == 0:
        raise RuntimeError("MVE workload found no annotation blocks")
    return MVEWorkload(
        **_pyramid_fields(frame_a, frame_b, params.pyramid_levels),
        points=points,
        owners=owners,
        detections=detections,
        params=params,
        frame_gap=frame_gap,
        frame_width=width,
        frame_height=height,
    )


def make_lk_workload(
    num_points: int = 300,
    frame_gap: int = 2,
    params: LKParams | None = None,
) -> LKWorkload:
    """Track ``num_points`` Shi-Tomasi corners across a gap-2 frame pair
    (the executor's steady-state "track every other frame" stride)."""
    params = params or LKParams()
    clip = bench_clip()
    frame_a = clip.frame(0)
    frame_b = clip.frame(frame_gap)
    points = good_features_to_track(
        frame_a, max_corners=num_points, quality_level=0.02, min_distance=3.0
    )
    return LKWorkload(
        **_pyramid_fields(frame_a, frame_b, params.pyramid_levels),
        frame_a=frame_a,
        frame_b=frame_b,
        points=points,
        params=params,
    )
