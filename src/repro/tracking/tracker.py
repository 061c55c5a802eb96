"""Optical-flow object tracker (paper §IV-C).

Workflow, mirroring the paper's six steps:

1. receive the detector's labels + boxes for frame ``n0``;
2. extract *good features to track* inside each bounding box (the paper
   masks the detected boxes so no feature lands on background);
3. guarantee at least one point per box (falling back to the box centre
   for texture-poor objects);
4. run pyramidal Lucas-Kanade to the next selected frame;
5. shift each box by its own features' median motion vector (per-object
   motion, not a global average — the paper is explicit about this);
6. move on to the next selected frame.

The tracker is *time-free*: its numpy runtime is not the Jetson TX2's.
The :class:`TrackerLatencyModel` carries the paper's measured costs
(Table II) and is charged by the pipeline simulator instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.geometry import Box
from repro.detection.detector import Detection
from repro.tracking.base import (
    BoxTrackerBase,
    FrameProvider,
    PyramidProvider,
    median_shift,
)
from repro.tracking.motion import motion_velocity
from repro.vision.fast import fast_corners
from repro.vision.features import good_features_to_track
from repro.vision.optical_flow import FramePyramid, LKParams, track_features

# Tracker cost/fidelity tiers, cheapest last.  ``lk`` is the paper's
# pyramidal Lucas-Kanade tracker, ``mve`` the block-motion extrapolation
# tracker (DESIGN.md §12), and ``keyframe`` the serve layer's
# detect-keyframes-only overload mode, which runs no tracker at all.
TIER_LK = "lk"
TIER_MVE = "mve"
TIER_KEYFRAME = "keyframe"
TRACKER_TIERS = (TIER_LK, TIER_MVE, TIER_KEYFRAME)


@dataclass(frozen=True, slots=True)
class TrackerConfig:
    """Knobs of the object tracker.

    ``per_object_motion`` selects the paper's design (each object gets its
    own motion vector); setting it to ``False`` reproduces the global-vector
    alternative the paper argues against (ablation bench).
    ``max_features_per_object`` bounds the per-box feature budget; the paper
    reduces latency by using very few points per box.
    """

    max_features_per_object: int = 10
    quality_level: float = 0.05
    min_distance: float = 3.0
    # Pixels excluded at each ROI edge during good-features extraction.
    # ROI-edge responses straddle the box boundary (part background), so
    # corners found there track the background, not the object.
    feature_border: int = 1
    lk: LKParams = field(default_factory=LKParams)
    per_object_motion: bool = True
    min_box_dim: float = 3.0
    # Which corner detector seeds the tracker: "good_features" (Shi-Tomasi,
    # the paper's choice) or "fast" (the FAST alternative the paper
    # evaluated against; see benchmarks/test_ablation_features.py).
    feature_detector: str = "good_features"
    # Real-video propagation error model.  On real footage, sparse optical
    # flow systematically *under-propagates* fast deforming objects: part of
    # each window covers background or self-occluded texture, so the box
    # lags the object, and the error accumulates with time — the paper's
    # Fig. 2 measures F1 < 0.5 within 9 frames on a fast video.  A clean
    # synthetic world underestimates this (its texture is too trackable),
    # so the tracker scales each object's applied shift down by a lag
    # proportional to the *observed* Lucas-Kanade residual of the object's
    # features — an online observable that is near zero on slow rigid
    # content and large exactly where real flow fails.  Set
    # ``propagation_lag`` to 0 to disable (ablation bench).
    propagation_lag: float = 0.50
    lag_jitter: float = 0.22
    lag_residual_floor: float = 0.013
    lag_residual_span: float = 0.030

    def __post_init__(self) -> None:
        if self.max_features_per_object < 1:
            raise ValueError("max_features_per_object must be >= 1")
        if self.feature_border < 0:
            raise ValueError("feature_border must be >= 0")
        if self.feature_detector not in ("good_features", "fast"):
            raise ValueError(
                f"unknown feature detector {self.feature_detector!r}"
            )
        if self.propagation_lag < 0 or self.propagation_lag >= 1:
            raise ValueError("propagation_lag must be in [0, 1)")
        if self.lag_jitter < 0:
            raise ValueError("lag_jitter must be non-negative")


@dataclass(frozen=True, slots=True)
class TrackerLatencyModel:
    """Table II costs, in seconds, charged by the pipeline simulator.

    Good-feature extraction ~40 ms (once per detected frame); per-frame
    tracking 7–20 ms depending on object count; overlay/display ~50 ms per
    rendered frame.
    """

    feature_extraction: float = 0.040
    track_base: float = 0.0065
    track_per_object: float = 0.0016
    overlay: float = 0.050
    # MVE tier profile: block matching has a small fixed cost plus a
    # per-block cost (49+9+9 SAD candidates over three pyramid levels),
    # and needs no feature extraction at seed time.  ``mve_blocks_per_object``
    # is the proxy used when only an object count is known (serve layer,
    # admission planning); the MPDT simulator charges measured block
    # counts instead.
    mve_track_base: float = 0.0018
    mve_track_per_block: float = 0.00004
    mve_blocks_per_object: float = 9.0

    def track_latency(self, num_objects: int, tier: str = TIER_LK) -> float:
        """Tracking cost for one frame with ``num_objects`` objects.

        ``tier`` selects the tracker profile: ``lk`` (per-object LK cost,
        Table II), ``mve`` (block costs via the per-object block proxy),
        or ``keyframe`` (no tracker runs, so the cost is exactly zero —
        charging anything here double-bills frames that are simply
        dropped between keyframes).
        """
        if num_objects < 0:
            raise ValueError("num_objects must be non-negative")
        if tier == TIER_LK:
            return self.track_base + self.track_per_object * num_objects
        if tier == TIER_MVE:
            return self.mve_track_latency(
                round(self.mve_blocks_per_object * num_objects)
            )
        if tier == TIER_KEYFRAME:
            return 0.0
        raise ValueError(f"unknown tracker tier {tier!r}")

    def mve_track_latency(self, num_blocks: int) -> float:
        """MVE tracking cost for one frame matching ``num_blocks`` blocks."""
        if num_blocks < 0:
            raise ValueError("num_blocks must be non-negative")
        return self.mve_track_base + self.mve_track_per_block * num_blocks

    def seed_cost(self, tier: str = TIER_LK) -> float:
        """One-off cost of seeding a tracker from a detector result.

        LK pays good-feature extraction; MVE seeds from the boxes alone
        and keyframe-only mode never seeds a tracker.
        """
        if tier == TIER_LK:
            return self.feature_extraction
        if tier in (TIER_MVE, TIER_KEYFRAME):
            return 0.0
        raise ValueError(f"unknown tracker tier {tier!r}")

    def per_frame_cost(self, num_objects: int, tier: str = TIER_LK) -> float:
        """Full per-tracked-frame cost (tracking + overlay) for one tier.

        Keyframe-only mode tracks nothing and renders nothing between
        keyframes, so its per-frame cost is zero rather than an LK bill
        for work that never happens.
        """
        if tier == TIER_KEYFRAME:
            return 0.0
        return self.track_latency(num_objects, tier) + self.overlay


@dataclass(frozen=True, slots=True)
class TrackStep:
    """Result of propagating the tracked objects to one frame."""

    frame_index: int
    detections: tuple[Detection, ...]
    velocity: float | None
    num_features: int
    frame_gap: int


class ObjectTracker(BoxTrackerBase):
    """Tracks the objects of one detected frame through later frames.

    One instance handles one detection cycle: ``initialize`` with the
    detector output, then ``track_to`` each selected frame in increasing
    order.  A new cycle creates a fresh instance (matching the paper, where
    each DNN result re-seeds the tracker).
    """

    def __init__(
        self,
        frame_provider: FrameProvider,
        frame_width: int,
        frame_height: int,
        config: TrackerConfig | None = None,
        seed: int = 0,
        pyramids: PyramidProvider | None = None,
    ) -> None:
        super().__init__(frame_provider, frame_width, frame_height, pyramids)
        self.config = config or TrackerConfig()
        self._rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
        self._points = np.zeros((0, 2), dtype=np.float64)
        self._owners = np.zeros(0, dtype=np.intp)
        self._pyramid: FramePyramid | None = None

    # -- setup -------------------------------------------------------------------

    @property
    def num_features(self) -> int:
        return int(self._points.shape[0])

    def _extract_box_features(
        self, frame: np.ndarray, box: Box
    ) -> np.ndarray:
        """Good features inside one box (coordinates in full-frame space)."""
        rows, cols = box.pixel_slice(frame.shape)
        roi = frame[rows, cols]
        if roi.shape[0] < 6 or roi.shape[1] < 6:
            return np.zeros((0, 2), dtype=np.float64)
        if self.config.feature_detector == "fast":
            corners = fast_corners(
                roi,
                max_corners=self.config.max_features_per_object,
                min_distance=self.config.min_distance,
            )
        else:
            corners = good_features_to_track(
                roi,
                max_corners=self.config.max_features_per_object,
                quality_level=self.config.quality_level,
                min_distance=self.config.min_distance,
                border=self.config.feature_border,
            )
        if corners.shape[0] == 0:
            return corners
        corners = corners + np.asarray([cols.start, rows.start], dtype=np.float64)
        return corners

    def initialize(self, frame_index: int, detections: Sequence[Detection]) -> None:
        """Seed the tracker with the detector's output for ``frame_index``."""
        frame = self._frames(frame_index)
        self._pyramid = self._build_pyramid(frame_index, self.config.lk.pyramid_levels)
        self._frame_index = frame_index
        self._objects = []
        points: list[np.ndarray] = []
        owners: list[np.ndarray] = []
        for det in detections:
            obj = self._admit_detection(det, self.config.min_box_dim)
            if obj is None:
                continue
            index = len(self._objects) - 1
            corners = self._extract_box_features(frame, obj.box)
            if corners.shape[0] == 0:
                # Texture-poor object: fall back to its centre point so it
                # still has a motion estimate (the paper guarantees one
                # feature per box).
                corners = np.asarray([obj.box.center], dtype=np.float64)
            points.append(corners)
            owners.append(np.full(corners.shape[0], index, dtype=np.intp))
        if points:
            self._points = np.concatenate(points, axis=0)
            self._owners = np.concatenate(owners, axis=0)
        else:
            self._points = np.zeros((0, 2), dtype=np.float64)
            self._owners = np.zeros(0, dtype=np.intp)

    # -- tracking ----------------------------------------------------------------

    def track_to(self, frame_index: int) -> TrackStep:
        """Propagate all objects to ``frame_index`` (must be ahead of current)."""
        if self._pyramid is None or self._frame_index is None:
            raise RuntimeError("tracker not initialised; call initialize() first")
        gap = frame_index - self._frame_index
        if gap <= 0:
            raise ValueError(
                f"can only track forwards: at {self._frame_index}, asked {frame_index}"
            )
        next_pyramid = self._build_pyramid(frame_index, self.config.lk.pyramid_levels)

        velocity: float | None = None
        if self._points.shape[0] > 0:
            result = track_features(
                self._pyramid, next_pyramid, self._points, self.config.lk
            )
            velocity = motion_velocity(
                self._points, result.points, gap, status=result.status
            )
            self._apply_motion(result.points, result.status, result.residual)
            # Keep only surviving features for the next step.
            keep = result.status
            self._points = result.points[keep]
            self._owners = self._owners[keep]
        self._kill_departed_objects()

        self._pyramid = next_pyramid
        self._frame_index = frame_index
        return TrackStep(
            frame_index=frame_index,
            detections=self._current_detections(),
            velocity=velocity,
            num_features=self.num_features,
            frame_gap=gap,
        )

    def _lag_factor(self, residuals: np.ndarray) -> float:
        """Propagation lag in [0, propagation_lag] from observed residuals."""
        cfg = self.config
        if cfg.propagation_lag <= 0 or residuals.size == 0:
            return 0.0
        mean_residual = float(np.mean(residuals))
        severity = (mean_residual - cfg.lag_residual_floor) / cfg.lag_residual_span
        return cfg.propagation_lag * float(np.clip(severity, 0.0, 1.0))

    def _degraded_shift(
        self, dx: float, dy: float, residuals: np.ndarray
    ) -> tuple[float, float]:
        """Apply the real-video propagation-error model to one box shift."""
        lag = self._lag_factor(residuals)
        if lag <= 0.0:
            return dx, dy
        magnitude = float(np.hypot(dx, dy))
        jitter_scale = self.config.lag_jitter * lag / max(self.config.propagation_lag, 1e-9)
        noise = self._rng.normal(0.0, jitter_scale * magnitude, size=2)
        return dx * (1.0 - lag) + float(noise[0]), dy * (1.0 - lag) + float(noise[1])

    def _apply_motion(
        self, new_points: np.ndarray, status: np.ndarray, residuals: np.ndarray
    ) -> None:
        deltas = new_points - self._points
        if self.config.per_object_motion:
            for index, obj in enumerate(self._objects):
                if not obj.alive:
                    continue
                mask = status & (self._owners == index)
                if not mask.any():
                    continue  # no surviving features: the box goes stale
                dx = median_shift(deltas[mask, 0])
                dy = median_shift(deltas[mask, 1])
                dx, dy = self._degraded_shift(dx, dy, residuals[mask])
                obj.box = obj.box.shifted(dx, dy)
        else:
            # Ablation mode: one global motion vector for every object.
            if not status.any():
                return
            dx = median_shift(deltas[status, 0])
            dy = median_shift(deltas[status, 1])
            dx, dy = self._degraded_shift(dx, dy, residuals[status])
            for obj in self._objects:
                if obj.alive:
                    obj.box = obj.box.shifted(dx, dy)

    def _kill_departed_objects(self) -> bool:
        """Drop objects that have mostly left the frame, and their features."""
        changed = super()._kill_departed_objects()
        if changed and self._points.shape[0] > 0:
            alive = np.asarray(
                [self._objects[owner].alive for owner in self._owners], dtype=bool
            )
            self._points = self._points[alive]
            self._owners = self._owners[alive]
        return changed
