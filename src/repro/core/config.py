"""Shared pipeline configuration.

One :class:`PipelineConfig` is passed to every method (AdaVP, MPDT,
MARLIN, detection-only, continuous) so comparisons hold everything equal
except the scheduling policy under study — the same detector noise seed,
the same tracker, the same latency model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tracking.mve import MVETrackerConfig
from repro.tracking.tracker import (
    TIER_LK,
    TIER_MVE,
    TrackerConfig,
    TrackerLatencyModel,
)


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """Everything a pipeline needs besides its scheduling policy.

    ``detector_seed`` drives the simulated detector's noise; keeping it
    fixed across methods means every method sees identical detection noise
    on identical frames.  ``initial_fraction_objects`` is the object count
    assumed when estimating the first cycle's trackable fraction (before
    any history exists).
    """

    detector_seed: int = 0
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    # Which tracker tier the pipeline runs between detections: "lk" (the
    # paper's pyramidal Lucas-Kanade tracker) or "mve" (the block-motion
    # fast tier, DESIGN.md §12).  The serve layer's "keyframe" tier is a
    # stream state, not a pipeline configuration — a keyframe-only stream
    # runs no tracker at all.
    tracker_tier: str = TIER_LK
    mve_tracker: MVETrackerConfig = field(default_factory=MVETrackerConfig)
    latency: TrackerLatencyModel = field(default_factory=TrackerLatencyModel)
    initial_fraction_objects: int = 4
    # Ablation: pin the tracking-frame fraction instead of the paper's
    # adaptive p = h_{t-1}/f_{t-1} rule (None = paper behaviour).
    fixed_tracking_fraction: float | None = None
    # Extension (paper §IV-D3): switching between DNN *models* (full
    # YOLOv3 <-> tiny) requires loading new weights; input-size changes
    # within one model are free.  Charged by the pipeline when a policy
    # crosses the family boundary (see repro.core.multimodel).
    model_reload_latency: float = 0.8
    # Clip-scoped FramePyramid LRU capacity shared across the tracker
    # generations of one run (0 disables caching).  A hit replaces a full
    # pyramid + gradient rebuild and is bit-identical to one.
    pyramid_cache_capacity: int = 4
    # FrameRenderer cache size for clips built under this config (None =
    # keep the renderer default).  Sweep workers rebuild clips from specs,
    # so this is how an experiment bounds per-worker render memory — the
    # render.cache_hit/cache_miss counters show what the bound costs.
    render_cache_size: int | None = None
    # Byte budget (in MiB) for the process-wide shared FrameStore, so a
    # sweep renders each frame of a clip once per process instead of once
    # per method.  None = leave the store as-is; 0 = explicitly disable.
    # Rendering is deterministic, so the store never changes results —
    # only when pixels are computed (see repro.video.framestore).
    frame_store_mb: int | None = None
    # Byte budget (in MiB) for the process-wide shared *artifact* store —
    # the frame store one layer up: derived pyramid images are built once
    # per sweep instead of once per method arm per worker.
    # None = leave the store as-is; 0 = explicitly disable.  Pyramid
    # construction is deterministic, so the store never changes results
    # (see repro.vision.artifact_store).
    artifact_store_mb: int | None = None

    def __post_init__(self) -> None:
        if self.tracker_tier not in (TIER_LK, TIER_MVE):
            raise ValueError(
                f"tracker_tier must be {TIER_LK!r} or {TIER_MVE!r}, "
                f"got {self.tracker_tier!r}"
            )
        if self.pyramid_cache_capacity < 0:
            raise ValueError("pyramid_cache_capacity must be non-negative")
        if self.render_cache_size is not None and self.render_cache_size < 1:
            raise ValueError("render_cache_size must be >= 1 when set")
        if self.frame_store_mb is not None and self.frame_store_mb < 0:
            raise ValueError("frame_store_mb must be non-negative when set")
        if self.artifact_store_mb is not None and self.artifact_store_mb < 0:
            raise ValueError("artifact_store_mb must be non-negative when set")

    def make_pyramid_cache(self, clip=None, obs=None):
        """A fresh per-run cache, or ``None`` when caching is disabled.

        Passing ``clip`` binds the cache to the clip's scene fingerprint,
        enabling the artifact-store read-through (the cache still works
        unbound — it just never touches a store).  ``obs`` attaches the
        cache's hit/miss/eviction counters to that telemetry.
        """
        from repro.vision.pyramid_cache import PyramidCache

        if self.pyramid_cache_capacity == 0:
            return None
        fingerprint = None
        scene = getattr(clip, "scene", None)
        # Exported clips carry a scene shim with no (config, seed)
        # identity; their pyramids stay cache-local rather than risking a
        # store key that is not content-addressed.
        if scene is not None and hasattr(scene, "config") and hasattr(scene, "seed"):
            from repro.video.framestore import scene_fingerprint

            fingerprint = scene_fingerprint(scene)
        cache = PyramidCache(
            capacity=self.pyramid_cache_capacity, fingerprint=fingerprint
        )
        if obs is not None:
            cache.set_obs(obs)
        return cache

    def initial_tracking_fraction(self, fps: float) -> float:
        """First-cycle estimate of the trackable fraction ``p``.

        ``p ~= frame_interval / per_tracked_frame_cost`` — the steady-state
        fraction at which the tracker keeps pace with the camera.
        """
        if fps <= 0:
            raise ValueError("fps must be positive")
        per_frame = self.latency.per_frame_cost(
            self.initial_fraction_objects, self.tracker_tier
        )
        return min(1.0, (1.0 / fps) / per_frame)
