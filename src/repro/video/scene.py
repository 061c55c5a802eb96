"""Scene generation: turn a :class:`ScenarioConfig` into ground truth.

A :class:`Scene` owns the full set of objects a video will ever contain
(spawned deterministically from the scenario seed) and answers, for every
frame index, "which objects are visible and where" — the ground truth every
experiment evaluates against.  The paper uses YOLOv3-704 output as a proxy
for ground truth; here the scene *is* the ground truth.

Object trajectories are defined directly in frame space: an object's speed
is its *apparent* speed, which already folds in any camera motion.  This is
deliberate — AdaVP's change-rate metric (Eq. 3) is computed from features
inside object bounding boxes, so what matters is how fast boxes move across
the frame, not how the motion decomposes into camera vs. object motion.
The scenario's ``camera_pan`` only drives the background flow seen by the
renderer (which perturbs Lucas-Kanade near box borders, as in real video).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geometry import Box, clip_box
from repro.video.objects import SceneObject, Trajectory
from repro.video.scenario import ScenarioConfig, SpawnSpec


@dataclass(frozen=True, slots=True)
class GroundTruthObject:
    """One visible object in one frame: identity, label, and frame-space box."""

    object_id: int
    label: str
    box: Box


@dataclass(frozen=True, slots=True)
class FrameAnnotation:
    """Ground truth for a single frame.

    ``difficulty`` in ``[0, 1]`` is the scene's detection-difficulty process
    at this frame (0.5 = neutral); the simulated detector scales its error
    rates with it so errors are frame-correlated like a real DNN's.
    """

    frame_index: int
    objects: tuple[GroundTruthObject, ...]
    difficulty: float = 0.5

    @property
    def boxes(self) -> list[Box]:
        return [o.box for o in self.objects]

    @property
    def labels(self) -> list[str]:
        return [o.label for o in self.objects]


def _spawn_entry_state(
    spec: SpawnSpec,
    rng: np.random.Generator,
    width: float,
    height: float,
) -> tuple[float, float, float, float]:
    """Pick an entry position and velocity for a newly spawned object.

    Returns ``(cx, cy, vx, vy)`` in frame coordinates; the object starts
    just outside one edge heading inward (except ``ambient`` objects, which
    start inside the frame).
    """
    speed = float(rng.uniform(spec.speed_min, spec.speed_max))
    if spec.direction == "lateral":
        going_right = bool(rng.integers(0, 2))
        cy = float(rng.uniform(0.15 * height, 0.85 * height))
        margin = max(spec.width_range) / 2.0 + 1.0
        cx = -margin if going_right else width + margin
        vx = speed if going_right else -speed
        return cx, cy, vx, 0.0
    if spec.direction == "vertical":
        going_down = bool(rng.integers(0, 2))
        cx = float(rng.uniform(0.15 * width, 0.85 * width))
        margin = max(spec.height_range) / 2.0 + 1.0
        cy = -margin if going_down else height + margin
        vy = speed if going_down else -speed
        return cx, cy, 0.0, vy
    if spec.direction == "any":
        edge = int(rng.integers(0, 4))
        angle_jitter = float(rng.uniform(-0.6, 0.6))
        if edge == 0:  # left edge, heading right
            cx, cy, heading = -2.0, float(rng.uniform(0, height)), 0.0
        elif edge == 1:  # right edge, heading left
            cx, cy, heading = width + 2.0, float(rng.uniform(0, height)), math.pi
        elif edge == 2:  # top edge, heading down
            cx, cy, heading = float(rng.uniform(0, width)), -2.0, math.pi / 2
        else:  # bottom edge, heading up
            cx, cy, heading = float(rng.uniform(0, width)), height + 2.0, -math.pi / 2
        heading += angle_jitter
        return cx, cy, speed * math.cos(heading), speed * math.sin(heading)
    # "ambient": starts inside the frame, slow drift in a random direction.
    cx = float(rng.uniform(0.1 * width, 0.9 * width))
    cy = float(rng.uniform(0.1 * height, 0.9 * height))
    heading = float(rng.uniform(0, 2 * math.pi))
    return cx, cy, speed * math.cos(heading), speed * math.sin(heading)


class Scene:
    """Deterministic object population and per-frame ground truth for a video.

    Construction is eager for the object list but per-frame annotations are
    computed lazily and cached, because many experiments only touch a
    fraction of the frames.
    """

    def __init__(self, config: ScenarioConfig, seed: int) -> None:
        self.config = config
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._camera_path = self._build_camera_path()
        self._difficulty_series = self._build_difficulty_series()
        self.objects: list[SceneObject] = self._spawn_objects()
        self._annotation_cache: dict[int, FrameAnnotation] = {}

    # -- camera (background flow only, see module docstring) -------------------

    def _build_camera_path(self) -> np.ndarray:
        """Background offset per frame, shape ``(num_frames, 2)``.

        Constant pan velocity plus optional smooth jitter (handheld shake).
        """
        cfg = self.config
        frames = np.arange(cfg.num_frames, dtype=np.float64)
        path = np.stack(
            [frames * cfg.camera_pan[0], frames * cfg.camera_pan[1]], axis=1
        )
        if cfg.camera_jitter > 0:
            # Smooth pseudo-random shake from a few low-frequency sinusoids.
            jitter_rng = np.random.default_rng(self.seed ^ 0x5EED)
            for axis in range(2):
                phase = jitter_rng.uniform(0, 2 * math.pi, size=3)
                freq = jitter_rng.uniform(0.02, 0.12, size=3)
                wave = sum(
                    np.sin(2 * math.pi * freq[i] * frames + phase[i]) for i in range(3)
                )
                path[:, axis] += cfg.camera_jitter * wave / 3.0
        return path

    def camera_offset(self, frame_index: int) -> tuple[float, float]:
        """Background texture offset for ``frame_index`` (used by the renderer)."""
        self._check_frame(frame_index)
        off = self._camera_path[frame_index]
        return float(off[0]), float(off[1])

    def _build_difficulty_series(self) -> np.ndarray:
        """Slowly varying detection difficulty in [0, 1] (see ScenarioConfig)."""
        cfg = self.config
        frames = np.arange(cfg.num_frames, dtype=np.float64)
        if cfg.difficulty_amp <= 0:
            return np.full(cfg.num_frames, 0.5)
        rng = np.random.default_rng(self.seed ^ 0xD1FF)
        wave = np.zeros(cfg.num_frames)
        # A few slow sinusoids: periods of roughly 2-15 seconds at 30 fps.
        for _ in range(3):
            freq = rng.uniform(1.0 / 450.0, 1.0 / 60.0)
            phase = rng.uniform(0, 2 * math.pi)
            wave += np.sin(2 * math.pi * freq * frames + phase)
        wave /= np.abs(wave).max() + 1e-12
        return np.clip(0.5 + cfg.difficulty_amp * wave, 0.0, 1.0)

    def difficulty(self, frame_index: int) -> float:
        self._check_frame(frame_index)
        return float(self._difficulty_series[frame_index])

    # -- object population ------------------------------------------------------

    def _make_object(
        self,
        object_id: int,
        spec: SpawnSpec,
        spawn_frame: int,
        *,
        initial: bool,
        speed_scale: float = 1.0,
    ) -> SceneObject:
        cfg = self.config
        rng = self._rng
        if initial:
            # Initial objects start inside the visible frame.
            cx = float(rng.uniform(0.1 * cfg.frame_width, 0.9 * cfg.frame_width))
            cy = float(rng.uniform(0.1 * cfg.frame_height, 0.9 * cfg.frame_height))
            speed = float(rng.uniform(spec.speed_min, spec.speed_max))
            heading = float(rng.uniform(0, 2 * math.pi))
            if spec.direction == "lateral":
                heading = 0.0 if rng.integers(0, 2) else math.pi
            elif spec.direction == "vertical":
                heading = math.pi / 2 if rng.integers(0, 2) else -math.pi / 2
            vx, vy = speed * math.cos(heading), speed * math.sin(heading)
        else:
            cx, cy, vx, vy = _spawn_entry_state(
                spec, rng, cfg.frame_width, cfg.frame_height
            )
        scale_rate = float(rng.uniform(*spec.scale_rate_range))
        traj = Trajectory(
            cx0=cx, cy0=cy, vx=vx * speed_scale, vy=vy * speed_scale,
            scale_rate=scale_rate,
        )
        width = float(rng.uniform(*spec.width_range))
        height = float(rng.uniform(*spec.height_range))
        # Apparent deformation grows with speed: fast content shimmers,
        # blurs, and rotates out of plane, which is what defeats
        # short-baseline optical flow on real video.
        speed = traj.speed()
        # Capped: beyond ~2.5 px of interior warp the texture decorrelates
        # within a single frame and even the first tracking hop fails,
        # which would blind the Eq. 3 velocity signal to exactly the
        # content it must flag.
        deform_amp = min(2.5, spec.deformability * (0.25 + 1.5 * speed))
        return SceneObject(
            object_id=object_id,
            label=spec.label,
            spawn_frame=spawn_frame,
            base_width=width,
            base_height=height,
            trajectory=traj,
            texture_seed=int(rng.integers(0, 2**31 - 1)),
            deform_amp=deform_amp,
            deform_period=float(rng.uniform(16.0, 32.0)),
        )

    def _spawn_objects(self) -> list[SceneObject]:
        cfg = self.config
        rng = self._rng
        objects: list[SceneObject] = []
        if not cfg.spawns:
            return objects
        weights = np.asarray([s.weight for s in cfg.spawns], dtype=np.float64)
        weights = weights / weights.sum()
        next_id = 0
        for _ in range(cfg.initial_objects):
            spec = cfg.spawns[int(rng.choice(len(cfg.spawns), p=weights))]
            objects.append(self._make_object(next_id, spec, 0, initial=True))
            next_id += 1
        total_rate = sum(s.arrival_rate for s in cfg.spawns)
        if total_rate > 0:
            rate_weights = np.asarray(
                [s.arrival_rate for s in cfg.spawns], dtype=np.float64
            )
            rate_weights = rate_weights / rate_weights.sum()
            for frame in range(1, cfg.num_frames):
                phase = cfg.phase_at(frame)
                arrivals = int(rng.poisson(total_rate * phase.rate_scale))
                for _ in range(arrivals):
                    spec = cfg.spawns[int(rng.choice(len(cfg.spawns), p=rate_weights))]
                    objects.append(
                        self._make_object(
                            next_id,
                            spec,
                            frame,
                            initial=False,
                            speed_scale=phase.speed_scale,
                        )
                    )
                    next_id += 1
        return objects

    # -- ground truth -----------------------------------------------------------

    def _check_frame(self, frame_index: int) -> None:
        if not 0 <= frame_index < self.config.num_frames:
            raise IndexError(
                f"frame {frame_index} out of range [0, {self.config.num_frames})"
            )

    def frame_box(self, obj: SceneObject, frame_index: int) -> Box | None:
        """The object's frame-space box, or ``None`` if it is not visible.

        Visibility requires the object to be alive and to have at least
        ``min_visible_fraction`` of its area inside the frame.
        """
        if not obj.alive_at(frame_index):
            return None
        full = obj.world_box_at(frame_index)
        clipped = clip_box(full, self.config.frame_width, self.config.frame_height)
        if full.area <= 0:
            return None
        if clipped.area / full.area < self.config.min_visible_fraction:
            return None
        if clipped.width < 2.0 or clipped.height < 2.0:
            return None
        return clipped

    def full_box(self, obj: SceneObject, frame_index: int) -> Box | None:
        """The object's unclipped frame-space box (``None`` if not alive)."""
        if not obj.alive_at(frame_index):
            return None
        return obj.world_box_at(frame_index)

    def annotation(self, frame_index: int) -> FrameAnnotation:
        """Ground truth objects visible in ``frame_index`` (cached)."""
        self._check_frame(frame_index)
        cached = self._annotation_cache.get(frame_index)
        if cached is not None:
            return cached
        visible = []
        for obj in self.objects:
            box = self.frame_box(obj, frame_index)
            if box is not None:
                visible.append(
                    GroundTruthObject(object_id=obj.object_id, label=obj.label, box=box)
                )
        ann = FrameAnnotation(
            frame_index=frame_index,
            objects=tuple(visible),
            difficulty=self.difficulty(frame_index),
        )
        self._annotation_cache[frame_index] = ann
        return ann

    def annotations(self) -> list[FrameAnnotation]:
        """Ground truth for every frame of the video."""
        return [self.annotation(i) for i in range(self.config.num_frames)]
