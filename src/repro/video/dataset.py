"""Video clips and suites: the unit of work every experiment consumes.

A :class:`VideoClip` bundles a scene (ground truth) with a renderer
(pixels) under a human-readable name.  A :class:`VideoSuite` is an ordered
collection of clips — the reproduction's stand-in for the paper's training
corpus (105 205 frames) and evaluation corpus (141 213 frames), scaled to
what a CPU-only environment can process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.geometry import Box
from repro.obs import WORK
from repro.video.library import make_scenario
from repro.video.render import FrameRenderer
from repro.video.scenario import ScenarioConfig
from repro.video.scene import FrameAnnotation, Scene
from repro.vision.block_motion import BlockMotionField, BlockMotionParams, block_motion_field
from repro.vision.features import SeedParams, seed_features
from repro.vision.optical_flow import FlowResult, FramePyramid, LKParams, track_features

# Each :meth:`VideoClip.flow` call's one ``track_features`` solve and
# the distinct points it took, in the process's one account of pixel work.
_LK_CALLS = WORK.counter("lk.solves")
_LK_POINTS = WORK.counter("lk.points")

# One float64 ``(x, y)`` point as one opaque 16-byte value: points are
# equal under it exactly when their bytes are.
_POINT = np.dtype((np.void, 16))


@dataclass
class VideoClip:
    """One synthetic video: ground truth plus lazily rendered frames."""

    name: str
    scene: Scene
    renderer: FrameRenderer = field(repr=False)

    @property
    def config(self) -> ScenarioConfig:
        return self.scene.config

    @property
    def num_frames(self) -> int:
        return self.scene.config.num_frames

    @property
    def fps(self) -> float:
        return self.scene.config.fps

    def frame(self, index: int) -> np.ndarray:
        """Rendered grayscale frame at ``index``."""
        return self.renderer.render(index)

    def pyramid(self, index: int, levels: int) -> FramePyramid:
        """The ``levels``-level pyramid of the frame at ``index``."""
        return self.renderer.pyramid(index, levels)

    def flow(
        self, prev_index: int, next_index: int, points: np.ndarray, params: LKParams
    ) -> FlowResult:
        """Lucas-Kanade flow of ``points`` between two frames of this clip,
        solved on their stored pyramids.

        Lucas-Kanade solves every point independently of the others, so
        the call solves each distinct point once — points are the same
        when all 16 of their bytes are — in one :func:`track_features`
        call, and scatters the rows back in input order as fresh arrays.
        A lockstep step's merged points (see :mod:`repro.parallel.lockstep`)
        then pay once for a corner several arms track.  An empty call
        builds no pyramid.
        """
        points = np.ascontiguousarray(points, dtype=np.float64).reshape(-1, 2)
        if not len(points):
            return FlowResult(
                points=np.zeros((0, 2)), status=np.zeros(0, dtype=bool), residual=np.zeros(0)
            )
        _, first, slots = np.unique(
            points.view(_POINT).ravel(), return_index=True, return_inverse=True
        )
        levels = params.pyramid_levels
        solved = track_features(
            self.pyramid(prev_index, levels),
            self.pyramid(next_index, levels),
            points[first],
            params,
        )
        _LK_CALLS.inc()
        _LK_POINTS.inc(len(first))
        return FlowResult(
            points=solved.points[slots],
            status=solved.status[slots],
            residual=solved.residual[slots],
        )

    def features(
        self, index: int, boxes: Sequence[Box], params: SeedParams
    ) -> list[np.ndarray]:
        """The seeding features inside each of ``boxes`` on frame ``index``."""
        return seed_features(self.frame(index), boxes, params)

    def motion(
        self, prev_index: int, next_index: int, points: np.ndarray, params: BlockMotionParams
    ) -> BlockMotionField:
        """Block-motion vectors at ``points`` between two frames of this clip,
        matched on their stored pyramids."""
        levels = params.pyramid_levels
        return block_motion_field(
            self.pyramid(prev_index, levels), self.pyramid(next_index, levels), points, params
        )

    def annotation(self, index: int) -> FrameAnnotation:
        """Ground truth at ``index``."""
        return self.scene.annotation(index)

    def chunk_bounds(self, chunk_seconds: float = 1.0) -> list[tuple[int, int]]:
        """Half-open ``(start, stop)`` frame ranges of fixed-duration chunks.

        The adaptation trainer works on 1-second chunks (paper §IV-D3).
        The final partial chunk is included if it has at least one frame.
        """
        if chunk_seconds <= 0:
            raise ValueError("chunk_seconds must be positive")
        chunk_frames = max(1, int(round(chunk_seconds * self.fps)))
        bounds = []
        for start in range(0, self.num_frames, chunk_frames):
            bounds.append((start, min(start + chunk_frames, self.num_frames)))
        return bounds


def make_clip(
    scenario: str | ScenarioConfig,
    seed: int,
    num_frames: int | None = None,
    name: str | None = None,
    **overrides,
) -> VideoClip:
    """Build a clip from a preset name or an explicit scenario config."""
    if isinstance(scenario, str):
        config = make_scenario(scenario, num_frames=num_frames, **overrides)
    else:
        config = scenario
        if num_frames is not None:
            config = config.with_frames(num_frames)
    scene = Scene(config, seed=seed)
    renderer = FrameRenderer(scene)
    clip_name = name or f"{config.name}-{seed}"
    return VideoClip(name=clip_name, scene=scene, renderer=renderer)


@dataclass
class VideoSuite:
    """An ordered, named collection of clips."""

    name: str
    clips: list[VideoClip]

    def __iter__(self) -> Iterator[VideoClip]:
        return iter(self.clips)

    def __len__(self) -> int:
        return len(self.clips)

    @property
    def total_frames(self) -> int:
        return sum(clip.num_frames for clip in self.clips)

    def describe(self) -> str:
        lines = [f"suite {self.name}: {len(self.clips)} clips, {self.total_frames} frames"]
        for clip in self.clips:
            lines.append(
                f"  {clip.name}: {clip.num_frames} frames @ {clip.fps:g} fps "
                f"(~{clip.config.content_speed_hint():.2f} px/frame)"
            )
        return "\n".join(lines)
