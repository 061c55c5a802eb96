"""Motion-vector-extrapolation tracker: the fast tier below pyramidal LK.

Follows True & Khan's MVE idea (PAPERS.md): instead of extracting good
features per box and iterating Lucas-Kanade windows, propagate each box by
the aggregate of cheap block-motion vectors under it.  Per frame the work
is one coarse-to-fine integer block match per ~``block_size``-pixel cell
of box area — O(boxes), with no feature extraction, no gradients, and no
Gauss-Newton iterations.

Boxes whose blocks all fail the match-cost ceiling (occlusion, heavy
deformation) coast on their last measured per-frame velocity —
constant-velocity extrapolation across skipped or unmatchable frames —
rather than going stale in place, which is what keeps boxes moving through
short occlusions at this tier.  The price of the tier is accuracy on
deforming content: integer block vectors cannot express sub-pixel or
non-rigid motion, so boxes drift faster than under LK (DESIGN.md §12
quantifies the decay).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.detection.detector import Detection
from repro.tracking.base import (
    BoxTrackerBase,
    FrameProvider,
    PyramidProvider,
    median_shift,
)
from repro.tracking.motion import motion_velocity
from repro.tracking.tracker import TrackStep
from repro.vision.block_motion import (
    BlockMotionParams,
    block_motion_field,
    box_block_centers,
)
from repro.vision.optical_flow import FramePyramid


@dataclass(frozen=True, slots=True)
class MVETrackerConfig:
    """Knobs of the block-motion tracker.

    ``extrapolate`` enables constant-velocity coasting for boxes with no
    valid block match this step (disable for the measure-only ablation).
    """

    block: BlockMotionParams = field(default_factory=BlockMotionParams)
    min_box_dim: float = 3.0
    extrapolate: bool = True


class MVETracker(BoxTrackerBase):
    """Propagates one detection cycle's boxes from block-motion vectors.

    Same lifecycle as :class:`~repro.tracking.tracker.ObjectTracker` —
    ``initialize`` with detector output, ``track_to`` each selected frame
    forwards — and the same :class:`TrackStep` result type, so the MPDT
    pipeline swaps tiers without touching its cycle loop.
    """

    def __init__(
        self,
        frame_provider: FrameProvider,
        frame_width: int,
        frame_height: int,
        config: MVETrackerConfig | None = None,
        pyramids: PyramidProvider | None = None,
    ) -> None:
        super().__init__(frame_provider, frame_width, frame_height, pyramids)
        self.config = config or MVETrackerConfig()
        self._pyramid: FramePyramid | None = None
        # Per-object last measured velocity in pixels/frame, index-aligned
        # with ``self._objects``; zero until the first successful match.
        self._velocities: list[tuple[float, float]] = []
        self._last_valid_blocks = 0

    @property
    def num_features(self) -> int:
        """Valid block vectors in the latest step (the LK-features analogue)."""
        return self._last_valid_blocks

    def planned_blocks(self) -> int:
        """Block count the next ``track_to`` will match, for cost charging.

        This is a pure function of the current live boxes — exactly the
        grid :func:`box_block_centers` lays out — so the simulator can
        charge the step's latency before running it.
        """
        boxes = [obj.box for obj in self._objects if obj.alive]
        if not boxes:
            return 0
        points, _ = box_block_centers(
            boxes, self.frame_width, self.frame_height, self.config.block.block_size
        )
        return int(points.shape[0])

    def initialize(self, frame_index: int, detections: Sequence[Detection]) -> None:
        """Seed the tracker with the detector's output for ``frame_index``."""
        self._pyramid = self._build_pyramid(frame_index, self.config.block.pyramid_levels)
        self._frame_index = frame_index
        self._objects = []
        self._velocities = []
        for det in detections:
            if self._admit_detection(det, self.config.min_box_dim) is not None:
                self._velocities.append((0.0, 0.0))
        self._last_valid_blocks = 0

    def track_to(self, frame_index: int) -> TrackStep:
        """Propagate all objects to ``frame_index`` (must be ahead of current)."""
        if self._pyramid is None or self._frame_index is None:
            raise RuntimeError("tracker not initialised; call initialize() first")
        gap = frame_index - self._frame_index
        if gap <= 0:
            raise ValueError(
                f"can only track forwards: at {self._frame_index}, asked {frame_index}"
            )
        next_pyramid = self._build_pyramid(frame_index, self.config.block.pyramid_levels)

        velocity: float | None = None
        valid_blocks = 0
        alive_indices = [
            index for index, obj in enumerate(self._objects) if obj.alive
        ]
        if alive_indices:
            boxes = [self._objects[index].box for index in alive_indices]
            points, owners = box_block_centers(
                boxes, self.frame_width, self.frame_height, self.config.block.block_size
            )
            field_ = block_motion_field(
                self._pyramid, next_pyramid, points, self.config.block
            )
            valid_blocks = int(field_.valid.sum())
            velocity = motion_velocity(
                points, points + field_.vectors, gap, status=field_.valid
            )
            for slot, obj_index in enumerate(alive_indices):
                obj = self._objects[obj_index]
                mask = field_.valid & (owners == slot)
                if mask.any():
                    dx = median_shift(field_.vectors[mask, 0])
                    dy = median_shift(field_.vectors[mask, 1])
                    self._velocities[obj_index] = (dx / gap, dy / gap)
                elif self.config.extrapolate:
                    vx, vy = self._velocities[obj_index]
                    dx, dy = vx * gap, vy * gap
                else:
                    continue  # no measurement: the box goes stale
                obj.box = obj.box.shifted(dx, dy)
        self._kill_departed_objects()

        self._pyramid = next_pyramid
        self._frame_index = frame_index
        self._last_valid_blocks = valid_blocks
        return TrackStep(
            frame_index=frame_index,
            detections=self._current_detections(),
            velocity=velocity,
            num_features=valid_blocks,
            frame_gap=gap,
        )
