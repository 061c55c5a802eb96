"""Test stand-ins for the clip a tracker reads."""

from __future__ import annotations

from types import SimpleNamespace

from repro.vision.block_motion import block_motion_field
from repro.vision.features import seed_features
from repro.vision.optical_flow import FramePyramid, track_features


class FrameClip:
    """A clip over a frame function, with no store behind it.

    Trackers read a clip's ``config`` frame size, ``features``, ``flow``
    and ``motion``.  Here each pyramid is built and each of those computed
    afresh from ``frame``, so a test can track synthetic frames, or
    compare the store's read-throughs against fresh builds of the same
    frames.
    """

    def __init__(self, frame, width: int, height: int) -> None:
        self.frame = frame
        self.config = SimpleNamespace(frame_width=width, frame_height=height)

    def pyramid(self, index, levels):
        return FramePyramid(self.frame(index), levels)

    def flow(self, prev_index, next_index, points, params):
        levels = params.pyramid_levels
        return track_features(
            self.pyramid(prev_index, levels), self.pyramid(next_index, levels), points, params
        )

    def features(self, index, boxes, params):
        return seed_features(self.frame(index), boxes, params)

    def motion(self, prev_index, next_index, points, params):
        levels = params.pyramid_levels
        return block_motion_field(
            self.pyramid(prev_index, levels), self.pyramid(next_index, levels), points, params
        )
