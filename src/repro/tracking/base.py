"""Shared box-propagation machinery for object trackers.

Both trackers — pyramidal-LK :class:`~repro.tracking.tracker.ObjectTracker`
and block-motion :class:`~repro.tracking.mve.MVETracker` — manage the same
object state between detector refreshes: admit the detector's boxes
(clipped to the frame, too-small boxes dropped), shift live boxes by an
estimated motion, kill objects that have mostly left the frame, and report
the survivors as detections.  That geometry lives here once; the
subclasses differ only in *how* they estimate per-object motion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.detection.detector import Detection
from repro.geometry import Box, clip_box
from repro.vision.optical_flow import FramePyramid

FrameProvider = Callable[[int], np.ndarray]
# ``(frame_index, levels) -> pyramid``: a clip's store read-through
# (:meth:`repro.video.dataset.VideoClip.pyramid`).
PyramidProvider = Callable[[int, int], FramePyramid]

# Fraction of a box that must remain in-frame for the object to stay alive.
_DEPARTURE_VISIBLE_FRACTION = 0.2


def median_shift(deltas: np.ndarray) -> float:
    """The median of a 1-D array, as ``np.median`` computes it: the middle
    element for odd ``n``, ``(a + b) / 2`` of the two middle ones for
    even ``n`` (``np.median``'s mean of two elements is that sum and
    division).  Sorting a few dozen values and picking is several times
    cheaper than ``np.median``'s partition, NaN check and ``mean``.

    Callers pass finite deltas already masked by tracking status, so the
    NaN handling ``np.median`` adds is not reproduced.  Where the middle
    elements are zeros of both signs, the zero returned may carry the
    other sign than ``np.median``'s.
    """
    ordered = np.sort(deltas)
    middle = ordered.size // 2
    if ordered.size % 2:
        return float(ordered[middle])
    return (float(ordered[middle - 1]) + float(ordered[middle])) / 2


@dataclass
class _TrackedObject:
    label: str
    confidence: float
    box: Box
    alive: bool = True


class BoxTrackerBase:
    """Object-list bookkeeping shared by every box tracker.

    Subclasses implement ``initialize``/``track_to`` and call into the
    helpers here: :meth:`_admit_detection` when seeding,
    :meth:`_kill_departed_objects` after applying motion, and
    :meth:`_current_detections` to emit results.

    ``pyramids`` serves frame pyramids (the pipelines pass the clip's
    store read-through, so tracker generations and method arms share
    them); without it each pyramid is built from ``frame_provider``.
    """

    def __init__(
        self,
        frame_provider: FrameProvider,
        frame_width: int,
        frame_height: int,
        pyramids: PyramidProvider | None = None,
    ) -> None:
        self._frames = frame_provider
        self._pyramids = pyramids
        self.frame_width = frame_width
        self.frame_height = frame_height
        self._objects: list[_TrackedObject] = []
        self._frame_index: int | None = None

    def _build_pyramid(self, frame_index: int, levels: int) -> FramePyramid:
        if self._pyramids is None:
            return FramePyramid(self._frames(frame_index), levels)
        return self._pyramids(frame_index, levels)

    @property
    def current_frame_index(self) -> int | None:
        return self._frame_index

    @property
    def num_objects(self) -> int:
        return sum(1 for obj in self._objects if obj.alive)

    def _admit_detection(
        self, detection: Detection, min_box_dim: float
    ) -> _TrackedObject | None:
        """Clip a detector box to the frame and admit it if large enough.

        Returns the appended object, or ``None`` when the clipped box is
        thinner than ``min_box_dim`` on either axis (the caller skips it).
        """
        box = clip_box(detection.box, self.frame_width, self.frame_height)
        if box.width < min_box_dim or box.height < min_box_dim:
            return None
        obj = _TrackedObject(
            label=detection.label, confidence=detection.confidence, box=box
        )
        self._objects.append(obj)
        return obj

    def _current_detections(self) -> tuple[Detection, ...]:
        output = []
        for obj in self._objects:
            if not obj.alive:
                continue
            box = clip_box(obj.box, self.frame_width, self.frame_height)
            if box.area <= 0:
                continue
            output.append(
                Detection(label=obj.label, box=box, confidence=obj.confidence)
            )
        return tuple(output)

    def _kill_departed_objects(self) -> bool:
        """Mark objects that have mostly left the frame as dead.

        Returns whether anything died, so subclasses can drop per-object
        auxiliary state (the LK tracker prunes its feature points).
        """
        changed = False
        for obj in self._objects:
            if not obj.alive:
                continue
            clipped = clip_box(obj.box, self.frame_width, self.frame_height)
            if (
                obj.box.area <= 0
                or clipped.area / obj.box.area < _DEPARTURE_VISIBLE_FRACTION
            ):
                obj.alive = False
                changed = True
        return changed
