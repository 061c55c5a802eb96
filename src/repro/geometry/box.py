"""Axis-aligned bounding boxes in the paper's ``(left, top, width, height)`` form.

All coordinates live in pixel space of a frame; ``left``/``top`` is the
top-left corner, and the box spans ``[left, left + width) x [top, top + height)``.
Boxes are immutable value objects so they can be shared freely between the
detector, tracker, and metric code without defensive copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True, slots=True)
class Box:
    """An axis-aligned bounding box ``(left, top, width, height)``.

    Width and height must be non-negative; a zero-area box is legal (it
    matches nothing under IoU) so that degenerate tracker output does not
    have to be special-cased by callers.
    """

    left: float
    top: float
    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width < 0 or self.height < 0:
            raise ValueError(
                f"box dimensions must be non-negative, got {self.width}x{self.height}"
            )

    # -- derived coordinates -------------------------------------------------

    @property
    def right(self) -> float:
        return self.left + self.width

    @property
    def bottom(self) -> float:
        return self.top + self.height

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (self.left + self.width / 2.0, self.top + self.height / 2.0)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_corners(cls, left: float, top: float, right: float, bottom: float) -> Box:
        """Build a box from two corners, clamping inverted corners to zero size."""
        return cls(left, top, max(0.0, right - left), max(0.0, bottom - top))

    @classmethod
    def from_center(cls, cx: float, cy: float, width: float, height: float) -> Box:
        return cls(cx - width / 2.0, cy - height / 2.0, width, height)

    # -- transforms ----------------------------------------------------------

    def shifted(self, dx: float, dy: float) -> Box:
        """Translate the box by ``(dx, dy)`` — the tracker's per-object shift."""
        return replace(self, left=self.left + dx, top=self.top + dy)

    def scaled(self, sx: float, sy: float | None = None) -> Box:
        """Scale about the box centre (used when objects approach the camera)."""
        if sy is None:
            sy = sx
        cx, cy = self.center
        return Box.from_center(cx, cy, self.width * sx, self.height * sy)

    def intersection(self, other: Box) -> Box:
        """The overlapping region of two boxes (zero-size if disjoint)."""
        return Box.from_corners(
            max(self.left, other.left),
            max(self.top, other.top),
            min(self.right, other.right),
            min(self.bottom, other.bottom),
        )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.left, self.top, self.width, self.height)

    def pixel_slice(self, frame_shape: tuple[int, int]) -> tuple[slice, slice]:
        """Integer ``(rows, cols)`` slices of this box clipped to a frame."""
        h, w = frame_shape
        x0 = min(max(int(math.floor(self.left)), 0), w)
        y0 = min(max(int(math.floor(self.top)), 0), h)
        x1 = min(max(int(math.ceil(self.right)), 0), w)
        y1 = min(max(int(math.ceil(self.bottom)), 0), h)
        return slice(y0, y1), slice(x0, x1)


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes (Eq. 2 in the paper).

    Returns 0.0 when either box has zero area or the boxes are disjoint.
    """
    inter = a.intersection(b).area
    if inter <= 0.0:
        return 0.0
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    # Cancellation in ``union`` can land a hair above 1.0 when one box is a
    # sliver whose area underflows against the other's (e.g. width 1 x
    # height 1e-5 at a large coordinate).  Clamping is exact for every
    # in-range ratio, so it cannot perturb a well-conditioned result.
    return min(inter / union, 1.0)


def union_box(boxes: Iterable[Box]) -> Box:
    """The tightest box covering every input box.

    Raises ``ValueError`` on an empty input — there is no meaningful hull.
    """
    boxes = list(boxes)
    if not boxes:
        raise ValueError("union_box requires at least one box")
    return Box.from_corners(
        min(b.left for b in boxes),
        min(b.top for b in boxes),
        max(b.right for b in boxes),
        max(b.bottom for b in boxes),
    )


def clip_box(box: Box, frame_width: float, frame_height: float) -> Box:
    """Clip a box to the frame ``[0, frame_width) x [0, frame_height)``."""
    return Box.from_corners(
        min(max(box.left, 0.0), frame_width),
        min(max(box.top, 0.0), frame_height),
        min(max(box.right, 0.0), frame_width),
        min(max(box.bottom, 0.0), frame_height),
    )


def boxes_to_array(boxes: Sequence[Box]) -> np.ndarray:
    """Stack boxes into an ``(N, 4)`` float array of ``(left, top, width, height)``."""
    if not boxes:
        return np.zeros((0, 4), dtype=np.float64)
    return np.asarray([b.as_tuple() for b in boxes], dtype=np.float64)


def iou_matrix(detections: Sequence[Box], truths: Sequence[Box]) -> np.ndarray:
    """Pairwise IoU between two box lists as an ``(len(detections), len(truths))`` array.

    Vectorised so that frame-level F1 evaluation over hundreds of thousands
    of frames stays cheap.
    """
    if not detections or not truths:
        return np.zeros((len(detections), len(truths)), dtype=np.float64)
    d = boxes_to_array(detections)
    t = boxes_to_array(truths)
    d_left, d_top = d[:, 0:1], d[:, 1:2]
    d_right, d_bottom = d_left + d[:, 2:3], d_top + d[:, 3:4]
    t_left, t_top = t[:, 0], t[:, 1]
    t_right, t_bottom = t_left + t[:, 2], t_top + t[:, 3]

    inter_w = np.clip(np.minimum(d_right, t_right) - np.maximum(d_left, t_left), 0.0, None)
    inter_h = np.clip(np.minimum(d_bottom, t_bottom) - np.maximum(d_top, t_top), 0.0, None)
    inter = inter_w * inter_h
    area_d = (d[:, 2] * d[:, 3])[:, None]
    area_t = t[:, 2] * t[:, 3]
    union = area_d + area_t - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(union > 0.0, inter / union, 0.0)
    # Same sliver-box cancellation guard as ``iou``: exact for every
    # in-range ratio.
    return np.minimum(out, 1.0)
