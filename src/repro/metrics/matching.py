"""Detection-to-ground-truth matching and the per-frame F1 score.

A detection is a true positive when it has the same label as a ground-truth
object and sufficient IoU (Eq. 2, threshold 0.5 by default).  Matching is
one-to-one: each ground-truth object absorbs at most one detection.  The
default matcher is greedy by descending IoU (what most detection evaluators
do); an optimal Hungarian matcher is available for the property tests and
for callers who want the assignment that maximises true positives.  The
Hungarian matcher imports SciPy on first use; SciPy is a test-only
dependency, so the default greedy path (every pipeline, sweep and CLI run)
never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.geometry import iou_matrix
from repro.detection.detector import Detection
from repro.video.scene import FrameAnnotation


@dataclass(frozen=True, slots=True)
class MatchResult:
    """Outcome of matching one frame's detections against ground truth.

    ``pairs`` holds ``(detection_index, truth_index)`` tuples for true
    positives.
    """

    true_positives: int
    false_positives: int
    false_negatives: int
    pairs: tuple[tuple[int, int], ...]

    @property
    def precision(self) -> float:
        denom = self.true_positives + self.false_positives
        return self.true_positives / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.true_positives + self.false_negatives
        return self.true_positives / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if (p + r) > 0 else 0.0


def _label_masked_iou(
    detections: Sequence[Detection], annotation: FrameAnnotation
) -> np.ndarray:
    """IoU matrix with entries zeroed where labels disagree."""
    matrix = iou_matrix(
        [d.box for d in detections], [o.box for o in annotation.objects]
    )
    for i, det in enumerate(detections):
        for j, obj in enumerate(annotation.objects):
            if det.label != obj.label:
                matrix[i, j] = 0.0
    return matrix


def match_detections(
    detections: Sequence[Detection],
    annotation: FrameAnnotation,
    iou_threshold: float = 0.5,
    method: str = "greedy",
) -> MatchResult:
    """Match detections to ground truth and count TP/FP/FN.

    ``method`` is ``"greedy"`` (descending-IoU, standard practice) or
    ``"hungarian"`` (optimal assignment).  Both enforce the label-equality
    and IoU-threshold rules; they can differ only in rare tie-like
    configurations where greedy choices block a better global assignment.
    ``method="hungarian"`` imports SciPy on first use (``ImportError`` if
    it is not installed); the greedy default needs numpy only.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError("iou_threshold must be in (0, 1]")
    if method not in ("greedy", "hungarian"):
        raise ValueError(f"unknown matching method {method!r}")
    n_det = len(detections)
    n_truth = len(annotation.objects)
    if n_det == 0 or n_truth == 0:
        return MatchResult(
            true_positives=0,
            false_positives=n_det,
            false_negatives=n_truth,
            pairs=(),
        )
    matrix = _label_masked_iou(detections, annotation)

    pairs: list[tuple[int, int]] = []
    if method == "greedy":
        flat_order = np.argsort(matrix, axis=None)[::-1]
        used_det: set[int] = set()
        used_truth: set[int] = set()
        for flat in flat_order:
            i, j = divmod(int(flat), n_truth)
            if matrix[i, j] < iou_threshold:
                break
            if i in used_det or j in used_truth:
                continue
            used_det.add(i)
            used_truth.add(j)
            pairs.append((i, j))
    elif method == "hungarian":
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(-matrix)
        for i, j in zip(rows, cols):
            if matrix[i, j] >= iou_threshold:
                pairs.append((int(i), int(j)))
    else:
        raise ValueError(f"unknown matching method {method!r}")

    tp = len(pairs)
    return MatchResult(
        true_positives=tp,
        false_positives=n_det - tp,
        false_negatives=n_truth - tp,
        pairs=tuple(pairs),
    )


def f1_score(
    detections: Sequence[Detection],
    annotation: FrameAnnotation,
    iou_threshold: float = 0.5,
) -> float:
    """Per-frame F1 (Eq. 1).  Empty-vs-empty frames score 1.0.

    The paper evaluates every frame; a frame with no ground-truth objects
    and no detections is a perfect (vacuous) result, while any spurious
    detection on an empty frame scores 0.
    """
    if not detections and not annotation.objects:
        return 1.0
    return match_detections(detections, annotation, iou_threshold).f1
