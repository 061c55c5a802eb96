"""Ablation: Lucas-Kanade tracker parameters (pyramid depth, feature budget).

Design-choice checks from DESIGN.md: the 3-level pyramid is what lets the
tracker survive multi-pixel inter-frame motion, and a handful of features
per box is enough (the paper uses very few to save latency).
"""

from dataclasses import replace

import numpy as np
from conftest import run_once

from repro.detection.detector import Detection
from repro.geometry import iou
from repro.tracking.tracker import ObjectTracker, TrackerConfig
from repro.video.dataset import make_clip
from repro.vision.optical_flow import LKParams


def _decay_auc(
    config: TrackerConfig,
    scenario: str = "highway_surveillance",
    gap: int = 2,
) -> float:
    """Mean tracked IoU over a 20-frame window, averaged over repeats.

    ``gap`` is the tracking stride: larger gaps mean larger inter-frame
    displacement, which is what separates pyramidal from single-level LK.
    """
    values = []
    for rep in range(4):
        clip = make_clip(scenario, seed=818 + 13 * rep, num_frames=24)
        ann0 = clip.annotation(0)
        tracker = ObjectTracker(clip, config, seed=rep)
        tracker.initialize(
            0, tuple(Detection(o.label, o.box, 0.9) for o in ann0.objects)
        )
        for j in range(gap, 22, gap):
            step = tracker.track_to(j)
            ann = clip.annotation(j)
            step_vals = [
                max((iou(d.box, o.box) for o in ann.objects), default=0.0)
                for d in step.detections
            ]
            if step_vals:
                values.append(float(np.mean(step_vals)))
    return float(np.mean(values))


def test_ablation_lk_params(benchmark):
    def compute():
        return {
            "default (3 levels, 10 feat)": _decay_auc(TrackerConfig()),
            # The pyramid comparison needs large per-hop motion: racetrack
            # objects at 3.2-5 px/frame tracked every 3rd frame move
            # 10-15 px per hop, beyond a single level's 7 px window.
            "3 levels, racetrack gap3": _decay_auc(
                TrackerConfig(), scenario="racetrack", gap=3
            ),
            "1 pyramid level, racetrack gap3": _decay_auc(
                replace(TrackerConfig(), lk=LKParams(pyramid_levels=1)),
                scenario="racetrack", gap=3,
            ),
            "2 features/box": _decay_auc(
                replace(TrackerConfig(), max_features_per_object=2)
            ),
        }

    results = run_once(benchmark, compute)
    print()
    for name, value in results.items():
        print(f"{name:28s} mean tracked IoU = {value:.3f}")

    default = results["default (3 levels, 10 feat)"]
    # Removing the pyramid breaks tracking of large per-hop motion outright.
    assert (
        results["1 pyramid level, racetrack gap3"]
        < results["3 levels, racetrack gap3"] - 0.1
    )
    # A tiny feature budget degrades robustness but not catastrophically
    # (the paper leans on this to keep tracking latency in the 7-20 ms band).
    assert results["2 features/box"] <= default + 0.02
    assert results["2 features/box"] > 0.3
