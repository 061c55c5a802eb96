"""Fig. 2: tracking accuracy over frames for a fast and a slow video.

YOLOv3-608 detects frame 0; the tracker then follows the objects through
the subsequent frames.  Averaged over ``repeats`` runs (the paper uses 10)
per video.  The fast video's F1 must cross 0.5 far earlier than the slow
one's — the observation that motivates model adaptation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detection import SimulatedYOLOv3
from repro.experiments.report import format_series
from repro.metrics.matching import f1_score
from repro.tracking import ObjectTracker
from repro.video.dataset import make_clip


@dataclass(frozen=True)
class Fig2Result:
    fast_series: np.ndarray
    slow_series: np.ndarray
    horizon: int

    @staticmethod
    def _crossing(series: np.ndarray, level: float) -> int | None:
        below = np.nonzero(series < level)[0]
        return int(below[0]) if below.size else None

    @property
    def fast_crossing(self) -> int | None:
        """First frame where the fast video's tracking F1 drops below 0.5."""
        return self._crossing(self.fast_series, 0.5)

    @property
    def slow_crossing(self) -> int | None:
        return self._crossing(self.slow_series, 0.5)

    def report(self) -> str:
        frames = list(range(self.horizon))
        parts = [
            format_series(
                "Fig. 2 — tracking F1, fast video (Video1)",
                frames, self.fast_series, "frame", "F1",
            ),
            format_series(
                "Fig. 2 — tracking F1, slow video (Video2)",
                frames, self.slow_series, "frame", "F1",
            ),
            f"F1<0.5 after: fast={self.fast_crossing} frames, "
            f"slow={self.slow_crossing} frames (paper: 9 vs 27)",
        ]
        return "\n\n".join(parts)


def _decay_series(
    scenario: str, horizon: int, repeats: int, seed: int
) -> np.ndarray:
    runs = []
    for rep in range(repeats):
        clip = make_clip(scenario, seed=seed + 13 * rep, num_frames=horizon + 1)
        detector = SimulatedYOLOv3("yolov3-608", seed=rep)
        ann0 = clip.annotation(0)
        detection = detector.detect(ann0)
        tracker = ObjectTracker(clip, seed=rep)
        tracker.initialize(0, detection.detections)
        scores = [f1_score(detection.detections, ann0)]
        for frame in range(1, horizon):
            step = tracker.track_to(frame)
            scores.append(f1_score(step.detections, clip.annotation(frame)))
        runs.append(scores)
    return np.mean(runs, axis=0)


def run(
    fast_scenario: str = "racetrack",
    slow_scenario: str = "residential",
    horizon: int = 35,
    repeats: int = 10,
    seed: int = 3,
) -> Fig2Result:
    return Fig2Result(
        fast_series=_decay_series(fast_scenario, horizon, repeats, seed),
        slow_series=_decay_series(slow_scenario, horizon, repeats, seed),
        horizon=horizon,
    )


if __name__ == "__main__":
    print(run().report())
