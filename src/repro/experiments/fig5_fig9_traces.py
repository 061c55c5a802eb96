"""Fig. 5 and Fig. 9: frame-level accuracy traces.

Fig. 5 contrasts MPDT-YOLOv3-320 with MPDT-YOLOv3-608 frame by frame on
one clip: the small setting calibrates often from a mediocre baseline, the
large one calibrates rarely from a high baseline, and each wins on some
frames.

Fig. 9 contrasts AdaVP with the best fixed baseline (MPDT-512) on a clip
whose dynamics change mid-video: the fixed setting suffers through the
change while AdaVP's adaptation dodges it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.mpdt import FixedSettingPolicy, MPDTPipeline
from repro.experiments.report import format_series
from repro.experiments.runners import evaluate_run
from repro.experiments.workloads import make_phase_clip
from repro.parallel import run_sweep
from repro.video.dataset import VideoClip, VideoSuite, make_clip


@dataclass(frozen=True)
class TraceResult:
    title: str
    labels: tuple[str, str]
    series_a: np.ndarray
    series_b: np.ndarray
    accuracy_a: float
    accuracy_b: float

    def report(self, stride: int = 10) -> str:
        frames = list(range(0, len(self.series_a), stride))
        part_a = format_series(
            f"{self.title} — {self.labels[0]} (accuracy {self.accuracy_a:.3f})",
            frames, self.series_a[frames], "frame", "F1",
        )
        part_b = format_series(
            f"{self.title} — {self.labels[1]} (accuracy {self.accuracy_b:.3f})",
            frames, self.series_b[frames], "frame", "F1",
        )
        return f"{part_a}\n\n{part_b}"


def run_fig5(
    clip: VideoClip | None = None, config: PipelineConfig | None = None
) -> TraceResult:
    """MPDT-320 vs MPDT-608 frame accuracy on a medium-speed clip."""
    clip = clip or make_clip("intersection", seed=91, num_frames=240)
    acc = {}
    series = {}
    for size in (320, 608):
        run_ = MPDTPipeline(FixedSettingPolicy(size), config).run(clip)
        acc[size], series[size] = evaluate_run(run_, clip)
    return TraceResult(
        title="Fig. 5 — frame accuracy under two fixed settings",
        labels=("MPDT-YOLOv3-320", "MPDT-YOLOv3-608"),
        series_a=series[320],
        series_b=series[608],
        accuracy_a=acc[320],
        accuracy_b=acc[608],
    )


def run_fig9(
    clip: VideoClip | None = None, config: PipelineConfig | None = None
) -> TraceResult:
    """AdaVP vs MPDT-512 frame accuracy on a clip with changing dynamics."""
    clip = clip or make_phase_clip("city_street", seed=92, num_frames=300,
                                   calm_until=0.5, speed_scale=2.6)
    # One sweep runs both in lockstep, so they share each Lucas-Kanade
    # step: AdaVP starts at 512 and tracks MPDT-512's points until it
    # switches.
    methods = ("adavp", "mpdt-512")
    suite = VideoSuite(name=clip.name, clips=[clip])
    sweep = run_sweep(methods, suite, config=config, keep_runs=True)
    sweep.raise_if_failed()
    adavp_run, mpdt_run = (sweep.results[name].runs[0] for name in methods)
    adavp_acc, adavp_series = evaluate_run(adavp_run, clip)
    mpdt_acc, mpdt_series = evaluate_run(mpdt_run, clip)
    return TraceResult(
        title="Fig. 9 — AdaVP vs the best fixed baseline",
        labels=("AdaVP", "MPDT-YOLOv3-512"),
        series_a=adavp_series,
        series_b=mpdt_series,
        accuracy_a=adavp_acc,
        accuracy_b=mpdt_acc,
    )


if __name__ == "__main__":
    print(run_fig5().report())
    print()
    print(run_fig9().report())
