"""MARLIN baseline: sequential detect-then-track (paper §II, §IV-B, Fig. 4).

MARLIN runs the DNN, hands the result to the tracker, and *stops the
detector* while the tracker follows the objects; a scene-change detector
(a threshold on the same Eq. 3 velocity signal, per the paper's §VI-A
implementation note) re-triggers the DNN.  The structural weaknesses the
paper calls out both emerge from this timing model:

- while the DNN runs, nothing tracks — the buffered frames hold a stale
  result;
- the tracker works through its backlog at tracker speed, so it lags real
  time by roughly one detection latency; a scene change is therefore
  noticed late, and the frames between the tracker's position and the
  newest frame are served stale results when the detector finally fires.

As in the paper, the velocity trigger threshold is tuned offline for best
MARLIN accuracy (see ``repro.experiments.marlin_tuning``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import PipelineConfig
from repro.detection.detector import SimulatedYOLOv3
from repro.detection.profiles import get_profile
from repro.metrics.energy import ActivityLog
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.runtime.simulator import (
    SOURCE_DETECTOR,
    SOURCE_TRACKER,
    CycleRecord,
    FrameResult,
    PipelineRun,
    ResultBoard,
)
from repro.tracking.motion import MotionVelocityEstimator
from repro.tracking.tracker import ObjectTracker
from repro.video.dataset import VideoClip
from repro.video.source import CameraSource


@dataclass(frozen=True, slots=True)
class MarlinConfig:
    """MARLIN's knobs on top of the shared :class:`PipelineConfig`.

    ``trigger_velocity``: Eq. 3 velocity above which the scene is deemed
    changed and the DNN re-triggered (tuned offline, §VI-A).  The trigger
    compares the mean of the last ``trigger_window`` velocity samples, not
    a single sample — an instantaneous trigger would fire on measurement
    noise and degenerate MARLIN into detection-only.
    ``max_cycle_seconds``: re-detect at least this often even without a
    trigger; real trackers cannot run open-loop forever (MARLIN uses
    additional triggers we fold into this cap).
    """

    setting: str | int = 512
    trigger_velocity: float = 0.45  # tuned offline (repro.experiments.marlin_tuning)
    trigger_window: int = 3
    max_cycle_seconds: float = 4.0

    def __post_init__(self) -> None:
        if self.trigger_velocity <= 0:
            raise ValueError("trigger_velocity must be positive")
        if self.trigger_window < 1:
            raise ValueError("trigger_window must be >= 1")
        if self.max_cycle_seconds <= 0:
            raise ValueError("max_cycle_seconds must be positive")


class MarlinPipeline:
    """Sequential detection/tracking with scene-change re-triggering."""

    def __init__(
        self,
        marlin: MarlinConfig | None = None,
        config: PipelineConfig | None = None,
        method_name: str | None = None,
        obs: Telemetry | None = None,
    ) -> None:
        self.marlin = marlin or MarlinConfig()
        self.config = config or PipelineConfig()
        profile = get_profile(self.marlin.setting)
        self.setting = profile.name
        self.method_name = method_name or f"marlin-{profile.name}"
        self.obs = obs or NULL_TELEMETRY

    def run(self, clip: VideoClip) -> PipelineRun:
        cfg = self.config
        obs = self.obs
        marlin = self.marlin
        source = CameraSource(clip)
        detector = SimulatedYOLOv3(
            self.setting, seed=cfg.detector_seed,
            frame_width=clip.config.frame_width,
            frame_height=clip.config.frame_height,
        )
        board = ResultBoard(clip.num_frames)
        activity = ActivityLog()
        cycles: list[CycleRecord] = []

        # Tracking stride so the tracker keeps camera pace on average:
        # one tracked frame per ceil(cost/interval) captured frames.
        frame_interval = source.frame_interval
        t = 0.0
        detect_frame = 0
        last_frame = clip.num_frames - 1

        while True:
            # ---- detection phase (tracker idle) --------------------------------
            detection = detector.detect(clip.annotation(detect_frame))
            detect_start = t
            t += detection.latency
            activity.add_gpu(detection.profile_name, detection.latency)
            activity.add_cpu("detect_assist", detection.latency)
            board.post(
                FrameResult(detect_frame, detection.detections, SOURCE_DETECTOR, t)
            )
            activity.add_cpu("overlay", cfg.latency.overlay)
            obs.record_span(
                "marlin.detect", detect_start, t,
                frame=detect_frame, setting=detection.profile_name,
            )
            obs.counter("marlin.cycles").inc()
            obs.histogram(
                "marlin.cycle_latency", setting=detection.profile_name
            ).observe(detection.latency)

            # ---- tracking phase (detector idle) --------------------------------
            tracker = ObjectTracker(
                clip, cfg.tracker,
                seed=cfg.detector_seed * 1_000_003 + detect_frame,
            )
            tracker.initialize(detect_frame, detection.detections)
            t += cfg.latency.feature_extraction
            activity.add_cpu("feature_extraction", cfg.latency.feature_extraction)
            estimator = MotionVelocityEstimator()
            cycle_start = t
            position = detect_frame
            tracked = 0
            triggered = False
            recent: list[float] = []
            while True:
                step_cost = cfg.latency.per_frame_cost(tracker.num_objects)
                stride = max(1, round(step_cost / frame_interval))
                next_position = position + stride
                if next_position > last_frame:
                    break
                # The tracker cannot process a frame before it is captured.
                t = max(t, source.capture_time(next_position))
                step = tracker.track_to(next_position)
                obs.record_span(
                    "marlin.track_step", t, t + step_cost, frame=next_position
                )
                obs.counter("marlin.tracked_frames").inc()
                t += step_cost
                activity.add_cpu(
                    "tracking", cfg.latency.track_latency(tracker.num_objects)
                )
                activity.add_cpu("overlay", cfg.latency.overlay)
                board.post(
                    FrameResult(next_position, step.detections, SOURCE_TRACKER, t)
                )
                position = next_position
                tracked += 1
                if step.velocity is not None:
                    estimator.add_sample(step.velocity)
                    recent.append(step.velocity)
                    if len(recent) > marlin.trigger_window:
                        recent.pop(0)
                    smoothed = sum(recent) / len(recent)
                    if (
                        len(recent) >= marlin.trigger_window
                        and smoothed > marlin.trigger_velocity
                    ):
                        triggered = True
                if t - cycle_start >= marlin.max_cycle_seconds:
                    triggered = True
                if triggered:
                    obs.counter("marlin.triggers").inc()
                    break

            cycles.append(
                CycleRecord(
                    index=len(cycles),
                    profile_name=detection.profile_name,
                    detect_frame=detect_frame,
                    detect_start=detect_start,
                    detect_end=detect_start + detection.latency,
                    buffered_frames=max(0, position - detect_frame - 1),
                    planned_tracked=tracked,
                    tracked=tracked,
                    velocity=estimator.cycle_velocity(),
                    next_profile=detection.profile_name,
                )
            )
            if position >= last_frame or not triggered:
                break
            # Re-trigger: the DNN fetches the *newest* frame; frames between
            # the tracker's (lagging) position and that frame go stale.
            detect_frame = source.newest_frame_at(t)
            if detect_frame <= position:
                detect_frame = min(position + 1, last_frame)
                t = max(t, source.capture_time(detect_frame))
            if detect_frame >= last_frame:
                detect_frame = last_frame

        activity.duration = max(t, source.duration)
        return PipelineRun(
            method=self.method_name,
            clip_name=clip.name,
            num_frames=clip.num_frames,
            fps=clip.fps,
            results=board.finalize(),
            cycles=cycles,
            activity=activity,
        )
