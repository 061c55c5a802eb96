"""Simulated camera streams for the serving layer.

A :class:`SimStream` is the CPU-side of one camera: a bounded frame
buffer, a tracker-cost proxy, and per-stream adaptation — exactly the
parts of the single-device pipeline that stay independent when hundreds
of streams share one detector.  It reuses the single-device machinery
wholesale: :class:`~repro.core.adaptation.AdaptiveSettingPolicy` (with
the pretrained threshold table) picks the next detector input size from
measured velocity, :class:`~repro.tracking.frame_selection.TrackingFrameSelector`
plans how many buffered frames to track per cycle, and
:class:`~repro.tracking.tracker.TrackerLatencyModel` prices the CPU work.

What it does *not* do is touch pixels.  Content comes from a
:class:`StreamWorkload`: a deterministic per-frame (velocity, object
count) trace derived from a scenario preset's
:meth:`~repro.video.scenario.ScenarioConfig.content_speed_hint` and a
seeded parameter draw.  Both are pure functions of ``(config,
frame_index)`` — independent of call order — which is what makes a
500-stream run bit-identically replayable.

Backpressure: a stream degrades down the tracker *tier ladder*
(``lk`` → ``mve`` → ``keyframe``).  The ``mve`` middle rung submits only
every ``mve_interval``-th frame and rides the O(boxes) block-motion
tracker (:class:`~repro.tracking.mve.MVETracker` pricing) over its whole
backlog; the ``keyframe`` bottom rung submits every
``keyframe_interval``-th frame and runs no tracker at all — and charges
nothing, because untracked frames cost nothing.  Tier transitions are
driven by the scheduler's queue watermarks, not by the stream itself.

Every externally visible event (submit, result, drop, degrade, recover)
feeds a rolling sha256, so each stream ends a run with an event digest;
the fleet report combines them into the replay-identity check.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.adaptation import AdaptiveSettingPolicy, ThresholdTable
from repro.core.mpdt import FixedSettingPolicy, SettingPolicy
from repro.detection.profiles import get_profile
from repro.serve.admission import (
    QOS_BEST_EFFORT,
    QOS_CLASSES,
    DetectionRequest,
)
from repro.tracking.frame_selection import TrackingFrameSelector, select_spread_indices
from repro.tracking.tracker import (
    TIER_KEYFRAME,
    TIER_LK,
    TIER_MVE,
    TRACKER_TIERS,
    TrackerLatencyModel,
)

# Degradation order: each backpressure rung moves one step right.
_TIER_LADDER = (TIER_LK, TIER_MVE, TIER_KEYFRAME)
from repro.video.library import make_scenario


@dataclass(frozen=True, slots=True)
class StreamConfig:
    """Identity and knobs of one simulated stream."""

    stream_id: int
    qos: str = QOS_BEST_EFFORT
    fps: float = 30.0
    scenario: str = "intersection"
    seed: int = 0
    initial_setting: str | int = 512
    adaptive: bool = True
    buffer_capacity: int = 16
    # Keyframe-only mode submits one detection per this many frames.
    keyframe_interval: int = 8
    # The MVE middle tier submits one detection per this many frames.
    mve_interval: int = 4
    # Virtual time at which the stream joins the fleet (mid-run bursts).
    start_at: float = 0.0

    def __post_init__(self) -> None:
        if self.qos not in QOS_CLASSES:
            raise ValueError(
                f"unknown QoS class {self.qos!r}; known: {', '.join(QOS_CLASSES)}"
            )
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        if self.buffer_capacity < 1:
            raise ValueError("buffer_capacity must be >= 1")
        if self.keyframe_interval < 2:
            raise ValueError("keyframe_interval must be >= 2")
        if self.mve_interval < 2:
            raise ValueError("mve_interval must be >= 2")
        if self.start_at < 0:
            raise ValueError("start_at must be non-negative")


class StreamWorkload:
    """Deterministic per-frame content model for one stream.

    Velocity roams around the scenario's a-priori content speed hint with
    two seeded sinusoidal modes (slow drift + faster flutter) and a small
    per-frame jitter table; object count varies slowly around a seeded
    base.  All parameters are drawn once at construction from a seed
    sequence keyed on ``(seed, stream_id)``, after which every value is a
    pure O(1) function of ``frame_index``.
    """

    _JITTER_TABLE_SIZE = 256

    def __init__(self, config: StreamConfig) -> None:
        hint = make_scenario(config.scenario).content_speed_hint()
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=config.seed, spawn_key=(config.stream_id, 0x5EE5)
            )
        )
        self.base_velocity = float(max(0.2, hint) * rng.uniform(0.6, 1.5))
        self._slow = (
            float(rng.uniform(0.002, 0.008)),  # cycles per frame
            float(rng.uniform(0.0, 2.0 * math.pi)),
            float(rng.uniform(0.3, 0.8)),  # relative amplitude
        )
        self._fast = (
            float(rng.uniform(0.02, 0.06)),
            float(rng.uniform(0.0, 2.0 * math.pi)),
            float(rng.uniform(0.05, 0.2)),
        )
        self._jitter = rng.normal(0.0, 0.06, size=self._JITTER_TABLE_SIZE)
        self.base_objects = int(rng.integers(2, 9))
        self._objects_phase = float(rng.uniform(0.0, 2.0 * math.pi))
        self._objects_freq = float(rng.uniform(0.001, 0.01))

    def velocity(self, frame_index: int) -> float:
        """Eq. 3-scale content velocity (pixels/frame) at one frame."""
        slow_f, slow_p, slow_a = self._slow
        fast_f, fast_p, fast_a = self._fast
        modulation = (
            1.0
            + slow_a * math.sin(2.0 * math.pi * slow_f * frame_index + slow_p)
            + fast_a * math.sin(2.0 * math.pi * fast_f * frame_index + fast_p)
        )
        jitter = self._jitter[frame_index % self._JITTER_TABLE_SIZE]
        return max(0.0, self.base_velocity * modulation * (1.0 + jitter))

    def num_objects(self, frame_index: int) -> int:
        wave = math.sin(
            2.0 * math.pi * self._objects_freq * frame_index + self._objects_phase
        )
        return max(0, int(round(self.base_objects + 2.0 * wave)))


class SimStream:
    """Runtime state of one stream inside the fleet scheduler."""

    def __init__(
        self,
        config: StreamConfig,
        thresholds: ThresholdTable | None = None,
        latency: TrackerLatencyModel | None = None,
    ) -> None:
        self.config = config
        self.workload = StreamWorkload(config)
        if config.adaptive:
            if thresholds is None:
                from repro.core.pretrained import DEFAULT_THRESHOLD_TABLE

                thresholds = DEFAULT_THRESHOLD_TABLE
            self.policy: SettingPolicy = AdaptiveSettingPolicy(
                thresholds, config.initial_setting
            )
        else:
            self.policy = FixedSettingPolicy(config.initial_setting)
        self.setting = self.policy.initial()
        self.latency = latency or TrackerLatencyModel()
        per_frame = self.latency.per_frame_cost(self.workload.base_objects)
        self.selector = TrackingFrameSelector(
            initial_fraction=min(1.0, (1.0 / config.fps) / per_frame)
        )
        self.buffer: deque[int] = deque(maxlen=config.buffer_capacity)
        self.tier = TIER_LK
        self.in_flight: int | None = None  # frame index of the outstanding request
        self.last_result_frame: int | None = None

        self.frames_arrived = 0
        self.buffer_dropped = 0
        self.submitted = 0
        self.served = 0
        self.dropped = 0
        self.tracked_frames = 0
        self.switches = 0
        self.degraded_episodes = 0
        self.degraded_frames = 0
        self.mve_frames = 0
        self.tier_transitions = 0
        self.cpu_busy_s = 0.0
        self._hasher = hashlib.sha256()

    @property
    def degraded(self) -> bool:
        """True on any tier below full LK tracking."""
        return self.tier != TIER_LK

    # -- event log -------------------------------------------------------------

    def _log(self, kind: str, frame: int, now: float, extra: str = "") -> None:
        self._hasher.update(f"{kind}|{frame}|{now!r}|{extra}\n".encode())

    def digest(self) -> str:
        """Rolling sha256 over every externally visible stream event."""
        return self._hasher.hexdigest()

    # -- frame arrival ---------------------------------------------------------

    def on_frame(self, frame_index: int) -> bool:
        """Buffer every frame up to ``frame_index``; True if that last
        frame should become a detection.

        Frame ``k`` is the stream's ``k``-th arrival, so the call applies
        arrivals ``frames_arrived .. frame_index`` in one closed-form step,
        with exactly the effect of applying them one at a time on the
        current tier: each is counted (and counted as degraded on a tier
        below ``lk``), and the bounded buffer keeps the newest
        ``buffer_capacity`` of them, counting one drop per frame it evicts.
        Only the last frame's submit decision is returned; a caller that
        skips arrivals skips only ones that would not submit.  A stream
        with a request in flight never submits; otherwise a frame submits
        when :meth:`next_submit` lands on it.
        """
        first = self.frames_arrived
        count = frame_index + 1 - first
        if count < 1:
            raise ValueError(
                f"frame {frame_index} already arrived ({first} frames so far)"
            )
        self.frames_arrived = frame_index + 1
        tier = self.tier
        if tier != TIER_LK:
            self.degraded_frames += count
            if tier == TIER_MVE:
                self.mve_frames += count
        buffer = self.buffer
        overflow = len(buffer) + count - buffer.maxlen
        if overflow > 0:
            self.buffer_dropped += overflow
        oldest_kept = max(first, frame_index + 1 - buffer.maxlen)
        buffer.extend(range(oldest_kept, frame_index + 1))
        return self.in_flight is None and self.next_submit(frame_index) == frame_index

    def next_submit(self, frame_index: int) -> int:
        """The first frame at or after ``frame_index`` that submits if the
        stream stays idle on its current tier: the next frame on ``lk``,
        the next multiple of ``mve_interval`` or ``keyframe_interval`` on
        the degraded tiers."""
        tier = self.tier
        if tier == TIER_LK:
            return frame_index
        step = (
            self.config.mve_interval
            if tier == TIER_MVE
            else self.config.keyframe_interval
        )
        return -(-frame_index // step) * step

    # -- detector round-trip ---------------------------------------------------

    def make_request(self, frame_index: int, now: float) -> DetectionRequest:
        return DetectionRequest(
            stream_id=self.config.stream_id,
            frame_index=frame_index,
            qos=self.config.qos,
            setting=self.setting,
            num_objects=self.workload.num_objects(frame_index),
            submitted_at=now,
        )

    def on_submitted(self, frame_index: int, now: float) -> None:
        self.in_flight = frame_index
        self.submitted += 1
        self._log("submit", frame_index, now, self.setting)

    def on_dropped(self, frame_index: int, now: float, reason: str) -> None:
        """The admission queue explicitly refused/evicted our request."""
        if self.in_flight == frame_index:
            self.in_flight = None
        self.dropped += 1
        self._log("drop", frame_index, now, reason)

    def on_result(self, frame_index: int, now: float) -> dict:
        """Detector result delivered: track the backlog, adapt the setting.

        The frames that arrived while the detector ran (newer than the
        detected one) are the cycle's tracking work: the selector plans
        how many to track, the latency model prices them, and the
        measured velocity (the workload trace sampled at the tracked
        frames) drives the adaptation policy — the same cycle shape as
        single-device MPDT, minus the pixels.  Frames at or before the
        detected one are superseded by the fresh boxes, and the tracker
        catches up to the newest buffered frame (skipping per plan), so
        the whole buffer is consumed.

        The tier ladder changes what the cycle does between keyframes:
        the ``lk`` tier seeds features and tracks the selector's plan;
        the ``mve`` tier tracks *every* behind frame — block matching is
        cheap enough that skipping buys nothing — at the per-block MVE
        price, with no feature-extraction seed and no overlay render
        (degraded streams run headless); the ``keyframe`` tier runs no
        tracker and charges nothing (the historical bug billed LK
        feature extraction + per-frame costs for frames that were never
        tracked).  The selector's EMA state is only advanced on the
        ``lk`` tier, so a recovered stream resumes planning from where
        full tracking left off.
        """
        self.served += 1
        self.in_flight = None
        behind = [index for index in self.buffer if index > frame_index]
        self.buffer.clear()
        num_objects = self.workload.num_objects(frame_index)
        tracked_indices: list[int] = []
        cpu = 0.0
        if self.tier == TIER_LK:
            planned = self.selector.plan(len(behind))
            if planned > 0 and behind:
                tracked_indices = select_spread_indices(
                    behind[0], behind[-1] + 1, planned
                )
            self.selector.record_cycle(len(tracked_indices), len(behind))
            if tracked_indices:
                cpu = self.latency.seed_cost(TIER_LK) + sum(
                    self.latency.per_frame_cost(num_objects, TIER_LK)
                    for _ in tracked_indices
                )
        elif self.tier == TIER_MVE:
            tracked_indices = behind
            cpu = len(behind) * self.latency.track_latency(num_objects, TIER_MVE)
        tracked = len(tracked_indices)
        self.tracked_frames += tracked
        self.cpu_busy_s += cpu
        velocity: float | None = None
        if tracked_indices:
            velocity = float(
                np.mean([self.workload.velocity(i) for i in tracked_indices])
            )
        previous = self.setting
        self.setting = get_profile(
            self.policy.next_setting(velocity, previous)
        ).name
        if self.setting != previous:
            self.switches += 1
        self.last_result_frame = frame_index
        self._log("result", frame_index, now, f"{velocity!r}|{self.setting}")
        return {
            "tracked": tracked,
            "velocity": velocity,
            "switched": self.setting != previous,
            "cpu_s": cpu,
        }

    # -- backpressure ----------------------------------------------------------

    def set_tier(self, tier: str, now: float) -> bool:
        """Move to an explicit tracker tier; True if this was a transition."""
        if tier not in TRACKER_TIERS:
            raise ValueError(
                f"unknown tracker tier {tier!r}; known: {', '.join(TRACKER_TIERS)}"
            )
        if tier == self.tier:
            return False
        if self.tier == TIER_LK:
            self.degraded_episodes += 1
        self.tier = tier
        self.tier_transitions += 1
        self._log("tier", self.frames_arrived, now, tier)
        return True

    def degrade(self, now: float) -> bool:
        """Step one rung down the tier ladder; True if this was a transition."""
        rung = _TIER_LADDER.index(self.tier)
        if rung == len(_TIER_LADDER) - 1:
            return False
        return self.set_tier(_TIER_LADDER[rung + 1], now)

    def recover(self, now: float) -> bool:
        """Return to the full LK tier; True if this was a transition."""
        return self.set_tier(TIER_LK, now)
