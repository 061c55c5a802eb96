"""Picklable work units for the parallel sweep engine.

A sweep shard is one (method, clip) cell of an experiment grid.  Worker
processes never receive live pipelines, renderers, or telemetry — those
hold caches, locks, and open sinks that must not cross a process
boundary.  Instead every shard ships as a :class:`ShardSpec` built from
plain frozen dataclasses, and the worker reconstructs the clip and the
method from scratch.  Reconstruction is deterministic (scenes, renders,
and detector noise are pure functions of their seeds), so a shard run in
a worker is bit-identical to the same cell run inline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.config import PipelineConfig
from repro.metrics.energy import ActivityLog
from repro.obs.trace import Span
from repro.runtime.simulator import PipelineRun
from repro.video.dataset import VideoClip, make_clip
from repro.video.scenario import ScenarioConfig


@dataclass(frozen=True)
class ClipSpec:
    """Everything needed to rebuild a :class:`VideoClip` in a worker."""

    config: ScenarioConfig
    seed: int
    name: str

    @classmethod
    def from_clip(cls, clip: VideoClip) -> "ClipSpec":
        return cls(config=clip.config, seed=clip.scene.seed, name=clip.name)

    def build(self) -> VideoClip:
        return make_clip(self.config, seed=self.seed, name=self.name)


@dataclass(frozen=True)
class MethodSpec:
    """A registry method name plus its construction arguments.

    ``kwargs`` are forwarded to :func:`repro.experiments.runners.make_method`
    and must be picklable; telemetry is deliberately not part of the spec —
    workers build their own and the engine funnels it back.
    """

    name: str
    config: PipelineConfig | None = None
    kwargs: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ShardSpec:
    """One (method, clip) cell of a sweep grid.

    ``index`` is the cell's position in the deterministic method-major
    grid order; the reducer reassembles results by it regardless of the
    order shards finish in.  ``attempt`` counts resubmissions after a
    worker-side failure.
    """

    index: int
    method: MethodSpec
    clip: ClipSpec
    clip_index: int
    alpha: float = 0.7
    iou_threshold: float = 0.5
    keep_run: bool = False
    collect_obs: bool = False
    attempt: int = 0


@dataclass
class ShardResult:
    """What one shard sends back to the parent process.

    On success ``error`` is ``None`` and the metric fields are set; on a
    worker-side failure ``error`` carries the formatted traceback and the
    metric fields keep their defaults.  ``spans``/``metrics`` hold the
    shard's telemetry when the spec asked for it (``collect_obs``).
    """

    index: int
    method: str
    clip_name: str
    clip_index: int
    accuracy: float = 0.0
    mean_f1: float = 0.0
    activity: ActivityLog = field(default_factory=ActivityLog)
    run: PipelineRun | None = None
    spans: list[Span] = field(default_factory=list)
    metrics: list[dict[str, Any]] = field(default_factory=list)
    # The pixel work counted in :data:`repro.obs.WORK` during the cell,
    # by counter name (``store.<kind>.*``, ``lk.*``, ``seed.*``).
    counts: dict[str, int] = field(default_factory=dict)
    elapsed_s: float = 0.0
    worker_pid: int = 0
    attempt: int = 0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class ShardFailure:
    """A shard that failed every attempt, as reported in the sweep summary."""

    method: str
    clip_name: str
    attempts: int
    error: str
