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
    render_cache: int = 64
    # MiB budget for the worker's process-wide FrameStore (None = leave it
    # alone).  ``run_shard`` applies it in the worker before each cell;
    # re-applying an unchanged budget evicts nothing.  ``build()`` must
    # not reconfigure the store, and a sweep runs under one budget (see
    # ``validate_store_budgets``), or a clip would evict mid-sweep.
    frame_store_mb: int | None = None
    # MiB budget for the worker's process-wide derived-artifact store
    # (pyramid images; see repro.vision.artifact_store).  Same
    # contract as ``frame_store_mb``.
    artifact_store_mb: int | None = None

    @classmethod
    def from_clip(
        cls,
        clip: VideoClip,
        render_cache: int | None = None,
        frame_store_mb: int | None = None,
        artifact_store_mb: int | None = None,
    ) -> "ClipSpec":
        return cls(
            config=clip.config,
            seed=clip.scene.seed,
            name=clip.name,
            render_cache=(
                render_cache if render_cache is not None else clip.renderer.cache_size
            ),
            frame_store_mb=frame_store_mb,
            artifact_store_mb=artifact_store_mb,
        )

    def build(self) -> VideoClip:
        return make_clip(
            self.config, seed=self.seed, name=self.name, render_cache=self.render_cache
        )


def validate_store_budgets(
    clip_specs: "list[ClipSpec]", attr: str = "frame_store_mb"
) -> int | None:
    """The sweep's single store budget (MiB) for ``attr``, or ``None``.

    A sweep must run under one budget: the stores are process-wide, so a
    clip carrying a different ``frame_store_mb`` (or ``artifact_store_mb``)
    would reconfigure (and possibly evict) the store mid-sweep for every
    method sharing it.  Raises ``ValueError`` when the specs disagree;
    ``None`` entries mean "no opinion" and never conflict.
    """
    budgets = {
        budget
        for budget in (getattr(s, attr) for s in clip_specs)
        if budget is not None
    }
    if len(budgets) > 1:
        raise ValueError(
            f"sweep clips declare conflicting {attr} budgets "
            f"{sorted(budgets)}; a sweep runs under one store budget"
        )
    return budgets.pop() if budgets else None


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
    render_hits: int = 0
    render_misses: int = 0
    store_hits: int = 0
    store_misses: int = 0
    store_evicted_bytes: int = 0
    artifact_hits: int = 0
    artifact_misses: int = 0
    artifact_evicted_bytes: int = 0
    pyramid_hits: int = 0
    pyramid_misses: int = 0
    pyramid_evictions: int = 0
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
