"""Method registry and suite-level evaluation helpers.

A *method* is anything with ``run(clip) -> PipelineRun``; the registry maps
the paper's method names ("adavp", "mpdt-512", "marlin-512",
"no-tracking-608", "continuous-tiny-320", ...) to factories so every bench
builds methods the same way, with the same shared :class:`PipelineConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.baselines.continuous import ContinuousDetectionPipeline
from repro.baselines.marlin import MarlinConfig, MarlinPipeline
from repro.baselines.no_tracking import NoTrackingPipeline
from repro.core.adavp import AdaVP
from repro.core.config import PipelineConfig
from repro.core.mpdt import FixedSettingPolicy, MPDTPipeline
from repro.metrics.accuracy import frame_f1_series, video_accuracy
from repro.metrics.energy import ActivityLog, EnergyBreakdown, TX2_POWER_MODEL
from repro.runtime.simulator import PipelineRun
from repro.video.dataset import VideoClip, VideoSuite

_SETTINGS = (320, 416, 512, 608)


def _with_mve_tier(config: PipelineConfig) -> PipelineConfig:
    from repro.tracking.tracker import TIER_MVE

    return replace(config, tracker_tier=TIER_MVE)


def _adavp_factory(name: str, config: PipelineConfig, kwargs: dict):
    return AdaVP(config=config, **kwargs)


def _mve_factory(name: str, config: PipelineConfig, kwargs: dict):
    """AdaVP adaptation over the block-motion fast tier (DESIGN.md §12)."""
    return AdaVP(config=_with_mve_tier(config), method_name=name, **kwargs)


def _mpdt_factory(setting: int):
    def build(name: str, config: PipelineConfig, kwargs: dict):
        return MPDTPipeline(
            FixedSettingPolicy(setting), config, method_name=name, **kwargs
        )

    return build


def _mpdt_mve_factory(setting: int):
    def build(name: str, config: PipelineConfig, kwargs: dict):
        return MPDTPipeline(
            FixedSettingPolicy(setting),
            _with_mve_tier(config),
            method_name=name,
            **kwargs,
        )

    return build


def _marlin_factory(setting: int):
    def build(name: str, config: PipelineConfig, kwargs: dict):
        marlin_cfg = kwargs.pop("marlin", None) or MarlinConfig(setting=setting)
        return MarlinPipeline(marlin_cfg, config, method_name=name, **kwargs)

    return build


def _no_tracking_factory(setting: int):
    def build(name: str, config: PipelineConfig, kwargs: dict):
        return NoTrackingPipeline(setting, config, method_name=name, **kwargs)

    return build


def _continuous_factory(setting: str):
    def build(name: str, config: PipelineConfig, kwargs: dict):
        return ContinuousDetectionPipeline(setting, config, method_name=name, **kwargs)

    return build


def _build_registry():
    """Every method name the benches understand, parsed once up front.

    Each entry is ``name -> factory(name, config, kwargs)``; settings are
    bound here rather than re-derived from the name at construction time.
    """
    registry = {"adavp": _adavp_factory, "mve": _mve_factory}
    for setting in _SETTINGS:
        registry[f"mpdt-{setting}"] = _mpdt_factory(setting)
    for setting in _SETTINGS:
        registry[f"mpdt-mve-{setting}"] = _mpdt_mve_factory(setting)
    for setting in _SETTINGS:
        registry[f"marlin-{setting}"] = _marlin_factory(setting)
    for setting in _SETTINGS:
        registry[f"no-tracking-{setting}"] = _no_tracking_factory(setting)
    registry["continuous-320"] = _continuous_factory("yolov3-320")
    registry["continuous-608"] = _continuous_factory("yolov3-608")
    registry["continuous-tiny-320"] = _continuous_factory("yolov3-tiny-320")
    return registry


_REGISTRY = _build_registry()

# The method names every figure/table bench understands.
METHODS: tuple[str, ...] = tuple(_REGISTRY)


def make_method(name: str, config: PipelineConfig | None = None, **kwargs):
    """Instantiate a method by its registry name.

    ``kwargs`` are forwarded to the method constructor (e.g. a custom
    threshold table for ``adavp`` or a trigger velocity for MARLIN).
    """
    factory = _REGISTRY.get(name)
    if factory is None:
        raise KeyError(f"unknown method {name!r}; known: {', '.join(METHODS)}")
    return factory(name, config or PipelineConfig(), dict(kwargs))


def run_method_on_clip(method, clip: VideoClip) -> PipelineRun:
    """Run a method over one clip (AdaVP exposes ``process``, others ``run``)."""
    runner = getattr(method, "process", None) or method.run
    return runner(clip)


@dataclass
class MethodResult:
    """Aggregated suite-level outcome of one method."""

    method: str
    per_video_accuracy: list[float] = field(default_factory=list)
    per_video_mean_f1: list[float] = field(default_factory=list)
    runs: list[PipelineRun] = field(default_factory=list)
    activity: ActivityLog = field(default_factory=ActivityLog)

    @property
    def accuracy(self) -> float:
        """Suite accuracy: mean per-video %frames-above-alpha (paper §VI-A)."""
        if not self.per_video_accuracy:
            raise ValueError(
                f"method {self.method!r} has no per-video results — "
                "was it run on an empty suite?"
            )
        return float(np.mean(self.per_video_accuracy))

    @property
    def mean_f1(self) -> float:
        if not self.per_video_mean_f1:
            raise ValueError(
                f"method {self.method!r} has no per-video results — "
                "was it run on an empty suite?"
            )
        return float(np.mean(self.per_video_mean_f1))

    def energy(self) -> EnergyBreakdown:
        """Table III-style energy, integrated over the whole suite."""
        return TX2_POWER_MODEL.breakdown(self.activity)


def evaluate_run(
    run: PipelineRun,
    clip: VideoClip,
    alpha: float = 0.7,
    iou_threshold: float = 0.5,
) -> tuple[float, np.ndarray]:
    """(video accuracy, per-frame F1 series) for one run."""
    f1 = frame_f1_series(
        run.detections_per_frame(), clip.scene.annotations(), iou_threshold
    )
    return video_accuracy(f1, alpha), f1


def run_method_on_suite(
    name: str,
    suite: VideoSuite,
    config: PipelineConfig | None = None,
    alpha: float = 0.7,
    iou_threshold: float = 0.5,
    keep_runs: bool = False,
    jobs: int = 1,
    obs=None,
    progress=None,
    **kwargs,
) -> MethodResult:
    """Run a registry method over a suite and aggregate paper-style metrics.

    Delegates to the sweep engine: ``jobs=1`` runs the clips inline in
    suite order (bit-identical to the historical sequential loop);
    ``jobs>1`` shards the clips over a process
    pool.  A shard that fails both attempts raises ``RuntimeError`` — a
    single-method sweep has no partial-result story to fall back on.
    """
    from repro.parallel import run_sweep

    sweep = run_sweep(
        [name],
        suite,
        config=config,
        alpha=alpha,
        iou_threshold=iou_threshold,
        keep_runs=keep_runs,
        jobs=jobs,
        obs=obs,
        progress=progress,
        method_kwargs={name: kwargs} if kwargs else None,
    )
    sweep.raise_if_failed()
    return sweep.results[name]
