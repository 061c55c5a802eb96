"""Outside-in layer tracing: ``perf_counter`` spans around public functions.

The benchmark never edits the program to measure it.  A :class:`Tracer`
replaces the public functions named in :data:`PROBES` with wrappers that
time each call, then puts the originals back.  Spans nest through a stack,
so a span's *self* time is its duration minus the part its child spans
cover; the self times of every span under one root add up to the root's
duration exactly, and the root's own self time is the part of the work no
layer claims (``trace.unattributed_frac``).

A probe whose module or attribute no longer exists is reported as absent
instead of failing, so the benchmark keeps running while the program
deletes the code it watches.  The tracer assumes one thread runs the
traced code, which holds for every workload the benchmark runs.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable

# The module whose store classes reuse the frame-store backings for
# pyramid artifacts.  Backing calls made on those receivers belong to the
# artifact-store span that is already open, so they get no span of their
# own (counting them as frame-store traffic would double-count the layer).
_ARTIFACT_MODULE = "repro.vision.artifact_store"


@dataclass(frozen=True)
class Probe:
    """One public function or method to time, under the span ``span``."""

    span: str
    module: str
    attr: str  # "func" or "Class.method"
    skip_receiver_module: str | None = None


PROBES: tuple[Probe, ...] = (
    # video: clip construction, rendering and the frame caches
    Probe("video.scene", "repro.video.scene", "Scene.__init__"),
    Probe("video.renderer_init", "repro.video.render", "FrameRenderer.__init__"),
    Probe("video.render", "repro.video.render", "FrameRenderer.render_frame"),
    Probe("video.frame", "repro.video.render", "FrameRenderer.render"),
    Probe("video.frame_store.get", "repro.video.framestore", "FrameStore.get", _ARTIFACT_MODULE),
    Probe("video.frame_store.put", "repro.video.framestore", "FrameStore.put", _ARTIFACT_MODULE),
    Probe("video.frame_store.get", "repro.video.framestore", "SharedFrameStore.get", _ARTIFACT_MODULE),
    Probe("video.frame_store.put", "repro.video.framestore", "SharedFrameStore.put", _ARTIFACT_MODULE),
    # vision: pyramids, gradients, their caches, and the tracker kernels
    # (kernel names are patched where the trackers look them up)
    Probe("vision.pyramid", "repro.vision.optical_flow", "FramePyramid.__init__"),
    Probe("vision.gradients", "repro.vision.optical_flow", "FramePyramid.warm_gradients"),
    Probe("vision.pyramid_cache", "repro.vision.pyramid_cache", "PyramidCache.get"),
    Probe("vision.artifact_store.get", _ARTIFACT_MODULE, "ArtifactStore.get"),
    Probe("vision.artifact_store.put", _ARTIFACT_MODULE, "ArtifactStore.put"),
    Probe("vision.features", "repro.tracking.tracker", "good_features_to_track"),
    Probe("vision.features", "repro.tracking.tracker", "fast_corners"),
    Probe("vision.lk", "repro.tracking.tracker", "track_features"),
    Probe("vision.block_motion", "repro.tracking.mve", "block_motion_field"),
    # tracking: the two tracker tiers
    Probe("tracking.lk.seed", "repro.tracking.tracker", "ObjectTracker.initialize"),
    Probe("tracking.lk.step", "repro.tracking.tracker", "ObjectTracker.track_to"),
    Probe("tracking.mve.seed", "repro.tracking.mve", "MVETracker.initialize"),
    Probe("tracking.mve.step", "repro.tracking.mve", "MVETracker.track_to"),
    # detection, the pipeline loop, and scoring
    Probe("detection.detect", "repro.detection.detector", "SimulatedYOLOv3.detect"),
    Probe("core.pipeline", "repro.experiments.runners", "run_method_on_clip"),
    Probe("metrics.evaluate", "repro.experiments.runners", "evaluate_run"),
    # serve and the event loop it runs on
    Probe("serve.scheduler", "repro.serve.scheduler", "ServeScheduler.__init__"),
    Probe("serve.scheduler", "repro.serve.scheduler", "ServeScheduler.run"),
    Probe("runtime.events", "repro.runtime.events", "EventQueue.run"),
    Probe("serve.stream.on_frame", "repro.serve.streams", "SimStream.on_frame"),
    Probe("serve.stream.on_result", "repro.serve.streams", "SimStream.on_result"),
    Probe("serve.admission.submit", "repro.serve.admission", "AdmissionQueue.submit"),
    Probe("serve.admission.next_batch", "repro.serve.admission", "AdmissionQueue.next_batch"),
    Probe("serve.detector.batch", "repro.serve.detector", "SharedDetectorModel.batch_latency"),
)

# The span the benchmark opens around each unit of work (a sweep cell, a
# clip run, a serve rung); its self time is the unattributed remainder.
ROOT = "root"


def _resolve(probe: Probe) -> tuple[Any, str] | None:
    """``(owner, attribute name)`` for a probe, or None when it is gone."""
    try:
        owner: Any = importlib.import_module(probe.module)
    except ImportError:
        return None
    *path, name = probe.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if name not in vars(owner):
        return None
    return owner, name


class Tracer:
    """Span statistics per name: ``[calls, total seconds, self seconds]``."""

    def __init__(self) -> None:
        self.stats: dict[str, list[float]] = {}
        # Child time accumulated by each open span, innermost last.
        self._open: list[float] = []
        self._installed: list[tuple[Any, str, Any]] = []
        self.absent: list[str] = []

    def call(self, span: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span named ``span``."""
        open_spans = self._open
        open_spans.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            child = open_spans.pop()
            if open_spans:
                open_spans[-1] += elapsed
            entry = self.stats.get(span)
            if entry is None:
                entry = self.stats[span] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - child

    def _wrapper(self, probe: Probe, original: Any) -> Any:
        call = self.call
        span = probe.span
        skip = probe.skip_receiver_module
        if skip is None:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return call(span, original, *args, **kwargs)
        else:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if type(args[0]).__module__ == skip:
                    return original(*args, **kwargs)
                return call(span, original, *args, **kwargs)
        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper

    def install(self, probes: tuple[Probe, ...] = PROBES) -> list[str]:
        """Wrap every probe that still exists; returns the absent spans."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        absent = []
        for probe in probes:
            target = _resolve(probe)
            if target is None:
                absent.append(f"{probe.span} ({probe.module}.{probe.attr})")
                continue
            owner, name = target
            original = vars(owner)[name]
            self._installed.append((owner, name, original))
            setattr(owner, name, self._wrapper(probe, original))
        self.absent = absent
        return absent

    def uninstall(self) -> None:
        """Put every original back, last wrapped first."""
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    def snapshot(self) -> dict[str, list[float]]:
        return {name: list(entry) for name, entry in self.stats.items()}

    def since(self, before: dict[str, list[float]]) -> dict[str, list[float]]:
        """Per-span statistics accumulated after ``before`` was taken."""
        delta = {}
        for name, entry in self.stats.items():
            base = before.get(name, (0, 0.0, 0.0))
            if entry[0] != base[0]:
                delta[name] = [entry[i] - base[i] for i in range(3)]
        return delta


def merge(into: dict[str, list[float]], stats: dict[str, list[float]]) -> None:
    """Add one set of span statistics to another."""
    for name, entry in stats.items():
        total = into.setdefault(name, [0, 0.0, 0.0])
        for i in range(3):
            total[i] += entry[i]
