"""Process-pool execution of (method × clip) sweep grids.

Every paper figure/table runs the same grid shape: a set of registry
methods over a :class:`~repro.video.dataset.VideoSuite`.  The cells are
embarrassingly parallel, so the engine shards the grid into
:class:`~repro.parallel.specs.ShardSpec` work units, fans them out over a
spawn-safe ``concurrent.futures`` process pool, and reduces the results
in deterministic grid order — a parallel sweep produces bit-identical
:class:`~repro.experiments.runners.MethodResult` objects to a sequential
one, because every shard is a pure function of its spec.

Scheduling: the pool's unit of work is one clip — a worker runs every
cell of its clip in turn, so its private frame and artifact stores serve
all of the clip's method arms (see :func:`~repro.parallel.costs.clip_units`).

Failure policy: a shard that raises is retried once, alone; a worker
death fails (and retries) every cell of the unit it was running, on a
rebuilt pool.  A shard that fails every attempt is reported in
:attr:`SweepResult.failures` and its cell is skipped — one bad cell never
sinks the sweep.  A hard worker death (``BrokenProcessPool``) poisons
every in-flight future, so collateral units may burn a retry attempt.

Telemetry: workers cannot share the parent's sink, so each shard records
into its own in-memory telemetry and ships the finished spans plus a
metrics snapshot back in its :class:`ShardResult`; the parent funnels
them into its sink in grid order (span ids restart per shard — sinks
must not assume global uniqueness).  At ``jobs=1`` the engine runs
shards inline with the parent telemetry, so traces — including the
golden-trace digests — match the pre-engine sequential path exactly.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Sequence

from repro.core.config import PipelineConfig
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.parallel.costs import clip_units
from repro.parallel.specs import (
    ClipSpec,
    MethodSpec,
    ShardFailure,
    ShardResult,
    ShardSpec,
    validate_store_budgets,
)
from repro.video.dataset import VideoClip, VideoSuite

# Callback invoked after every shard settles: (done, total, result).
ProgressCallback = Callable[[int, int, ShardResult], None]

# How many reconstructed clips one worker keeps alive.  Clips are the
# expensive part of a shard (scene + renderer caches); methods sharing a
# clip land on warm state, but the cache stays bounded so a long sweep
# over many clips cannot grow worker memory without limit.
_WORKER_CLIP_CAPACITY = 8

_worker_clips: OrderedDict[ClipSpec, VideoClip] = OrderedDict()


def _clip_for(spec: ClipSpec) -> VideoClip:
    """Worker-local clip reconstruction with a small LRU."""
    clip = _worker_clips.get(spec)
    if clip is None:
        clip = spec.build()
        _worker_clips[spec] = clip
        while len(_worker_clips) > _WORKER_CLIP_CAPACITY:
            _worker_clips.popitem(last=False)
    else:
        _worker_clips.move_to_end(spec)
    return clip


def run_shard(
    spec: ShardSpec,
    clip: VideoClip | None = None,
    obs: Telemetry | None = None,
) -> ShardResult:
    """Execute one (method, clip) cell; never raises.

    Workers call it once per cell of a unit (see :func:`run_unit`; it is
    a module-level function and ``spec`` is plain picklable data, so it
    is spawn-safe).  The inline ``jobs=1`` path calls it too, passing the
    caller's live ``clip`` and telemetry so sequential sweeps share
    renderer caches and sinks exactly like the pre-engine code did.  Any exception is captured into
    :attr:`ShardResult.error` — failure isolation happens here, on the
    worker side, so a crashing pipeline reports instead of killing the
    pool.
    """
    result = ShardResult(
        index=spec.index,
        method=spec.method.name,
        clip_name=spec.clip.name,
        clip_index=spec.clip_index,
        worker_pid=os.getpid(),
        attempt=spec.attempt,
    )
    start = time.perf_counter()
    telemetry = obs
    try:
        # Imported here: repro.experiments.runners imports this package
        # for its ``jobs`` parameter, and workers should pay the import
        # only once per process anyway.
        from repro.experiments.runners import (
            evaluate_run,
            make_method,
            run_method_on_clip,
        )

        if telemetry is None and spec.collect_obs:
            from repro.obs import InMemorySink

            telemetry = Telemetry(InMemorySink())
        if clip is None:
            # Pool path: this process is a worker.  Budget its private
            # stores from the spec; an unchanged budget evicts nothing.
            _budget_stores(spec.clip.frame_store_mb, spec.clip.artifact_store_mb)
            clip = _clip_for(spec.clip)
        from repro.vision import pyramid_cache as pyramid_cache_mod
        from repro.vision.artifact_store import default_store as default_artifact_store

        renderer = clip.renderer
        store = renderer.frame_store
        artifact_store = default_artifact_store()
        hits0, misses0 = renderer.cache_hits, renderer.cache_misses
        # Lock-held snapshots at both ends: reading the bare counter
        # attributes tears when the threaded live executor shares the
        # process-wide store with this shard.
        stats0 = store.stats()
        artifact_stats0 = artifact_store.stats()
        pyramid0 = pyramid_cache_mod.counters_snapshot()
        renderer.set_obs(telemetry or NULL_TELEMETRY)
        store.set_obs(telemetry or NULL_TELEMETRY)
        artifact_store.set_obs(telemetry or NULL_TELEMETRY)
        try:
            kwargs = dict(spec.method.kwargs)
            if telemetry is not None:
                kwargs.setdefault("obs", telemetry)
            method = make_method(spec.method.name, spec.method.config, **kwargs)
            run = run_method_on_clip(method, clip)
        finally:
            renderer.set_obs(NULL_TELEMETRY)
            store.set_obs(NULL_TELEMETRY)
            artifact_store.set_obs(NULL_TELEMETRY)
        accuracy, f1 = evaluate_run(
            run, clip, alpha=spec.alpha, iou_threshold=spec.iou_threshold
        )
        result.accuracy = accuracy
        result.mean_f1 = float(f1.mean())
        result.activity = run.activity
        result.render_hits = renderer.cache_hits - hits0
        result.render_misses = renderer.cache_misses - misses0
        stats1 = store.stats()
        result.store_hits = stats1["hits"] - stats0["hits"]
        result.store_misses = stats1["misses"] - stats0["misses"]
        result.store_evicted_bytes = stats1["evicted_bytes"] - stats0["evicted_bytes"]
        artifact_stats1 = artifact_store.stats()
        result.artifact_hits = artifact_stats1["hits"] - artifact_stats0["hits"]
        result.artifact_misses = artifact_stats1["misses"] - artifact_stats0["misses"]
        result.artifact_evicted_bytes = (
            artifact_stats1["evicted_bytes"] - artifact_stats0["evicted_bytes"]
        )
        pyramid1 = pyramid_cache_mod.counters_snapshot()
        result.pyramid_hits = pyramid1["hits"] - pyramid0["hits"]
        result.pyramid_misses = pyramid1["misses"] - pyramid0["misses"]
        result.pyramid_evictions = pyramid1["evictions"] - pyramid0["evictions"]
        if spec.keep_run:
            result.run = run
        if telemetry is not None and obs is None:
            # Worker-side telemetry: flush and ship it home.  When the
            # parent's own telemetry was passed in (inline path), the
            # spans are already in the parent sink.
            telemetry.flush()
            sink = telemetry.sink
            result.spans = list(getattr(sink, "spans", ()))
            result.metrics = list(getattr(sink, "last_metrics", lambda: [])())
    except Exception:
        result.error = traceback.format_exc()
    result.elapsed_s = time.perf_counter() - start
    return result


def _budget_stores(frame_store_mb: int | None, artifact_store_mb: int | None) -> None:
    """Budget this process's frame and artifact stores (``None``: leave alone)."""
    from repro.video import framestore
    from repro.vision import artifact_store

    for mb, configure in (
        (frame_store_mb, framestore.configure_default),
        (artifact_store_mb, artifact_store.configure_default),
    ):
        if mb is not None:
            configure(mb * framestore.BYTES_PER_MB)


def _failed_result(spec: ShardSpec, error: str) -> ShardResult:
    return ShardResult(
        index=spec.index,
        method=spec.method.name,
        clip_name=spec.clip.name,
        clip_index=spec.clip_index,
        attempt=spec.attempt,
        error=error,
    )


def _run_cell(
    shard_runner: Callable[..., ShardResult], spec: ShardSpec, **kwargs: Any
) -> ShardResult:
    """One cell through ``shard_runner``; a raising runner becomes a failure.

    :func:`run_shard` captures its own exceptions; a custom runner that
    raises gets the same isolation.
    """
    try:
        return shard_runner(spec, **kwargs)
    except Exception:
        return _failed_result(spec, traceback.format_exc())


def run_unit(
    shard_runner: Callable[..., ShardResult], unit: list[ShardSpec]
) -> list[ShardResult]:
    """Worker entry point: run one work unit's cells in turn, one result each."""
    return [_run_cell(shard_runner, spec) for spec in unit]


@dataclass
class SweepResult:
    """Deterministically reduced outcome of one sweep.

    ``results`` maps method name → aggregated ``MethodResult`` in the
    caller's method order; per-video lists are in suite clip order with
    failed cells skipped.  A method whose every shard failed is absent
    from ``results`` and present in ``failures``.
    """

    results: dict[str, Any]
    failures: list[ShardFailure] = field(default_factory=list)
    jobs: int = 1
    total_shards: int = 0
    retried_shards: int = 0
    elapsed_s: float = 0.0
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
    # Whether a budgeted frame store backed the sweep: "private" (each
    # process's own LRU) or "none" (unconfigured or budget 0).
    store_mode: str = "none"
    # Same for the derived-artifact store.
    artifact_store_mode: str = "none"

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_if_failed(self) -> "SweepResult":
        if self.failures:
            detail = "; ".join(
                f"{f.method} × {f.clip_name} after {f.attempts} attempts"
                for f in self.failures
            )
            raise RuntimeError(
                f"{len(self.failures)} sweep shard(s) failed: {detail}\n"
                f"first error:\n{self.failures[0].error}"
            )
        return self

    def summary(self) -> str:
        lines = [
            f"sweep: {self.total_shards} shards, jobs={self.jobs}, "
            f"{self.elapsed_s:.2f}s wall"
            f" ({self.retried_shards} retried, {len(self.failures)} failed;"
            f" render cache {self.render_hits} hits / {self.render_misses} misses;"
            f" frame store [{self.store_mode}] {self.store_hits} hits /"
            f" {self.store_misses} misses;"
            f" artifact store [{self.artifact_store_mode}] {self.artifact_hits}"
            f" hits / {self.artifact_misses} misses)"
        ]
        for failure in self.failures:
            first_line = failure.error.strip().splitlines()[-1]
            lines.append(
                f"  FAILED {failure.method} × {failure.clip_name} "
                f"({failure.attempts} attempts): {first_line}"
            )
        return "\n".join(lines)


class SweepEngine:
    """Owns the process pool; reusable across sweeps.

    Reuse matters: spawned workers pay a Python + numpy import on start,
    and keep their clip caches warm between sweeps — the macro-bench
    measures steady-state sweeps on one engine.  Use as a context manager
    or call :meth:`close`.  ``jobs=1`` never creates a pool.
    """

    def __init__(self, jobs: int = 1, retries: int = 1) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1 (use jobs=1 for sequential)")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.jobs = jobs
        self.retries = retries
        self._pool: ProcessPoolExecutor | None = None

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Spawn (not fork): workers must import a clean interpreter —
            # forked children would inherit renderer caches, sink locks,
            # and whatever thread state the parent happens to hold.
            import multiprocessing

            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=multiprocessing.get_context("spawn"),
            )
        return self._pool

    def _reset_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # -- sweep ---------------------------------------------------------------

    def run(
        self,
        methods: Sequence[str],
        suite: VideoSuite,
        config: PipelineConfig | None = None,
        alpha: float = 0.7,
        iou_threshold: float = 0.5,
        keep_runs: bool = False,
        obs: Telemetry | None = None,
        progress: ProgressCallback | None = None,
        method_kwargs: dict[str, dict[str, Any]] | None = None,
        shard_runner: Callable[[ShardSpec], ShardResult] = run_shard,
    ) -> SweepResult:
        """Run ``methods × suite`` and reduce to per-method results."""
        methods = list(methods)
        if not methods:
            raise ValueError("no methods to sweep")
        if len(suite) == 0:
            raise ValueError(f"suite {suite.name!r} is empty")
        if shard_runner is run_shard:
            # Fail fast on a typo'd method name instead of spinning up a
            # pool to learn every shard of it fails.  Custom runners may
            # interpret names however they like, so only the default path
            # checks the registry.
            from repro.experiments.runners import METHODS

            for name in methods:
                if name not in METHODS:
                    raise KeyError(
                        f"unknown method {name!r}; known: {', '.join(METHODS)}"
                    )
        method_kwargs = method_kwargs or {}
        unknown = set(method_kwargs) - set(methods)
        if unknown:
            raise KeyError(f"method_kwargs for methods not in sweep: {sorted(unknown)}")

        render_cache = config.render_cache_size if config is not None else None
        frame_store_mb = config.frame_store_mb if config is not None else None
        artifact_store_mb = config.artifact_store_mb if config is not None else None
        clip_specs = [
            ClipSpec.from_clip(
                clip,
                render_cache=render_cache,
                frame_store_mb=frame_store_mb,
                artifact_store_mb=artifact_store_mb,
            )
            for clip in suite
        ]
        # One budget per sweep, decided here at spec-construction time —
        # clips must not reconfigure the store mid-sweep (uniform today
        # because the budget comes from one config, but the invariant is
        # what callers composing specs by hand rely on).
        store_mb = validate_store_budgets(clip_specs)
        artifact_mb = validate_store_budgets(clip_specs, attr="artifact_store_mb")
        # The inline path renders through the caller's clips, whose
        # renderers resolve this process's stores at render time; pool
        # workers budget their own from the same ClipSpec fields.
        _budget_stores(store_mb, artifact_mb)
        collect_obs = obs is not None and self.jobs > 1
        shards = [
            ShardSpec(
                index=mi * len(clip_specs) + ci,
                method=MethodSpec(
                    name=name, config=config, kwargs=method_kwargs.get(name, {})
                ),
                clip=clip_specs[ci],
                clip_index=ci,
                alpha=alpha,
                iou_threshold=iou_threshold,
                keep_run=keep_runs,
                collect_obs=collect_obs,
            )
            for mi, name in enumerate(methods)
            for ci in range(len(clip_specs))
        ]

        start = time.perf_counter()
        if self.jobs == 1:
            settled = self._execute_inline(
                shards, suite, obs, progress, shard_runner
            )
        else:
            settled = self._execute_pool(shards, progress, shard_runner)
        result = self._reduce(methods, suite, settled, obs)
        result.jobs = self.jobs
        result.total_shards = len(shards)
        result.store_mode = "private" if store_mb else "none"
        result.artifact_store_mode = "private" if artifact_mb else "none"
        result.elapsed_s = time.perf_counter() - start
        self._record_engine_metrics(obs, result)
        return result

    def _execute_inline(
        self,
        shards: list[ShardSpec],
        suite: VideoSuite,
        obs: Telemetry | None,
        progress: ProgressCallback | None,
        shard_runner: Callable[..., ShardResult],
    ) -> dict[int, ShardResult]:
        """Sequential path: grid order, caller's clips, parent telemetry."""

        def attempt(spec: ShardSpec) -> ShardResult:
            return _run_cell(
                shard_runner, spec, clip=suite.clips[spec.clip_index], obs=obs
            )

        settled: dict[int, ShardResult] = {}
        for spec in shards:
            result = attempt(spec)
            while result.error is not None and spec.attempt < self.retries:
                spec = replace(spec, attempt=spec.attempt + 1)
                result = attempt(spec)
            settled[spec.index] = result
            if progress is not None:
                progress(len(settled), len(shards), result)
        return settled

    def _execute_pool(
        self,
        shards: list[ShardSpec],
        progress: ProgressCallback | None,
        shard_runner: Callable[[ShardSpec], ShardResult],
    ) -> dict[int, ShardResult]:
        """Fan clip units out over the pool; retry failed cells once each.

        Units are ordered longest-first (:func:`clip_units`) and at most
        ``jobs + 1`` are in flight, so a worker that finishes early pulls
        the next longest remaining unit instead of sitting idle.  A cell
        that fails is retried alone; a dead worker fails every cell of
        its unit, and those that have attempts left rerun as one unit.
        Completion order does not matter because reduction is by grid
        index.
        """
        settled: dict[int, ShardResult] = {}
        queue = clip_units(shards, self.jobs)
        inflight: dict[Any, list[ShardSpec]] = {}
        stalled_rebuilds = 0
        # One spare beyond the worker count: a freed worker immediately
        # picks up the single executor-queued unit, and the top-up below
        # replaces it — cost-aware work stealing without touching the
        # executor's internals.
        max_inflight = self.jobs + 1
        while queue or inflight:
            pool = self._ensure_pool()
            pool_broken = False
            try:
                while queue and len(inflight) < max_inflight:
                    unit = queue.popleft()
                    inflight[pool.submit(run_unit, shard_runner, unit)] = unit
            except BrokenProcessPool:
                # The pool died before this unit even ran; requeue it
                # as-is (no attempt burned — the task is blameless).
                queue.appendleft(unit)
                pool_broken = True
            if inflight:
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                stalled_rebuilds = 0
                for future in done:
                    unit = inflight.pop(future)
                    try:
                        results = future.result()
                    except BrokenProcessPool:
                        pool_broken = True
                        results = [
                            _failed_result(spec, "worker process died") for spec in unit
                        ]
                    except Exception:
                        error = traceback.format_exc()
                        results = [_failed_result(spec, error) for spec in unit]
                    retry = []
                    for spec, result in zip(unit, results):
                        if result.error is not None and spec.attempt < self.retries:
                            retry.append(replace(spec, attempt=spec.attempt + 1))
                            continue
                        settled[spec.index] = result
                        if progress is not None:
                            progress(len(settled), len(shards), result)
                    if retry:
                        # Retry at the queue head: the cells already proved
                        # expensive enough to fail late, and a retry
                        # finishing last would gate the sweep.
                        queue.appendleft(retry)
            else:
                stalled_rebuilds += 1
                if stalled_rebuilds > 5:
                    raise RuntimeError(
                        "process pool keeps dying before running any shard "
                        "(5 consecutive rebuilds with no progress)"
                    )
            if pool_broken:
                self._reset_pool()
        return settled

    def _reduce(
        self,
        methods: list[str],
        suite: VideoSuite,
        settled: dict[int, ShardResult],
        obs: Telemetry | None,
    ) -> SweepResult:
        """Reassemble per-method results in deterministic grid order."""
        from repro.experiments.runners import MethodResult

        out = SweepResult(results={})
        num_clips = len(suite)
        for mi, name in enumerate(methods):
            method_result = MethodResult(method=name)
            succeeded = 0
            for ci in range(num_clips):
                shard = settled[mi * num_clips + ci]
                out.retried_shards += shard.attempt
                if shard.error is not None:
                    out.failures.append(
                        ShardFailure(
                            method=name,
                            clip_name=shard.clip_name,
                            attempts=shard.attempt + 1,
                            error=shard.error,
                        )
                    )
                    continue
                succeeded += 1
                method_result.per_video_accuracy.append(shard.accuracy)
                method_result.per_video_mean_f1.append(shard.mean_f1)
                method_result.activity.merge(shard.activity)
                if shard.run is not None:
                    method_result.runs.append(shard.run)
                out.render_hits += shard.render_hits
                out.render_misses += shard.render_misses
                out.store_hits += shard.store_hits
                out.store_misses += shard.store_misses
                out.store_evicted_bytes += shard.store_evicted_bytes
                out.artifact_hits += shard.artifact_hits
                out.artifact_misses += shard.artifact_misses
                out.artifact_evicted_bytes += shard.artifact_evicted_bytes
                out.pyramid_hits += shard.pyramid_hits
                out.pyramid_misses += shard.pyramid_misses
                out.pyramid_evictions += shard.pyramid_evictions
                if obs is not None and (shard.spans or shard.metrics):
                    for span in shard.spans:
                        obs.sink.record_span(span)
                    if shard.metrics:
                        obs.sink.record_metrics(shard.metrics)
            if succeeded:
                out.results[name] = method_result
        return out

    def _record_engine_metrics(
        self, obs: Telemetry | None, result: SweepResult
    ) -> None:
        if obs is None or not obs.enabled:
            return
        obs.counter("sweep.shards_total").inc(result.total_shards)
        obs.counter("sweep.shards_retried").inc(result.retried_shards)
        obs.counter("sweep.shards_failed").inc(len(result.failures))
        obs.counter("sweep.render_cache_hits").inc(result.render_hits)
        obs.counter("sweep.render_cache_misses").inc(result.render_misses)
        obs.counter("sweep.store_hits").inc(result.store_hits)
        obs.counter("sweep.store_misses").inc(result.store_misses)
        obs.counter("sweep.store_evicted_bytes").inc(result.store_evicted_bytes)
        obs.counter("sweep.artifact_hits").inc(result.artifact_hits)
        obs.counter("sweep.artifact_misses").inc(result.artifact_misses)
        obs.counter("sweep.artifact_evicted_bytes").inc(result.artifact_evicted_bytes)
        obs.counter("sweep.pyramid_hits").inc(result.pyramid_hits)
        obs.counter("sweep.pyramid_misses").inc(result.pyramid_misses)
        obs.counter("sweep.pyramid_evictions").inc(result.pyramid_evictions)
        obs.gauge("sweep.jobs").set(self.jobs)


def run_sweep(
    methods: Sequence[str],
    suite: VideoSuite,
    config: PipelineConfig | None = None,
    alpha: float = 0.7,
    iou_threshold: float = 0.5,
    keep_runs: bool = False,
    jobs: int = 1,
    retries: int = 1,
    obs: Telemetry | None = None,
    progress: ProgressCallback | None = None,
    method_kwargs: dict[str, dict[str, Any]] | None = None,
    shard_runner: Callable[[ShardSpec], ShardResult] = run_shard,
) -> SweepResult:
    """One-shot sweep on a transient :class:`SweepEngine`."""
    if jobs < 1:
        jobs = os.cpu_count() or 1
    with SweepEngine(jobs=jobs, retries=retries) as engine:
        return engine.run(
            methods,
            suite,
            config=config,
            alpha=alpha,
            iou_threshold=iou_threshold,
            keep_runs=keep_runs,
            obs=obs,
            progress=progress,
            method_kwargs=method_kwargs,
            shard_runner=shard_runner,
        )
