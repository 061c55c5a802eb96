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
cell of its clip in turn, so its frame store serves all of the clip's
method arms (see :func:`~repro.parallel.costs.clip_units`).  The arms of
a unit run in lockstep (:mod:`repro.parallel.lockstep`), so each frame
pair's Lucas-Kanade step is solved in one call for all of them, and each
box seeded once; the cells are still run, and timed, one after another.

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
shards inline, clip by clip, with the parent telemetry, so each cell
records the trace a direct run of it records — the golden-trace digests
included.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import groupby
from typing import Any, Callable, Iterable, Sequence

from repro.core.config import PipelineConfig
from repro.obs import WORK, Telemetry, work_since
from repro.parallel.costs import clip_units
from repro.parallel.lockstep import Lockstep
from repro.parallel.specs import (
    ClipSpec,
    MethodSpec,
    ShardFailure,
    ShardResult,
    ShardSpec,
)
from repro.video.dataset import VideoClip, VideoSuite
from repro.video.framestore import KINDS, default_store

# Callback invoked after every shard settles: (done, total, result).
ProgressCallback = Callable[[int, int, ShardResult], None]

def _cell_telemetry(spec: ShardSpec, obs: Telemetry | None) -> Telemetry | None:
    """The caller's telemetry, or an in-memory one when the spec collects its own."""
    if obs is not None or not spec.collect_obs:
        return obs
    from repro.obs import InMemorySink

    return Telemetry(InMemorySink())


def _run_method(spec: ShardSpec, telemetry: Telemetry | None, clip: Any):
    """Build the cell's method and run it over ``clip``: the cell's ``PipelineRun``."""
    # Imported here: repro.experiments.runners imports this package for
    # its ``jobs`` parameter.
    from repro.experiments.runners import make_method, run_method_on_clip

    kwargs = dict(spec.method.kwargs)
    if telemetry is not None:
        kwargs.setdefault("obs", telemetry)
    method = make_method(spec.method.name, spec.method.config, **kwargs)
    return run_method_on_clip(method, clip)


@dataclass
class _Unit:
    """A clip unit's lockstep session, as the thread driving it sees it."""

    clip: VideoClip
    obs: Telemetry | None
    # Grid index -> (spec, telemetry) of the arms no cell has joined yet.
    arms: dict[int, tuple[ShardSpec, Telemetry | None]]
    session: Lockstep


# The unit the calling thread is running, if any (see :func:`_lockstep`).
_units = threading.local()


@contextmanager
def _lockstep(clip: VideoClip, specs: Iterable[ShardSpec], obs: Telemetry | None):
    """Run ``specs``' arms on ``clip`` in one lockstep session while open.

    Inside, :func:`run_shard` called with this ``clip`` and ``obs`` for one
    of ``specs`` joins the session: it drives it until that spec's arm is
    done.  Any other call (a retry, another clip) runs its cell alone.
    On exit the arms no cell finished are cancelled and every thread is
    joined, however the block ends.

    The store is emptied on entry and on exit: the unit starts with none
    of another clip's frames, whose evictions would change what it
    builds, and leaves none behind, since nothing later reads this clip.
    So a worker holds one clip at a time, and a unit misses, per kind,
    as it would in a fresh process.
    """
    default_store().clear()
    arms = {spec.index: (spec, _cell_telemetry(spec, obs)) for spec in specs}
    session = Lockstep(
        clip,
        {index: partial(_run_method, *arm) for index, arm in arms.items()},
    )
    outer = getattr(_units, "unit", None)
    _units.unit = _Unit(clip=clip, obs=obs, arms=arms, session=session)
    try:
        with session:
            yield
    finally:
        _units.unit = outer
        default_store().clear()


def _join(spec: ShardSpec, clip: VideoClip | None, obs: Telemetry | None):
    """The running unit and this cell's arm telemetry, if ``spec`` joins it."""
    unit = getattr(_units, "unit", None)
    if unit is None or clip is not unit.clip or obs is not unit.obs:
        return None
    arm = unit.arms.get(spec.index)
    if arm is None or arm[0] != spec:
        return None
    del unit.arms[spec.index]
    return unit, arm[1]


def run_shard(
    spec: ShardSpec,
    clip: VideoClip | None = None,
    obs: Telemetry | None = None,
) -> ShardResult:
    """Execute one (method, clip) cell; never raises.

    Workers call it once per cell of a unit, with the unit's clip (see
    :func:`run_unit`; it is a module-level function and ``spec`` is plain
    picklable data, so it is spawn-safe).  The inline ``jobs=1`` path
    calls it too, passing the caller's live ``clip`` and telemetry so
    sequential sweeps share sinks exactly like the pre-engine code did.
    Without a ``clip`` it builds one from ``spec.clip``.  Any exception is
    captured into :attr:`ShardResult.error` — failure isolation happens
    here, on the worker side, so a crashing pipeline reports instead of
    killing the pool.

    Inside a unit's lockstep session the cell joins it: it drives the
    unit's arms until its own is done, so the other arms' work up to
    that point runs, and is counted, in this cell.  ``counts`` is the
    :data:`~repro.obs.WORK` delta over the cell, whichever arm did the
    work, and a cell that settles adds it to its telemetry.
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
    joined = _join(spec, clip, obs)
    telemetry = joined[1] if joined else _cell_telemetry(spec, obs)
    try:
        # Imported here: repro.experiments.runners imports this package
        # for its ``jobs`` parameter, and workers should pay the import
        # only once per process anyway.
        from repro.experiments.runners import evaluate_run

        if clip is None:
            clip = spec.clip.build()
        before = WORK.counts()
        if joined:
            run = joined[0].session.finish(spec.index)
        else:
            run = _run_method(spec, telemetry, clip)
        result.counts = work_since(before)
        accuracy, f1 = evaluate_run(
            run, clip, alpha=spec.alpha, iou_threshold=spec.iou_threshold
        )
        result.accuracy = accuracy
        result.mean_f1 = float(f1.mean())
        result.activity = run.activity
        if spec.keep_run:
            result.run = run
        if telemetry is not None:
            telemetry.add_counts(result.counts)
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
    raises gets the same isolation.  A runner's ``SystemExit`` fails its
    cell too, rather than ending the worker's unit and with it the
    sweep; ``KeyboardInterrupt`` still stops everything.
    """
    try:
        return shard_runner(spec, **kwargs)
    except (Exception, SystemExit):
        return _failed_result(spec, traceback.format_exc())


def run_unit(
    shard_runner: Callable[..., ShardResult], unit: list[ShardSpec]
) -> list[ShardResult]:
    """Worker entry point: run one work unit's cells in turn, one result each.

    A unit is one clip's cells (:func:`~repro.parallel.costs.clip_units`),
    so the clip is built once and handed to every cell, and the cells'
    arms run in one lockstep session (:func:`_lockstep`), which holds
    the store for this clip alone.  A clip that fails to build, even by
    ``SystemExit``, fails every cell, and the engine's retry path takes
    them.
    """
    try:
        clip = unit[0].clip.build()
    except (Exception, SystemExit):
        error = traceback.format_exc()
        return [_failed_result(spec, error) for spec in unit]
    with _lockstep(clip, unit, None):
        return [_run_cell(shard_runner, spec, clip=clip) for spec in unit]


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
    # The settled cells' :attr:`ShardResult.counts`, summed by name.
    counts: dict[str, int] = field(default_factory=dict)

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
        store = "; ".join(
            f"{kind} {self.counts[f'store.{kind}.hit']} hits"
            f" / {self.counts[f'store.{kind}.miss']} misses"
            for kind in KINDS
            if f"store.{kind}.hit" in self.counts
        )
        lines = [
            f"sweep: {self.total_shards} shards, jobs={self.jobs}, "
            f"{self.elapsed_s:.2f}s wall"
            f" ({self.retried_shards} retried, {len(self.failures)} failed;"
            f" store {store or 'unused'})"
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
    and the macro-bench times sweeps on one engine whose workers have
    already paid it.  Workers keep no clip state between units (see
    :func:`run_unit`).  Use as a context manager or call :meth:`close`.
    ``jobs=1`` never creates a pool.
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

    def close(self, wait: bool = True) -> None:
        """Shut the pool down; ``wait=False`` abandons a broken one."""
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=True)
            self._pool = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Spawn (not fork): workers must import a clean interpreter —
            # forked children would inherit the frame store, sink locks,
            # and whatever thread state the parent happens to hold.
            import multiprocessing

            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=multiprocessing.get_context("spawn"),
            )
        return self._pool

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
        shard_runner: Callable[..., ShardResult] = run_shard,
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

        clip_specs = [ClipSpec.from_clip(clip) for clip in suite]
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
        """Sequential path: clip by clip, caller's clips, parent telemetry.

        Each clip's cells and their retries run back to back, in method
        order, as the pool's clip units run them, so the clip's frames and
        pyramids are reused while the store holds them, and the cells'
        arms run in one lockstep session, as a unit's do (a retry runs
        alone), with the store holding that clip alone (:func:`_lockstep`).
        Reduction is by grid index, so the order does not change results.
        """
        settled: dict[int, ShardResult] = {}
        ordered = sorted(shards, key=lambda s: (s.clip_index, s.index))
        for clip_index, group in groupby(ordered, key=lambda s: s.clip_index):
            clip = suite.clips[clip_index]
            specs = list(group)
            with _lockstep(clip, specs, obs):
                for spec in specs:
                    result = _run_cell(shard_runner, spec, clip=clip, obs=obs)
                    while result.error is not None and spec.attempt < self.retries:
                        spec = replace(spec, attempt=spec.attempt + 1)
                        result = _run_cell(shard_runner, spec, clip=clip, obs=obs)
                    settled[spec.index] = result
                    if progress is not None:
                        progress(len(settled), len(shards), result)
        return settled

    def _execute_pool(
        self,
        shards: list[ShardSpec],
        progress: ProgressCallback | None,
        shard_runner: Callable[..., ShardResult],
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
                self.close(wait=False)
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
                for count, value in shard.counts.items():
                    out.counts[count] = out.counts.get(count, 0) + value
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
    shard_runner: Callable[..., ShardResult] = run_shard,
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
