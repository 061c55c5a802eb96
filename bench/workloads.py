"""The benchmark's workloads and what one repetition ("rep") of each does.

A rep runs in a fresh child process (see :mod:`bench.child`), so every
cache starts cold, as it does for a user's ``repro fig`` or ``repro run``.
It sets up (imports, input generation, pool start), runs the work once,
checks one unit of it against an independent path through the program,
and returns a JSON-able record.  The parent (:mod:`bench.runner`) turns
records into metrics.

The benchmark reaches the program only through public entry points:
``SweepEngine(jobs).run(..., progress=, shard_runner=)``, ``make_method``
with ``run_method_on_clip``, and ``serve_fleet``.  ``--seed`` is added to
every base seed below, so each seed is a different set of inputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import importlib
import json
import math
import resource
import time
from dataclasses import dataclass, field
from typing import Any

from bench.calibrate import REFERENCE_S, HostSpeed
from bench.trace import ROOT, Tracer, merge

KIB_PER_MIB = 1024.0
# Worker processes of the pool workloads, one per CPU of a 2-CPU host.
JOBS = 2
BYTES_PER_MIB = float(1 << 20)


def digest(records: list) -> str:
    """sha256 of a JSON-canonical list of output records."""
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def cell_record(method: str, clip_name: str, accuracy, mean_f1, activity) -> list:
    """One cell's outputs (accuracy, mean F1, activity) with exact floats."""
    return [
        method,
        clip_name,
        repr(float(accuracy)),
        repr(float(mean_f1)),
        repr(float(activity.duration)),
        sorted((name, repr(float(s))) for name, s in activity.gpu_busy.items()),
        sorted((name, repr(float(s))) for name, s in activity.cpu_busy.items()),
    ]


def pipeline_config(**budgets: int):
    """A ``PipelineConfig`` with whichever store budgets it still has.

    The store knobs are slated for deletion; once a field is gone the
    budget is dropped instead of failing, and the workload runs with
    whatever caching the program then does by itself.
    """
    from repro.core.config import PipelineConfig

    names = {f.name for f in dataclasses.fields(PipelineConfig)}
    return PipelineConfig(**{k: v for k, v in budgets.items() if k in names})


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def own_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / KIB_PER_MIB


@dataclass
class Rep:
    """What one rep measured; ``to_json`` is what the child prints."""

    spawn_ts: float
    marks: dict[str, float] = field(default_factory=dict)
    work_s: float = 0.0
    cpu_s: float = 0.0
    frames: int = 0
    rss_mib: float = 0.0
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    checks: list[str] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    spans: dict[str, list[float]] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    # Calibration kernel times sampled during the work (bench.calibrate).
    host: list[float] = field(default_factory=list)

    def mark(self, name: str) -> None:
        self.marks[name] = time.monotonic()

    def run_units(self, units: list, traced: bool) -> list:
        """Run units of work in this process: each timed, the host sampled between.

        Traced, each unit runs under the root span of a fresh tracer.  A
        unit whose program-side check fails (``AssertionError``) counts as
        failed and leaves no result.
        """
        tracer = Tracer() if traced else None
        speed = HostSpeed()
        results = []
        with tracer if tracer is not None else contextlib.nullcontext():
            speed.sample(force=True)
            for index, unit in enumerate(units):
                self.attempted += 1
                cpu0 = time.process_time()
                start = time.perf_counter()
                try:
                    results.append(unit() if tracer is None else tracer.call(ROOT, unit))
                except AssertionError as exc:
                    self.failed += 1
                    self.checks.append(f"unit {index}: {exc}")
                self.work_s += time.perf_counter() - start
                self.cpu_s += time.process_time() - cpu0
                speed.sample()
            speed.sample(force=True)
        self.mark("done")
        self.host = speed.samples
        if tracer is not None:
            self.absent = tracer.absent
            self.spans = tracer.snapshot()
            self.note_unattributed()
        return results

    def note_unattributed(self) -> None:
        """``trace.unattributed_frac``: the root spans' share no layer claims."""
        root = self.spans.get(ROOT, [0, 0.0, 0.0])
        self.counters["trace.unattributed_frac"] = ratio(root[2], root[1])

    def to_json(self) -> dict:
        m = self.marks
        setup = {
            "setup.import_s": m["imported"] - self.spawn_ts,
            "setup.inputs_s": m["inputs"] - m["imported"],
            "setup.pool_s": m["ready"] - m["inputs"],
        }
        return {
            "setup_s": m["ready"] - self.spawn_ts,
            "wall_s": m["done"] - self.spawn_ts,
            "work_s": self.work_s,
            "cpu_s": self.cpu_s,
            "host_s": sum(self.host) / len(self.host) if self.host else REFERENCE_S,
            "host_samples": len(self.host),
            "frames": self.frames,
            "rss_mib": self.rss_mib,
            "attempted": self.attempted,
            "failed": self.failed,
            "digest": self.digest,
            "checks": self.checks,
            "counters": {**setup, **self.counters},
            "spans": self.spans,
            "absent": self.absent,
        }


class SweepWorkload:
    """A (method × clip) grid through the process-pool sweep engine."""

    kind = "sweep"

    def __init__(
        self,
        suite: str,
        base_seeds: tuple[int, ...],
        frames: int,
        methods: tuple[str, ...] | None,
        frame_store_mb: int,
        artifact_store_mb: int,
    ) -> None:
        self.suite = suite
        # One copy of the suite per base seed: more clips average out how
        # much one seed's scenes happen to cost.
        self.base_seeds = base_seeds
        self.frames = frames
        self.methods = methods  # None: the paper's 13 Fig. 6 methods
        self.frame_store_mb = frame_store_mb
        self.artifact_store_mb = artifact_store_mb

    def inputs(self, seed: int, tiny: bool):
        from repro.experiments import workloads as suites
        from repro.experiments.fig6_overall import FIG6_METHODS
        from repro.video.dataset import VideoSuite

        methods = self.methods or FIG6_METHODS
        make_suite = getattr(suites, self.suite)
        frames = 10 if tiny else self.frames
        clips = [
            clip
            for base in self.base_seeds
            for clip in make_suite(base + seed, frames=frames).clips
        ]
        if tiny:
            methods, clips = methods[:2], clips[:3]
        name = f"{self.suite}-{'+'.join(str(b + seed) for b in self.base_seeds)}"
        return list(methods), VideoSuite(name=name, clips=clips)

    def rep(self, rep: Rep, seed: int, traced: bool, tiny: bool, index: int) -> None:
        import repro.experiments.fig6_overall  # noqa: F401 - paid as import time
        import repro.experiments.workloads  # noqa: F401
        from repro.parallel import SweepEngine

        from bench import cell

        rep.mark("imported")
        methods, suite = self.inputs(seed, tiny)
        config = pipeline_config(
            frame_store_mb=self.frame_store_mb, artifact_store_mb=self.artifact_store_mb
        )
        rep.mark("inputs")
        settled: list[Any] = []
        with SweepEngine(jobs=JOBS) as engine:
            self._start_pool(engine, suite)
            rep.mark("ready")
            cpu0 = time.process_time()
            start = time.perf_counter()
            sweep = engine.run(
                methods,
                suite,
                config=config,
                progress=lambda done, total, result: settled.append(result),
                shard_runner=cell.run_cell_traced if traced else cell.run_cell,
            )
            rep.work_s = time.perf_counter() - start
            parent_cpu = time.process_time() - cpu0
        rep.mark("done")

        settled.sort(key=lambda result: result.index)
        probes = [getattr(result, "bench", None) for result in settled]
        ok = [(r, p) for r, p in zip(settled, probes) if r.error is None and p is not None]
        rep.attempted = len(settled)
        rep.failed = rep.attempted - len(ok)
        rep.frames = sum(p["frames"] for _, p in ok)
        rep.cpu_s = parent_cpu + sum(p["cpu_s"] for _, p in ok)
        rep.host = [k for _, p in ok for k in p["host"]]
        # The workers ran their kernel samples inside the sweep, side by side.
        rep.work_s -= sum(rep.host) / JOBS
        worker_rss: dict[int, int] = {}
        for _, p in ok:
            worker_rss[p["pid"]] = max(worker_rss.get(p["pid"], 0), p["rss_kib"])
        rep.rss_mib = own_rss_mib() + sum(worker_rss.values()) / KIB_PER_MIB
        records = [
            cell_record(r.method, r.clip_name, r.accuracy, r.mean_f1, r.activity)
            for r, _ in ok
        ]
        rep.digest = digest(records)

        if traced:
            for _, p in ok:
                merge(rep.spans, p["spans"])
                rep.absent = p["absent"]
            rep.note_unattributed()
        rep.counters.update(self._counters(sweep, ok, rep))
        self._check_reference(rep, methods, suite, records, index)

    def _start_pool(self, engine, suite) -> None:
        """Spawn every worker and pay its imports before the clock starts.

        Workers start on demand, so several start-up cells are submitted at
        once; a worker that got none is caught by comparing pids.
        """
        from repro.video.dataset import VideoSuite

        from bench import cell

        one = VideoSuite(name="pool-start", clips=suite.clips[:1])
        pids: set[int] = set()
        for _ in range(3):
            engine.run(
                [f"start-{i}" for i in range(2 * JOBS)],
                one,
                progress=lambda done, total, result: pids.add(result.worker_pid),
                shard_runner=cell.warm_cell,
            )
            if len(pids) >= JOBS:
                return

    def _counters(self, sweep, ok, rep: Rep) -> dict[str, float]:
        def stat(name: str) -> float:
            value = getattr(sweep, name, None)
            if value is None:
                rep.absent.append(f"SweepResult.{name}")
                return 0.0
            return float(value)

        walls = [p["wall_s"] for _, p in ok]
        busy: dict[int, float] = {}
        for _, p in ok:
            busy[p["pid"]] = busy.get(p["pid"], 0.0) + p["wall_s"]
        per_worker = list(busy.values()) + [0.0] * max(0, JOBS - len(busy))
        mean_busy = sum(per_worker) / len(per_worker) if per_worker else 0.0
        adavp = sweep.results.get("adavp")
        return {
            "video.render_lru.hit_ratio": ratio(
                stat("render_hits"), stat("render_hits") + stat("render_misses")
            ),
            "video.frame_store.hit_ratio": ratio(
                stat("store_hits"), stat("store_hits") + stat("store_misses")
            ),
            "video.frame_store.evicted_mb": stat("store_evicted_bytes") / BYTES_PER_MIB,
            "video.frame_store.lease_waits": stat("store_lease_waits"),
            "vision.pyramid_cache.hit_ratio": ratio(
                stat("pyramid_hits"), stat("pyramid_hits") + stat("pyramid_misses")
            ),
            "vision.artifact_store.hit_ratio": ratio(
                stat("artifact_hits"), stat("artifact_hits") + stat("artifact_misses")
            ),
            "vision.artifact_store.evicted_mb": stat("artifact_evicted_bytes") / BYTES_PER_MIB,
            "vision.artifact_store.lease_waits": stat("artifact_lease_waits"),
            "parallel.cells": float(len(ok)),
            "parallel.cell_p50_s": nearest_rank(walls, 0.50),
            "parallel.cell_p90_s": nearest_rank(walls, 0.90),
            "parallel.cell_max_s": max(walls, default=0.0),
            "parallel.busy_frac": ratio(sum(walls), JOBS * rep.work_s),
            "parallel.imbalance": ratio(max(per_worker, default=0.0), mean_busy),
            "parallel.retried": stat("retried_shards"),
            "parallel.failed": float(len(sweep.failures)),
            "adavp_accuracy": adavp.accuracy if adavp is not None else 0.0,
            "failed_frac": ratio(rep.failed, rep.attempted),
        }

    def _check_reference(self, rep: Rep, methods, suite, records, index: int) -> None:
        """Recompute one cell on the plain in-process path, stores off.

        The cell rotates with the rep index, so a run's reps cover
        different cells.  Skipped when cells failed: that is reported
        already, and the grid order no longer lines up.
        """
        from repro.experiments import runners

        if rep.failed or not records:
            return
        for module in ("repro.video.framestore", "repro.vision.artifact_store"):
            try:
                configure = getattr(importlib.import_module(module), "configure_default", None)
            except ImportError:
                configure = None
            if configure is not None:
                configure(0)
        cell_index = index % len(records)
        method_index, clip_index = divmod(cell_index, len(suite))
        method, clip = methods[method_index], suite.clips[clip_index]
        run = runners.run_method_on_clip(runners.make_method(method), clip)
        accuracy, f1 = runners.evaluate_run(run, clip)
        expected = cell_record(method, clip.name, accuracy, float(f1.mean()), run.activity)
        if records[cell_index] != expected:
            rep.checks.append(
                f"cell {cell_index} ({method} x {clip.name}) differs from the "
                f"in-process path: {records[cell_index]} != {expected}"
            )


class ClipWorkload:
    """Methods run in-process on long multi-phase clips: no engine, no stores."""

    kind = "clips"

    # (base scenario, seed offset, phases as (start fraction, speed, rate)):
    # the evaluation corpus's calm/busy switches, over six scenario families
    # so that no one seed's scenes decide the cost.
    CLIPS = (
        ("city_street", 0, ((0.0, 0.5, 0.8), (0.35, 2.4, 1.4), (0.7, 0.5, 0.8))),
        ("residential", 1, ((0.0, 1.0, 1.0), (0.5, 3.0, 2.0))),
        ("boat", 2, ((0.0, 3.5, 2.5), (0.5, 1.0, 1.0))),
        ("intersection", 3, ((0.0, 1.0, 1.0), (0.5, 2.2, 1.5))),
        ("highway_surveillance", 4, ((0.0, 1.0, 1.0), (0.4, 0.45, 0.7))),
        ("car_downtown", 5, ((0.0, 1.0, 1.0), (0.5, 2.0, 1.5))),
    )

    def __init__(self, base_seed: int, frames: int, methods: tuple[str, ...]) -> None:
        self.base_seed = base_seed
        self.frames = frames
        self.methods = methods

    def inputs(self, seed: int, tiny: bool):
        from repro.experiments.workloads import make_multiphase_clip

        frames = 20 if tiny else self.frames
        return [
            make_multiphase_clip(base, self.base_seed + seed + offset, frames, list(phases))
            for base, offset, phases in self.CLIPS
        ]

    def rep(self, rep: Rep, seed: int, traced: bool, tiny: bool, index: int) -> None:
        import repro.experiments.workloads  # noqa: F401 - paid as import time
        from repro.experiments import runners

        rep.mark("imported")
        clips = self.inputs(seed, tiny)
        rep.mark("inputs")
        rep.mark("ready")
        pyramid_totals = _pyramid_totals()
        units = [
            functools.partial(self._unit, runners, method, clip)
            for method in self.methods
            for clip in clips
        ]
        records = rep.run_units(units, traced)
        rep.rss_mib = own_rss_mib()
        frames = {clip.name: clip.num_frames for clip in clips}
        rep.frames = sum(frames[record[1]] for record in records)
        rep.digest = digest(records)
        hits = sum(getattr(clip.renderer, "cache_hits", 0) for clip in clips)
        misses = sum(getattr(clip.renderer, "cache_misses", 0) for clip in clips)
        rep.counters["video.render_lru.hit_ratio"] = ratio(hits, hits + misses)
        if pyramid_totals is None:
            rep.absent.append("repro.vision.pyramid_cache.counters_snapshot")
        else:
            after = _pyramid_totals()
            p_hits = after["hits"] - pyramid_totals["hits"]
            p_misses = after["misses"] - pyramid_totals["misses"]
            rep.counters["vision.pyramid_cache.hit_ratio"] = ratio(p_hits, p_hits + p_misses)
        adavp = [float(r[2]) for r in records if r[0] == "adavp"]
        rep.counters["adavp_accuracy"] = sum(adavp) / len(adavp) if adavp else 0.0
        rep.counters["failed_frac"] = ratio(rep.failed, rep.attempted)
        if not rep.failed:
            self._check_reference(rep, seed, tiny, records, index)

    @staticmethod
    def _unit(runners, method: str, clip) -> list:
        run = runners.run_method_on_clip(runners.make_method(method), clip)
        accuracy, f1 = runners.evaluate_run(run, clip)
        return cell_record(method, clip.name, accuracy, float(f1.mean()), run.activity)

    def _check_reference(self, rep: Rep, seed: int, tiny: bool, records, index: int) -> None:
        """Rerun one unit, on a freshly built clip, through the engine's inline path."""
        from repro.parallel import SweepEngine
        from repro.video.dataset import VideoSuite

        unit = index % len(records)
        method_index, clip_index = divmod(unit, len(self.CLIPS))
        method = self.methods[method_index]
        fresh = self.inputs(seed, tiny)[clip_index]
        with SweepEngine(jobs=1) as engine:
            sweep = engine.run([method], VideoSuite(name="check", clips=[fresh]))
        if not sweep.ok:
            rep.checks.append(f"engine path failed on unit {unit}: {sweep.summary()}")
            return
        result = sweep.results[method]
        expected = cell_record(
            method, fresh.name, result.per_video_accuracy[0],
            result.per_video_mean_f1[0], result.activity,
        )
        if records[unit] != expected:
            rep.checks.append(
                f"unit {unit} ({method} x {fresh.name}) differs from the engine "
                f"path: {records[unit]} != {expected}"
            )


def _pyramid_totals() -> dict[str, int] | None:
    try:
        from repro.vision.pyramid_cache import counters_snapshot
    except ImportError:
        return None
    return counters_snapshot()


class ServeWorkload:
    """A ladder of fleet sizes through the pixel-free serve scheduler."""

    kind = "serve"

    def __init__(
        self, base_seed: int, rungs: tuple[int, ...], duration_s: float, warmup_s: float
    ) -> None:
        self.base_seed = base_seed
        self.rungs = rungs
        self.duration_s = duration_s
        self.warmup_s = warmup_s

    def inputs(self, seed: int, tiny: bool):
        from repro.serve import ServeConfig, fleet_configs

        rungs = (4, 8) if tiny else self.rungs
        config = ServeConfig(
            duration_s=3.0 if tiny else self.duration_s,
            warmup_s=1.0 if tiny else self.warmup_s,
        )
        return [fleet_configs(n, seed=self.base_seed + seed) for n in rungs], config

    def rep(self, rep: Rep, seed: int, traced: bool, tiny: bool, index: int) -> None:
        from repro.serve import serve_fleet

        rep.mark("imported")
        fleets, config = self.inputs(seed, tiny)
        rep.mark("inputs")
        rep.mark("ready")
        # A broken conservation ledger raises AssertionError inside the
        # scheduler, which run_units counts as a failed fleet size.
        units = [functools.partial(serve_fleet, fleet, config) for fleet in fleets]
        reports = rep.run_units(units, traced)
        rep.rss_mib = own_rss_mib()
        rep.frames = sum(s.frames_arrived for r in reports for s in r.streams)
        rep.digest = digest([r.digest() for r in reports])
        for report in reports:
            self._check_ledger(rep, report)
        sustained = [
            r.num_streams
            for r in reports
            if r.classes["realtime"].wait_p99_s is not None
            and r.classes["realtime"].wait_p99_s <= config.slo_realtime_s
        ]
        top = reports[-1] if reports else None
        rep.counters.update(
            {
                "serve.events": float(sum(r.events_fired for r in reports)),
                "serve.batches": float(sum(r.batches for r in reports)),
                "serve.peak_depth": float(max((r.peak_depth for r in reports), default=0)),
                "virtual.sustained_streams": float(max(sustained, default=0)),
                "virtual.served_per_s": top.served_per_sim_second if top else 0.0,
                "virtual.dropped_frac": ratio(top.dropped, top.submitted) if top else 0.0,
                "failed_frac": ratio(rep.failed, rep.attempted),
            }
        )

    @staticmethod
    def _check_ledger(rep: Rep, report) -> None:
        """Every submitted request was served or dropped, and the queue drained."""
        problems = []
        if report.final_depth != 0:
            problems.append(f"queue not drained (depth {report.final_depth})")
        if report.submitted != report.served + report.dropped:
            problems.append(
                f"submitted {report.submitted} != served {report.served} "
                f"+ dropped {report.dropped}"
            )
        for qos, cls in report.classes.items():
            if cls.submitted != cls.served + cls.dropped:
                problems.append(f"{qos}: submitted != served + dropped")
        if problems:
            rep.checks.append(f"{report.num_streams} streams: " + "; ".join(problems))


WORKLOADS: dict[str, Any] = {
    # Every clip is scanned by all 13 method arms, so frame and pyramid
    # reuse through the stores is at its highest; the stores and the
    # engine's dispatch show their gains here.
    "fig6-reuse": SweepWorkload(
        suite="quick_suite", base_seeds=(303, 803, 1303, 1803), frames=24, methods=None,
        frame_store_mb=128, artifact_store_mb=384,
    ),
    # Two arms over 18 clips: the frame and artifact working sets are
    # several times the budgets, so the same stores mostly write and evict.
    "eval-wide": SweepWorkload(
        suite="evaluation_suite", base_seeds=(202,), frames=16, methods=("adavp", "mve"),
        frame_store_mb=32, artifact_store_mb=96,
    ),
    # The AdaVP().process(clip) path: nothing is reused and there is no
    # IPC, so a store or engine change should read as no change here.
    "clip-stream": ClipWorkload(base_seed=404, frames=90, methods=("adavp", "mve")),
    # Pixel-free scheduler and admission layers only; streams arrive on a
    # fixed 30 fps schedule in virtual time (an open loop).
    "serve-fleet": ServeWorkload(
        base_seed=7, rungs=(16, 32, 64, 128, 256, 512), duration_s=30.0, warmup_s=4.0
    ),
}
