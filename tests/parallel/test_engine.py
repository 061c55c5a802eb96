"""Sweep engine: determinism, failure isolation, obs funneling, progress.

The worker-crash runners below are module-level functions so the spawn
start method can pickle them by reference and reimport them inside the
worker process.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.workloads import quick_suite
from repro.obs import WORK, InMemorySink, Telemetry
from repro.parallel import (
    ClipSpec,
    MethodSpec,
    ShardResult,
    ShardSpec,
    SweepEngine,
    run_shard,
    run_sweep,
)
from repro.parallel.engine import run_unit
from repro.video.dataset import VideoSuite, make_clip
from repro.video import framestore
from repro.video.framestore import BYTES_PER_MB, KINDS, FrameStore, default_store

_METHODS = ("adavp", "mpdt-320")


def _small_suite(frames: int = 48, clips: int | None = None) -> VideoSuite:
    suite = quick_suite(frames=frames)
    if clips is not None:
        suite = VideoSuite(name=suite.name, clips=suite.clips[:clips])
    return suite


def flaky_runner(spec, clip=None, obs=None):
    """Raises on the first attempt of one cell, then behaves."""
    if spec.method.name == "mpdt-320" and spec.clip_index == 0 and spec.attempt == 0:
        raise RuntimeError("injected shard crash")
    return run_shard(spec, clip=clip, obs=obs)


def exiting_runner(spec, clip=None, obs=None):
    """Exits on the first attempt of mpdt-320, then behaves."""
    if spec.method.name == "mpdt-320" and spec.attempt == 0:
        raise SystemExit(3)
    return run_shard(spec, clip=clip, obs=obs)


def dead_runner(spec, clip=None, obs=None):
    """One method fails every attempt."""
    if spec.method.name == "mpdt-320":
        raise RuntimeError("always dead")
    return run_shard(spec, clip=clip, obs=obs)


def hard_crash_runner(spec, clip=None, obs=None):
    """Kills the worker process outright on the first attempt of one cell —
    the BrokenProcessPool path, not a catchable exception."""
    if spec.method.name == "mpdt-320" and spec.attempt == 0:
        os._exit(17)
    return run_shard(spec, clip=clip, obs=obs)


def probe_runner(spec, clip=None, obs=None):
    """Runs the cell; records the store's size and the clip it was handed."""
    probe = {
        "store_entries": len(default_store()),
        "clip_id": id(clip),
        "clip": clip is not None,
    }
    result = run_shard(spec, clip=clip, obs=obs)
    result.probe = probe
    return result


def _unbuildable_clip():
    """A suite clip whose spec no worker can rebuild: no scene takes seed -1."""
    clip = make_clip("racetrack", seed=5, num_frames=12, name="unbuildable")
    clip.scene.seed = -1
    return clip


class _ExitingSeed(int):
    """A scene seed whose first use raises ``SystemExit(3)``: a clip built
    from it exits mid-build, wherever it is rebuilt."""

    def __index__(self):
        raise SystemExit(3)

    __int__ = __index__


def _unit(clip, methods=_METHODS) -> list[ShardSpec]:
    return [
        ShardSpec(
            index=i,
            method=MethodSpec(name=name),
            clip=ClipSpec.from_clip(clip),
            clip_index=0,
        )
        for i, name in enumerate(methods)
    ]


class TestValidation:
    def test_empty_suite_raises(self):
        empty = VideoSuite(name="empty", clips=[])
        with pytest.raises(ValueError, match="empty"):
            run_sweep(["adavp"], empty)

    def test_no_methods_raises(self):
        with pytest.raises(ValueError, match="no methods"):
            run_sweep([], _small_suite(frames=12))

    def test_unknown_method_raises_key_error(self):
        with pytest.raises(KeyError, match="unknown method 'bogus'"):
            run_sweep(["bogus"], _small_suite(frames=12))

    def test_bad_jobs_raises(self):
        with pytest.raises(ValueError, match="jobs"):
            SweepEngine(jobs=0)

    def test_method_kwargs_for_absent_method_raises(self):
        with pytest.raises(KeyError, match="not in sweep"):
            run_sweep(
                ["adavp"],
                _small_suite(frames=12),
                method_kwargs={"mpdt-320": {}},
            )


class TestSequentialPath:
    def test_matches_run_method_on_suite(self):
        from repro.experiments.runners import run_method_on_suite

        suite = _small_suite()
        sweep = run_sweep(_METHODS, suite, jobs=1)
        for name in _METHODS:
            direct = run_method_on_suite(name, suite)
            assert sweep.results[name].per_video_accuracy == direct.per_video_accuracy
            assert sweep.results[name].per_video_mean_f1 == direct.per_video_mean_f1

    def test_progress_callback_sees_every_shard_clip_by_clip(self):
        suite = _small_suite(frames=24)
        events = []
        run_sweep(
            _METHODS,
            suite,
            jobs=1,
            progress=lambda done, total, r: events.append((done, total, r.index)),
        )
        total = len(_METHODS) * len(suite)
        assert [e[0] for e in events] == list(range(1, total + 1))
        assert all(e[1] == total for e in events)
        # Grid index is method-major: mi * clips + ci.
        clips, methods = len(suite), len(_METHODS)
        assert [e[2] for e in events] == [
            mi * clips + ci for ci in range(clips) for mi in range(methods)
        ]

    def test_each_clips_cells_run_back_to_back(self):
        # The store reuse of a sequential sweep rests on this order: a
        # clip's frames and pyramids are read by all its method arms
        # before the next clip's push them out.
        suite = _small_suite(frames=12)
        methods = ("adavp", "mpdt-320", "mve")
        ran = []

        def recording_runner(spec, clip=None, obs=None):
            ran.append((spec.clip_index, spec.method.name))
            return run_shard(spec, clip=clip, obs=obs)

        sweep = run_sweep(methods, suite, jobs=1, shard_runner=recording_runner)
        assert sweep.ok, sweep.summary()
        assert ran == [(ci, name) for ci in range(len(suite)) for name in methods]
        # Reduction is by grid index: per-video lists stay in suite order.
        for name in methods:
            assert len(sweep.results[name].per_video_accuracy) == len(suite)

    def test_each_clip_starts_and_leaves_an_empty_store(self):
        # The store's lifetime is the clip, as a pool worker's unit: the
        # next clip's first cell finds nothing, and the sweep leaves
        # nothing behind.  So the sweep misses, per kind, as the pool does.
        suite = _small_suite(frames=24, clips=2)
        settled = []
        default_store().clear()
        sequential = run_sweep(
            _METHODS,
            suite,
            jobs=1,
            shard_runner=probe_runner,
            progress=lambda done, total, r: settled.append(r),
        )
        assert sequential.ok, sequential.summary()
        assert len(default_store()) == 0
        assert [r.clip_index for r in settled if r.probe["store_entries"] == 0] == [0, 1]
        parallel = run_sweep(_METHODS, suite, jobs=2)
        for kind in KINDS:
            assert sequential.counts[f"store.{kind}.miss"] > 0
            assert sequential.counts[f"store.{kind}.miss"] == parallel.counts[f"store.{kind}.miss"]

    def test_a_sweep_ignores_what_the_store_held_before(self, monkeypatch):
        # Another clip's frames fill the store first.  Left in, they would
        # crowd the sweep's own pyramids out, since pyramids are evicted
        # before any frame, and the sweep would build some twice.
        store = FrameStore(16 * BYTES_PER_MB)
        monkeypatch.setattr(framestore, "_default_store", store)
        cold = run_sweep(_METHODS, _small_suite(frames=24, clips=1), jobs=1)
        other = make_clip("city_street", seed=99, num_frames=72)
        for index in range(other.num_frames):
            other.frame(index)
        assert store.stats()["current_bytes"] > 15 * BYTES_PER_MB
        prefilled = run_sweep(_METHODS, _small_suite(frames=24, clips=1), jobs=1)
        for kind in KINDS:
            assert cold.counts[f"store.{kind}.miss"] > 0
            assert prefilled.counts[f"store.{kind}.miss"] == cold.counts[f"store.{kind}.miss"]
            assert prefilled.counts[f"store.{kind}.evictions"] == 0

    def test_keep_runs_in_suite_order(self):
        suite = _small_suite(frames=24)
        sweep = run_sweep(["adavp"], suite, jobs=1, keep_runs=True)
        runs = sweep.results["adavp"].runs
        assert [r.clip_name for r in runs] == [c.name for c in suite]


class TestFailureIsolation:
    def test_flaky_shard_is_retried_and_result_is_clean(self):
        suite = _small_suite(frames=24)
        sweep = run_sweep(_METHODS, suite, jobs=1, shard_runner=flaky_runner)
        assert sweep.ok
        assert sweep.retried_shards == 1
        clean = run_sweep(_METHODS, suite, jobs=1)
        assert (
            sweep.results["mpdt-320"].per_video_accuracy
            == clean.results["mpdt-320"].per_video_accuracy
        )

    def test_a_cell_that_exits_in_a_worker_is_retried(self):
        # SystemExit is not an Exception: uncaught, it came back through
        # the executor and ended the whole sweep in the parent.
        suite = _small_suite(clips=1)
        sweep = run_sweep(_METHODS, suite, jobs=2, shard_runner=exiting_runner)
        assert sweep.ok, sweep.summary()
        assert sweep.retried_shards == 1
        clean = run_sweep(_METHODS, suite, jobs=1)
        for name in _METHODS:
            assert (
                sweep.results[name].per_video_accuracy
                == clean.results[name].per_video_accuracy
            )

    def test_dead_method_reported_without_sinking_the_sweep(self):
        suite = _small_suite(frames=24)
        sweep = run_sweep(_METHODS, suite, jobs=1, shard_runner=dead_runner)
        assert not sweep.ok
        assert "adavp" in sweep.results
        assert "mpdt-320" not in sweep.results
        assert len(sweep.failures) == len(suite)
        failure = sweep.failures[0]
        assert failure.method == "mpdt-320"
        assert failure.attempts == 2
        assert "always dead" in failure.error
        assert "FAILED mpdt-320" in sweep.summary()
        with pytest.raises(RuntimeError, match="shard\\(s\\) failed"):
            sweep.raise_if_failed()

    def test_worker_exception_in_pool_is_retried(self):
        suite = _small_suite(frames=24, clips=1)
        sweep = run_sweep(_METHODS, suite, jobs=2, shard_runner=flaky_runner)
        assert sweep.ok
        assert sweep.retried_shards == 1

    def test_worker_hard_crash_rebuilds_pool_and_retries(self):
        suite = _small_suite(frames=24, clips=1)
        sweep = run_sweep(_METHODS, suite, jobs=2, shard_runner=hard_crash_runner)
        assert sweep.ok, sweep.summary()
        assert sweep.retried_shards >= 1
        clean = run_sweep(_METHODS, suite, jobs=1)
        for name in _METHODS:
            assert (
                sweep.results[name].per_video_accuracy
                == clean.results[name].per_video_accuracy
            )

    def test_flaky_cell_in_a_clip_unit_is_retried_alone(self):
        # Two clips at jobs=2: each clip is one unit of two cells.  Only
        # the raising cell reruns; its sibling in the same unit keeps the
        # result of its first attempt.
        suite = _small_suite(frames=24, clips=2)
        settled = []
        sweep = run_sweep(
            _METHODS,
            suite,
            jobs=2,
            shard_runner=flaky_runner,
            progress=lambda done, total, r: settled.append(r),
        )
        assert sweep.ok, sweep.summary()
        assert sweep.retried_shards == 1
        attempts = {(r.method, r.clip_index): r.attempt for r in settled}
        assert attempts == {
            ("adavp", 0): 0,
            ("mpdt-320", 0): 1,
            ("adavp", 1): 0,
            ("mpdt-320", 1): 0,
        }

    def test_hard_crash_reruns_every_cell_of_the_crashed_unit(self):
        # Every unit holds a crashing mpdt-320 cell after an adavp cell,
        # so each worker dies mid-unit: the adavp cell that had finished
        # is lost with it and burns an attempt, and the rerun still
        # reproduces the sequential sweep exactly.
        suite = _small_suite(frames=24, clips=2)
        settled = []
        sweep = run_sweep(
            _METHODS,
            suite,
            jobs=2,
            shard_runner=hard_crash_runner,
            progress=lambda done, total, r: settled.append(r),
        )
        assert sweep.ok, sweep.summary()
        assert all(r.attempt == 1 for r in settled if r.method == "adavp")
        clean = run_sweep(_METHODS, _small_suite(frames=24, clips=2), jobs=1)
        for name in _METHODS:
            assert (
                sweep.results[name].per_video_accuracy
                == clean.results[name].per_video_accuracy
            )
            assert (
                sweep.results[name].per_video_mean_f1
                == clean.results[name].per_video_mean_f1
            )


class TestObsFunneling:
    def test_worker_spans_and_counters_reach_parent_sink(self):
        suite = _small_suite(frames=24, clips=2)
        obs = Telemetry(InMemorySink())
        sweep = run_sweep(["mpdt-320"], suite, jobs=2, obs=obs)
        assert sweep.ok
        assert [s for s in obs.sink.spans if s.name == "mpdt.detect"]
        obs.flush()
        counters = {
            record["name"]: record["value"]
            for record in obs.sink.last_metrics()
            if record["kind"] == "counter"
        }
        assert counters["sweep.shards_total"] == 2
        assert counters["sweep.shards_failed"] == 0
        # Each worker cell's store counters arrive as its own snapshot.
        worker_misses = [
            record["value"]
            for snapshot in obs.sink.metric_snapshots
            for record in snapshot
            if record["name"] == "store.frame.miss"
        ]
        assert worker_misses and sum(worker_misses) > 0

    def test_inline_obs_matches_pre_engine_recording(self):
        suite = _small_suite(frames=24, clips=1)
        funneled = Telemetry(InMemorySink())
        run_sweep(["mpdt-320"], suite, jobs=2, obs=funneled)

        inline = Telemetry(InMemorySink())
        run_sweep(["mpdt-320"], _small_suite(frames=24, clips=1), jobs=1, obs=inline)
        assert [s.name for s in funneled.sink.spans if s.name == "mpdt.detect"] == [
            s.name for s in inline.sink.spans if s.name == "mpdt.detect"
        ]


class TestEngineLifecycle:
    def test_engine_reusable_across_sweeps(self):
        suite = _small_suite(frames=24, clips=1)
        with SweepEngine(jobs=2) as engine:
            first = engine.run(["adavp"], suite)
            second = engine.run(["adavp"], suite)
        assert (
            first.results["adavp"].per_video_accuracy
            == second.results["adavp"].per_video_accuracy
        )


class TestStoreModes:
    """The process-wide frame store behind a sweep: render once, build once."""

    def test_pool_sweep_renders_each_frame_once_fleet_wide(self):
        frames = 24
        suite = _small_suite(frames=frames)
        unique_frames = sum(clip.config.num_frames for clip in suite.clips)
        sweep = run_sweep(_METHODS, suite, jobs=2)
        assert sweep.ok, sweep.summary()
        # Render-once: each clip's cells share one worker's store, so
        # misses cannot exceed the unique frame count no matter how many
        # methods scan the same clips.
        assert 0 < sweep.counts["store.frame.miss"] <= unique_frames

    def test_method_arms_share_pyramids(self):
        default_store().clear()
        sweep = run_sweep(_METHODS, _small_suite(frames=24), jobs=1)
        # Method arms revisit each clip's pyramids: later arms are served
        # from the store instead of rebuilding.
        assert sweep.counts["store.pyramid.hit"] > 0
        assert sweep.counts["store.pyramid.miss"] > 0

    def test_store_never_changes_results(self, monkeypatch):
        with_store = run_sweep(_METHODS, _small_suite(frames=24), jobs=1)
        # A zero-byte store keeps nothing: every frame and pyramid is
        # computed afresh.
        monkeypatch.setattr(framestore, "_default_store", framestore.FrameStore(0))
        without_store = run_sweep(_METHODS, _small_suite(frames=24), jobs=1)
        assert without_store.counts["store.frame.hit"] == 0
        for name in _METHODS:
            assert (
                with_store.results[name].per_video_accuracy
                == without_store.results[name].per_video_accuracy
            )
            assert (
                with_store.results[name].per_video_mean_f1
                == without_store.results[name].per_video_mean_f1
            )

    def test_store_counters_funnelled_to_obs(self):
        obs = Telemetry(InMemorySink())
        default_store().clear()
        run_sweep(_METHODS, _small_suite(frames=12), jobs=1, obs=obs)
        obs.flush()
        counters = {
            record["name"]: record["value"]
            for record in obs.sink.last_metrics()
            if record["kind"] == "counter"
        }
        for kind in ("frame", "pyramid"):
            assert counters[f"store.{kind}.miss"] > 0
            assert counters[f"store.{kind}.hit"] > 0
            assert f"store.{kind}.evicted_bytes" in counters

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_telemetry_counts_equal_sweep_counts(self, jobs):
        # One account: every registry counter a sweep's telemetry holds
        # is the sweep's count, whether the cells ran inline into the
        # caller's telemetry or shipped a snapshot each from a worker.
        obs = Telemetry(InMemorySink())
        default_store().clear()
        sweep = run_sweep(_METHODS, _small_suite(frames=12), jobs=jobs, obs=obs)
        assert sweep.ok, sweep.summary()
        obs.flush()
        counters: dict[str, int] = {}
        for snapshot in obs.sink.metric_snapshots:
            for record in snapshot:
                if record["kind"] == "counter":
                    counters[record["name"]] = counters.get(record["name"], 0) + record["value"]
        assert set(WORK.counts()) <= set(sweep.counts)
        for name, value in sweep.counts.items():
            assert counters[name] == value, name
        assert sweep.counts["lk.solves"] > 0 and sweep.counts["seed.boxes"] > 0


# Counts that do not depend on which worker ran a cell, while no clip's
# cells are split across workers.
_PLACEMENT_FREE = (
    *(f"store.{kind}.{name}" for kind in KINDS for name in ("miss", "evictions")),
    "lk.requests",
    "seed.requests",
)


class TestClipAffinity:
    """The pool's unit of work is one clip, so a worker's store sees every
    reuse the clip offers: the working set fits the store, so a jobs=2
    sweep misses exactly as often per kind, and its arms make as many LK
    and seed requests, as a jobs=1 sweep."""

    @pytest.fixture(scope="class")
    def sweeps(self):
        settled = []
        # A cold parent store for the sequential arm, like the workers'.
        default_store().clear()
        sequential = run_sweep(_METHODS, _small_suite(frames=24), jobs=1)
        parallel = run_sweep(
            _METHODS,
            _small_suite(frames=24),
            jobs=2,
            progress=lambda done, total, r: settled.append(r),
        )
        return sequential, parallel, settled

    def test_every_cell_of_a_clip_runs_on_one_worker(self, sweeps):
        _, parallel, settled = sweeps
        assert parallel.ok, parallel.summary()
        pids: dict[int, set[int]] = {}
        for result in settled:
            pids.setdefault(result.clip_index, set()).add(result.worker_pid)
        assert len(pids) == 3
        assert all(len(workers) == 1 for workers in pids.values()), pids

    def test_misses_equal_the_sequential_sweep(self, sweeps):
        sequential, parallel, _ = sweeps
        for name in _PLACEMENT_FREE:
            assert parallel.counts[name] == sequential.counts[name], name
        for kind in KINDS:
            assert sequential.counts[f"store.{kind}.miss"] > 0
            assert sequential.counts[f"store.{kind}.evictions"] == 0
        assert sequential.counts["lk.requests"] > 0
        assert sequential.counts["seed.requests"] > 0

    def test_one_clip_sweep_reaches_every_worker(self):
        # Fewer clips than workers: the clip's unit is split so both
        # workers get cells.
        suite = _small_suite(frames=24, clips=1)
        pids = set()
        sweep = run_sweep(
            ("adavp", "mpdt-320", "mve", "no-tracking-320"),
            suite,
            jobs=2,
            progress=lambda done, total, r: pids.add(r.worker_pid),
        )
        assert sweep.ok, sweep.summary()
        assert sweep.total_shards == 4
        assert len(pids) == 2


class TestUnitIsolation:
    """A work unit owns its clip and the store's entries while it runs:
    the clip is built once for all its cells, and the store is empty
    when the unit ends, however it ends."""

    @pytest.fixture(scope="class")
    def settled(self):
        settled = []
        sweep = run_sweep(
            _METHODS,
            _small_suite(frames=24),
            jobs=2,
            shard_runner=probe_runner,
            progress=lambda done, total, r: settled.append(r),
        )
        assert sweep.ok, sweep.summary()
        return settled

    def test_first_cell_of_every_unit_sees_an_empty_store(self, settled):
        # Three clip units on two workers: one worker runs two of them,
        # so an empty store at its second unit's start is the previous
        # unit's doing, not a fresh process's.
        clips_per_worker: dict[int, set[int]] = {}
        for result in settled:
            clips_per_worker.setdefault(result.worker_pid, set()).add(result.clip_index)
        assert max(len(clips) for clips in clips_per_worker.values()) >= 2
        for result in settled:
            # Cells run in grid order within a unit: adavp, then mpdt-320.
            if result.method == _METHODS[0]:
                assert result.probe["store_entries"] == 0, result
            else:
                assert result.probe["store_entries"] > 0, result

    def test_all_cells_of_a_unit_get_one_clip(self, settled):
        clips: dict[int, set[int]] = {}
        for result in settled:
            assert result.probe["clip"]
            clips.setdefault(result.clip_index, set()).add(result.probe["clip_id"])
        assert len(clips) == 3
        assert all(len(ids) == 1 for ids in clips.values()), clips

    def test_a_unit_with_a_raising_cell_leaves_the_store_empty(self):
        def raising_runner(spec, clip=None, obs=None):
            result = run_shard(spec, clip=clip, obs=obs)
            if spec.method.name == _METHODS[0]:
                raise RuntimeError("injected shard crash")
            return result

        results = run_unit(raising_runner, _unit(_small_suite(frames=12).clips[0]))
        assert "injected shard crash" in results[0].error
        assert results[1].ok
        assert len(default_store()) == 0

    def test_a_cell_that_exits_still_empties_the_store(self):
        # An exit fails its cell and the unit goes on; an interrupt ends
        # the unit.  Either way the store is empty afterwards.
        unit = _unit(_small_suite(frames=12).clips[0])

        def exiting_runner(spec, clip=None, obs=None):
            run_shard(spec, clip=clip, obs=obs)
            raise SystemExit(3)

        results = run_unit(exiting_runner, unit)
        assert all("SystemExit: 3" in r.error for r in results)
        assert len(default_store()) == 0

        def interrupted_runner(spec, clip=None, obs=None):
            run_shard(spec, clip=clip, obs=obs)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_unit(interrupted_runner, unit)
        assert len(default_store()) == 0

    def test_a_clip_that_fails_to_build_fails_every_cell_unrun(self):
        ran = []

        def recording_runner(spec, clip=None, obs=None):
            ran.append(spec.index)
            return ShardResult(
                index=spec.index,
                method=spec.method.name,
                clip_name=spec.clip.name,
                clip_index=spec.clip_index,
            )

        results = run_unit(recording_runner, _unit(_unbuildable_clip()))
        assert ran == []
        assert [r.index for r in results] == [0, 1]
        assert all("non-negative" in r.error for r in results)

    def test_clip_build_failures_go_through_the_retry_path(self):
        good = _small_suite(frames=12, clips=1).clips[0]
        suite = VideoSuite(name="one-unbuildable", clips=[good, _unbuildable_clip()])
        settled = []
        sweep = run_sweep(
            _METHODS,
            suite,
            jobs=2,
            shard_runner=probe_runner,
            progress=lambda done, total, r: settled.append(r),
        )
        assert {(f.method, f.clip_name) for f in sweep.failures} == {
            (name, "unbuildable") for name in _METHODS
        }
        assert all(f.attempts == 2 for f in sweep.failures)
        assert all("non-negative" in f.error for f in sweep.failures)
        assert sweep.retried_shards == len(_METHODS)
        for name in _METHODS:
            assert len(sweep.results[name].per_video_accuracy) == 1

    def test_a_clip_build_that_exits_fails_only_its_cells(self):
        # A build that raises SystemExit in a worker fails the unit's
        # cells into the retry path, as an exception does, instead of
        # ending the sweep.
        good = _small_suite(frames=12, clips=1).clips[0]
        exiting = make_clip("racetrack", seed=5, num_frames=12, name="exiting")
        exiting.scene.seed = _ExitingSeed(5)
        suite = VideoSuite(name="one-exiting", clips=[good, exiting])
        sweep = run_sweep(_METHODS, suite, jobs=2)
        assert {(f.method, f.clip_name) for f in sweep.failures} == {
            (name, "exiting") for name in _METHODS
        }
        assert all(f.attempts == 2 for f in sweep.failures)
        assert all("SystemExit: 3" in f.error for f in sweep.failures)
        for name in _METHODS:
            assert len(sweep.results[name].per_video_accuracy) == 1
