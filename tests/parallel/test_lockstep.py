"""Lockstep clip units: merged Lucas-Kanade steps, disjoint cells, no leaked threads.

A unit's method arms run as threads of one session, one at a time, and
every frame pair's flow step is solved once for all of them.  The
contracts pinned here: the cells compute what the arms compute one at a
time (a differential over generated scenarios), each distinct step is
solved by exactly one ``track_features`` call, each distinct box is
seeded once, every pixel kernel runs on the driving thread, each arm
meets a failure as an exception of its own, and the cells' timed spans
stay disjoint with no session thread outliving its unit, however the
unit ends.
"""

from __future__ import annotations

import threading
import time
import traceback
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.fig6_overall import FIG6_METHODS
from repro.experiments.runners import evaluate_run, make_method, run_method_on_clip
from repro.experiments.workloads import quick_suite
from repro.geometry import Box
from repro.parallel import ShardResult, run_shard, run_sweep
from repro.parallel.engine import run_unit
from repro.parallel.lockstep import Lockstep
from repro.tracking.tracker import ObjectTracker
from repro.video import dataset, render
from repro.video.dataset import VideoClip, VideoSuite, make_clip
from repro.video.framestore import default_store
from repro.video.library import list_scenarios
from repro.vision import features, optical_flow
from repro.vision.features import SeedParams
from repro.vision.optical_flow import FlowResult, LKParams

from tests.parallel.test_engine import _small_suite, _unit

_UNIT_METHODS = ("adavp", "mpdt-320", "marlin-416", "no-tracking-320")


def _record(accuracy, mean_f1, activity) -> tuple:
    """One cell's outputs as exact ``repr`` floats."""
    return (
        repr(float(accuracy)),
        repr(float(mean_f1)),
        repr(float(activity.duration)),
        sorted((name, repr(float(s))) for name, s in activity.gpu_busy.items()),
        sorted((name, repr(float(s))) for name, s in activity.cpu_busy.items()),
    )


def _lk_and_seeds(sweep) -> dict[str, int]:
    """A sweep's Lucas-Kanade and seeding counts: everything but the store's."""
    return {name: value for name, value in sweep.counts.items() if not name.startswith("store.")}

class _FlowLog:
    """Records every ``VideoClip.flow`` step, and the ``track_features``
    calls and the points they solved."""

    def __init__(self) -> None:
        self.steps: list[tuple] = []
        self.solves = 0
        self.points = 0

    def patches(self):
        real_flow, real_solve = VideoClip.flow, dataset.track_features

        def flow(clip, prev_index, next_index, points, params):
            self.steps.append((clip.renderer._fingerprint, prev_index, next_index, params))
            return real_flow(clip, prev_index, next_index, points, params)

        def solve(prev, next_, points, params):
            self.solves += 1
            self.points += len(points)
            return real_solve(prev, next_, points, params)

        return (
            mock.patch.object(VideoClip, "flow", flow),
            mock.patch.object(dataset, "track_features", solve),
        )

    def __enter__(self) -> "_FlowLog":
        self._patches = self.patches()
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        for patch in self._patches:
            patch.stop()


def _one_arm_at_a_time(suite: VideoSuite) -> tuple[dict, list[set], int]:
    """Every cell run alone, each clip's distinct flow steps, and the
    points the arms' solves took."""
    records, steps, points = {}, [], 0
    for clip in suite:
        with _FlowLog() as log:
            for name in FIG6_METHODS:
                run = run_method_on_clip(make_method(name), clip)
                accuracy, f1 = evaluate_run(run, clip)
                records[(name, clip.name)] = _record(accuracy, f1.mean(), run.activity)
        steps.append(set(log.steps))
        points += log.points
        # The sweeps below must render and build afresh.
        default_store().clear()
    return records, steps, points


def _sweep(suite: VideoSuite, jobs: int):
    settled = []
    sweep = run_sweep(
        FIG6_METHODS, suite, jobs=jobs, progress=lambda done, total, r: settled.append(r)
    )
    assert sweep.ok, sweep.summary()
    records = {
        (r.method, r.clip_name): _record(r.accuracy, r.mean_f1, r.activity) for r in settled
    }
    return sweep, settled, records


class TestLockstepDifferential:
    """Lockstep units against one arm at a time, on generated scenarios."""

    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        presets=st.lists(st.sampled_from(list_scenarios()), min_size=2, max_size=2),
        seed=st.integers(min_value=0, max_value=10_000),
        frames=st.integers(min_value=8, max_value=20),
    )
    def test_cells_and_solves_match_one_arm_at_a_time(self, presets, seed, frames):
        suite = VideoSuite(
            name="generated",
            clips=[
                make_clip(preset, seed=seed + i, num_frames=frames + 3 * i)
                for i, preset in enumerate(presets)
            ],
        )
        alone, steps, alone_points = _one_arm_at_a_time(suite)

        with _FlowLog() as log:
            sequential, _, records = _sweep(suite, jobs=1)
        assert records == alone
        # One merged flow call per distinct (prev, next, params) step of
        # each unit, and one track_features call per merged call.
        assert len(log.steps) == len(set(log.steps))
        assert set(log.steps) == set().union(*steps)
        assert log.solves == len(log.steps)
        distinct = sum(len(unit) for unit in steps)
        assert sequential.counts["lk.steps"] == sequential.counts["lk.solves"] == distinct
        assert sequential.counts["lk.points"] == log.points

        parallel, settled, records = _sweep(suite, jobs=2)
        assert records == alone
        for clip_index, unit in enumerate(steps):
            cells = [r for r in settled if r.clip_index == clip_index]
            assert sum(r.counts["lk.solves"] for r in cells) == len(unit)
            assert sum(r.counts["lk.steps"] for r in cells) == len(unit)
        assert _lk_and_seeds(parallel) == _lk_and_seeds(sequential)
        # Merging is what shares the solves: arms asked for more steps
        # than were solved, and the merged calls solved no more points
        # than the arms did alone.
        assert sequential.counts["lk.requests"] > distinct
        assert sequential.counts["lk.points"] <= alone_points


class _PixelLog:
    """The thread every pixel kernel runs on, and every box asked seeds for.

    Kernels are patched where their callers look them up: rendering and
    pyramid builds on their classes, ``track_features`` in the clip,
    the corner detectors in the seeding code, and the block matcher in
    the clip.  Seed requests are logged at :meth:`VideoClip.features`,
    keyed as the session's memo keys them.
    """

    def __init__(self) -> None:
        self.threads: dict[str, set] = {}
        self.requests: list[tuple] = []

    def _wrap(self, name: str, real):
        def kernel(*args, **kwargs):
            self.threads.setdefault(name, set()).add(threading.current_thread())
            return real(*args, **kwargs)

        return kernel

    def __enter__(self) -> "_PixelLog":
        real_features = VideoClip.features

        def seed(clip, index, boxes, params):
            shape = (clip.config.frame_height, clip.config.frame_width)
            for box in boxes:
                rows, cols = box.pixel_slice(shape)
                self.requests.append(
                    (clip.name, index, rows.start, rows.stop, cols.start, cols.stop, params)
                )
            return real_features(clip, index, boxes, params)

        self._patches = [
            mock.patch.object(VideoClip, "features", seed),
            *(
                mock.patch.object(owner, name, self._wrap(name, getattr(owner, name)))
                for owner, name in (
                    (render.FrameRenderer, "render_frame"),
                    (optical_flow.FramePyramid, "__init__"),
                    (dataset, "track_features"),
                    (features, "good_features_to_track"),
                    (features, "fast_corners"),
                    (dataset, "block_motion_field"),
                )
            ),
        ]
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        for patch in self._patches:
            patch.stop()


_PLACED_METHODS = (*FIG6_METHODS, "mve")


class TestPixelWorkStaysOnTheDrivingThread:
    """Arms hold no pixels: every kernel runs on the thread driving the
    session, and each distinct box is seeded once per unit."""

    @pytest.fixture(scope="class")
    def suite(self):
        return VideoSuite(
            name="placed",
            clips=[
                make_clip("highway_surveillance", seed=41, num_frames=16),
                make_clip("residential", seed=42, num_frames=13),
            ],
        )

    @pytest.fixture(scope="class")
    def alone(self, suite):
        """Cell records and seed requests of every arm run alone."""
        records = {}
        with _PixelLog() as log:
            for clip in suite:
                for name in _PLACED_METHODS:
                    run = run_method_on_clip(make_method(name), clip)
                    accuracy, f1 = evaluate_run(run, clip)
                    records[(name, clip.name)] = _record(accuracy, f1.mean(), run.activity)
                default_store().clear()
        return records, log.requests

    def _check(self, log: _PixelLog, results, alone) -> None:
        records, requests = alone
        assert all(r.ok for r in results), [r.error for r in results]
        assert {
            (r.method, r.clip_name): _record(r.accuracy, r.mean_f1, r.activity)
            for r in results
        } == records
        driving = threading.current_thread()
        assert set(log.threads) == {
            "render_frame",
            "__init__",
            "track_features",
            "good_features_to_track",
            "block_motion_field",
        }
        for name, threads in log.threads.items():
            assert threads == {driving}, name
        # Each distinct (clip, frame, pixel slice, params) is seeded once,
        # and arms asked for more boxes than that.
        distinct = set(requests)
        assert len(log.requests) == len(set(log.requests))
        assert set(log.requests) == distinct
        assert sum(r.counts["seed.boxes"] for r in results) == len(distinct)
        assert sum(r.counts["seed.requests"] for r in results) == len(requests)
        assert len(distinct) < len(requests)

    def test_run_unit(self, suite, alone):
        results = []
        with _PixelLog() as log:
            for clip in suite:
                results += run_unit(run_shard, _unit(clip, _PLACED_METHODS))
        self._check(log, results, alone)

    def test_inline(self, suite, alone):
        results = []
        with _PixelLog() as log:
            sweep = run_sweep(
                _PLACED_METHODS,
                suite,
                jobs=1,
                progress=lambda done, total, r: results.append(r),
            )
        assert sweep.ok, sweep.summary()
        self._check(log, results, alone)


def _session_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("lockstep-arm")]


class _Timed:
    """A shard runner that records each cell's ``perf_counter`` span."""

    def __init__(self, skip: str | None = None) -> None:
        self.spans: list[tuple[float, float]] = []
        self.skip = skip

    def __call__(self, spec, clip=None, obs=None):
        start = time.perf_counter()
        try:
            if spec.method.name == self.skip:
                return ShardResult(
                    index=spec.index,
                    method=spec.method.name,
                    clip_name=spec.clip.name,
                    clip_index=spec.clip_index,
                )
            return run_shard(spec, clip=clip, obs=obs)
        finally:
            self.spans.append((start, time.perf_counter()))

    def assert_disjoint(self) -> None:
        spans = sorted(self.spans)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start


def _raising_track_to(exc: BaseException):
    """``ObjectTracker.track_to`` that raises ``exc`` once past frame 5."""
    real = ObjectTracker.track_to

    def track_to(tracker, frame_index):
        if frame_index > 5:
            raise exc
        return real(tracker, frame_index)

    return mock.patch.object(ObjectTracker, "track_to", track_to)


def _run_unit(runner) -> list[ShardResult]:
    return run_unit(runner, _unit(_small_suite(frames=12).clips[0], _UNIT_METHODS))


def _run_inline(runner) -> list[ShardResult]:
    settled = []
    run_sweep(
        _UNIT_METHODS,
        _small_suite(frames=12, clips=2),
        jobs=1,
        retries=0,
        shard_runner=runner,
        progress=lambda done, total, r: settled.append(r),
    )
    return settled


@pytest.mark.parametrize("execute", [_run_unit, _run_inline], ids=["run_unit", "inline"])
class TestCellsAndThreads:
    """Cells are timed one after another, and a unit leaves no thread behind."""

    def test_normal_completion(self, execute):
        runner = _Timed()
        results = execute(runner)
        assert all(r.ok for r in results), [r.error for r in results]
        runner.assert_disjoint()
        assert len(runner.spans) == len(results)
        assert not _session_threads()

    @pytest.mark.parametrize(
        "exc, text",
        [(RuntimeError("arm crash"), "arm crash"), (SystemExit(3), "SystemExit: 3")],
        ids=["raises", "exits"],
    )
    def test_a_failing_arm_fails_only_its_cell(self, execute, exc, text):
        runner = _Timed()
        with _raising_track_to(exc):
            results = execute(runner)
        for result in results:
            if result.method.startswith("no-tracking"):
                assert result.ok, result.error
            else:
                assert text in result.error
        runner.assert_disjoint()
        assert not _session_threads()

    def test_a_skipped_cell_cancels_its_parked_arm(self, execute):
        runner = _Timed(skip="mpdt-320")
        results = execute(runner)
        assert all(r.ok for r in results)
        assert {r.method for r in results if r.counts} == set(_UNIT_METHODS) - {"mpdt-320"}
        runner.assert_disjoint()
        assert not _session_threads()


class TestFailuresAreOwnedPerArm:
    """An arm re-raises a failure the driving thread met for it; each arm
    gets an instance of its own, so no stack carries another arm's frames."""

    def test_a_failed_merged_step_gives_each_arm_one_park_frame(self):
        real = VideoClip.flow

        def flow(clip, prev_index, next_index, points, params):
            if prev_index >= 1:
                raise RuntimeError("flow failed")
            return real(clip, prev_index, next_index, points, params)

        suite = VideoSuite(name="one", clips=quick_suite(303, frames=12).clips[:1])
        with mock.patch.object(VideoClip, "flow", flow):
            sweep = run_sweep(
                ["mpdt-320", "marlin-320", "mpdt-416"], suite, jobs=1, retries=0
            )
        assert len(sweep.failures) == 3
        for failure in sweep.failures:
            assert "RuntimeError: flow failed" in failure.error
            assert failure.error.count(", in park\n") == 1, failure.error

    def test_a_memoised_failed_seeding_is_raised_afresh_in_each_arm(self):
        class Clip:
            config = SimpleNamespace(frame_width=64, frame_height=48)
            calls = 0

            def features(self, index, boxes, params):
                self.calls += 1
                raise ValueError("no pixels")

        def body(clip):
            clip.features(0, [Box(4.0, 4.0, 20.0, 20.0)], SeedParams())

        clip, errors = Clip(), []
        with Lockstep(clip, {"a": body, "b": body}) as session:
            for key in ("a", "b"):
                with pytest.raises(ValueError, match="no pixels") as info:
                    session.finish(key)
                errors.append(info.value)
        # Both arms drew the same box: one computation, two instances.
        assert clip.calls == 1
        assert errors[0] is not errors[1]
        for error in errors:
            assert "".join(traceback.format_exception(error)).count(", in call\n") == 1


class TestSession:
    """The session on a stand-in clip whose flow moves every point by +1."""

    class Clip:
        def __init__(self) -> None:
            self.calls: list[tuple[int, int, int]] = []

        def flow(self, prev_index, next_index, points, params):
            self.calls.append((prev_index, next_index, len(points)))
            status = np.ones(len(points), dtype=bool)
            return FlowResult(points + 1.0, status, np.zeros(len(points)))

    @staticmethod
    def arm(name, steps, log, fill):
        def body(clip):
            seen = []
            for prev_index, next_index in steps:
                log.append((name, prev_index))
                points = np.full((2, 2), fill)
                seen.append(clip.flow(prev_index, next_index, points, LKParams()).points[0, 0])
            return seen

        return body

    def test_smallest_step_first_and_shared_steps_merge(self):
        clip, log = self.Clip(), []
        bodies = {
            "a": self.arm("a", [(0, 1), (1, 2), (2, 3)], log, 0.0),
            "b": self.arm("b", [(0, 2), (2, 3)], log, 10.0),
        }
        with Lockstep(clip, bodies) as session:
            assert session.finish("b") == [11.0, 11.0]
            assert session.finish("a") == [1.0, 1.0, 1.0]
        # (0, 1) < (0, 2) < (1, 2) < (2, 3); both arms wait on the last.
        assert clip.calls == [(0, 1, 2), (0, 2, 2), (1, 2, 2), (2, 3, 4)]
        assert log == [("a", 0), ("b", 0), ("a", 1), ("b", 2), ("a", 2)]
        assert not _session_threads()

    def test_finish_leaves_the_other_arms_parked_and_close_cancels_them(self):
        clip, log = self.Clip(), []
        bodies = {
            "a": self.arm("a", [(0, 1)], log, 0.0),
            "b": self.arm("b", [(0, 1), (1, 2), (2, 3)], log, 10.0),
        }
        with Lockstep(clip, bodies) as session:
            assert session.finish("a") == [1.0]
            assert clip.calls == [(0, 1, 4)]
        # b got its rows of the shared step, but nothing gave it a turn.
        assert log == [("a", 0), ("b", 0)]
        assert clip.calls == [(0, 1, 4)]
        assert not _session_threads()

    def test_an_arm_error_is_raised_by_finish(self):
        def body(clip):
            clip.flow(0, 1, np.zeros((1, 2)), LKParams())
            raise ValueError("arm failed")

        with Lockstep(self.Clip(), {"a": body}) as session:
            with pytest.raises(ValueError, match="arm failed"):
                session.finish("a")
        assert not _session_threads()
