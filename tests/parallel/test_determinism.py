"""Parallel sweeps must be bit-identical to sequential ones.

This is the engine's core contract: every shard is a pure function of
its spec, so fig6 at ``--jobs 2`` produces the same per-video accuracy
lists, merged activity logs, and energy breakdowns as ``--jobs 1`` —
not approximately, exactly.
"""

from __future__ import annotations

import pytest

from repro.experiments.fig6_overall import run as run_fig6
from repro.experiments.workloads import quick_suite

_REDUCED_METHODS = ("adavp", "mve", "mpdt-320", "no-tracking-416")


@pytest.fixture(scope="module")
def fig6_pair():
    sequential = run_fig6(
        suite=quick_suite(frames=60), methods=_REDUCED_METHODS, jobs=1
    )
    parallel = run_fig6(
        suite=quick_suite(frames=60), methods=_REDUCED_METHODS, jobs=2
    )
    return sequential, parallel


class TestFig6Determinism:
    def test_per_video_accuracy_bit_identical(self, fig6_pair):
        sequential, parallel = fig6_pair
        for name in _REDUCED_METHODS:
            assert (
                sequential.results[name].per_video_accuracy
                == parallel.results[name].per_video_accuracy
            )
            assert (
                sequential.results[name].per_video_mean_f1
                == parallel.results[name].per_video_mean_f1
            )

    def test_merged_activity_and_energy_bit_identical(self, fig6_pair):
        sequential, parallel = fig6_pair
        for name in _REDUCED_METHODS:
            seq, par = sequential.results[name], parallel.results[name]
            assert seq.activity.duration == par.activity.duration
            assert dict(seq.activity.gpu_busy) == dict(par.activity.gpu_busy)
            assert dict(seq.activity.cpu_busy) == dict(par.activity.cpu_busy)
            assert seq.energy().as_dict() == par.energy().as_dict()

    def test_report_identical(self, fig6_pair):
        sequential, parallel = fig6_pair
        assert sequential.report() == parallel.report()


class TestFrameStoreDeterminism:
    """The frame store may only change *when* frames are rendered and
    pyramids built, never *what* a sweep computes: fig6 at ``--jobs 2``
    through the store must reproduce a store-free sequential run exactly."""

    def test_store_enabled_parallel_matches_plain_sequential(self, fig6_pair, monkeypatch):
        from repro.experiments.fig6_overall import run as run_fig6
        from repro.experiments.workloads import quick_suite
        from repro.video import framestore

        _, stored = fig6_pair  # jobs=2, each worker through its store
        # A zero-byte store keeps nothing: every frame is rendered afresh.
        monkeypatch.setattr(framestore, "_default_store", framestore.FrameStore(0))
        plain = run_fig6(suite=quick_suite(frames=60), methods=_REDUCED_METHODS, jobs=1)
        for name in _REDUCED_METHODS:
            seq, par = plain.results[name], stored.results[name]
            assert seq.per_video_accuracy == par.per_video_accuracy
            assert seq.per_video_mean_f1 == par.per_video_mean_f1
            assert seq.activity.duration == par.activity.duration
            assert seq.energy().as_dict() == par.energy().as_dict()
        assert plain.report() == stored.report()


class TestBudgetedStoreDeterminism:
    """Explicit jobs=2-vs-jobs=1 bit-identity through the frame store on
    both arms — the sequential arm reads the parent's store, each pool
    worker its own, and neither may change what a sweep computes."""

    def test_jobs2_matches_jobs1(self):
        from repro.parallel import run_sweep

        sequential = run_sweep(_REDUCED_METHODS, quick_suite(frames=48), jobs=1)
        parallel = run_sweep(_REDUCED_METHODS, quick_suite(frames=48), jobs=2)
        for name in _REDUCED_METHODS:
            seq, par = sequential.results[name], parallel.results[name]
            assert seq.per_video_accuracy == par.per_video_accuracy
            assert seq.per_video_mean_f1 == par.per_video_mean_f1
            assert seq.activity.duration == par.activity.duration
            assert dict(seq.activity.gpu_busy) == dict(par.activity.gpu_busy)
            assert seq.energy().as_dict() == par.energy().as_dict()


def _cell_records(methods, suite) -> tuple[list, dict]:
    """Every cell's outputs as exact ``repr`` floats, and the sweep's store counts."""
    from repro.parallel import run_sweep

    cells = []
    sweep = run_sweep(
        methods, suite, jobs=1, progress=lambda done, total, r: cells.append(r)
    )
    assert sweep.ok, sweep.summary()
    records = sorted(
        (
            r.index,
            r.method,
            r.clip_name,
            repr(float(r.accuracy)),
            repr(float(r.mean_f1)),
            repr(float(r.activity.duration)),
            sorted((name, repr(float(s))) for name, s in r.activity.gpu_busy.items()),
            sorted((name, repr(float(s))) for name, s in r.activity.cpu_busy.items()),
        )
        for r in cells
    )
    return records, sweep


class TestSharedFlowDeterminism:
    """Arms that share Lucas-Kanade solves compute what arms solving alone
    compute: every fig6 method at ``--jobs 1`` through the process store
    reproduces a zero-byte store's cells exactly.  The arms run in
    lockstep, so they share each step inside one merged call, which the
    store cannot change: either way every merged step is one solve over
    the same points, fewer steps than the arms asked for."""

    @pytest.mark.parametrize("base_seed", [303, 1303])
    def test_store_on_matches_store_off(self, base_seed, monkeypatch):
        from repro.experiments.fig6_overall import FIG6_METHODS
        from repro.video import framestore

        framestore.default_store().clear()
        stored, on = _cell_records(FIG6_METHODS, quick_suite(base_seed, frames=24))
        # A zero-byte store keeps nothing: every frame and pyramid is made afresh.
        monkeypatch.setattr(framestore, "_default_store", framestore.FrameStore(0))
        plain, off = _cell_records(FIG6_METHODS, quick_suite(base_seed, frames=24))
        assert stored == plain
        # The store decides what is built, never what is solved or seeded.
        assert {k: v for k, v in on.counts.items() if not k.startswith("store.")} == {
            k: v for k, v in off.counts.items() if not k.startswith("store.")
        }
        assert 0 < on.counts["lk.solves"] == on.counts["lk.steps"] < on.counts["lk.requests"]
        assert on.counts["lk.points"] == off.counts["lk.points"] > on.counts["lk.solves"]
