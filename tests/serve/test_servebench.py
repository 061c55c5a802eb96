"""Servebench document tests: schema, kind dispatch, merge, gates."""

import pytest

from repro.perf.macro import (
    format_macro_table,
    new_macro_document,
    validate_macro_doc,
)
from repro.serve import ServeConfig
from repro.serve.bench import (
    SERVE_BENCH_NAME,
    merge_serve_bench,
    run_serve_benchmark,
)

_FAST_CONFIG = ServeConfig(duration_s=2.5, warmup_s=0.5)
_FAST_RUNGS = (4, 8)


@pytest.fixture(scope="module")
def serve_bench():
    return run_serve_benchmark(seed=7, config=_FAST_CONFIG, rungs=_FAST_RUNGS)


def _sweep_bench() -> dict:
    """A minimal valid sweep-kind bench (pre-`kind` documents omit it)."""
    return {
        "name": "fig6_reduced_sweep",
        "workload": {"shards": 12},
        "jobs": 4,
        "effective_parallelism": 4,
        "repeats": 3,
        "sequential_best_s": 10.0,
        "parallel_best_s": 4.0,
        "speedup": 2.5,
        "results_identical": True,
        "failures": 0,
        "store": {
            "budget_mb": 88,
            "sequential": {"frame": {"hits": 1, "misses": 2}},
            "parallel": {"frame": {"hits": 1, "misses": 2}},
        },
    }


class TestRunServeBenchmark:
    def test_bench_shape(self, serve_bench):
        assert serve_bench["name"] == SERVE_BENCH_NAME
        assert serve_bench["kind"] == "serve"
        assert [r["streams"] for r in serve_bench["rungs"]] == list(_FAST_RUNGS)
        assert serve_bench["results_identical"] is True
        assert serve_bench["failures"] == 0
        for rung in serve_bench["rungs"]:
            assert rung["served_per_sim_second"] > 0
            assert len(rung["digest"]) == 64

    def test_sustained_is_a_rung_or_zero(self, serve_bench):
        sustained = serve_bench["sustained_streams"]
        assert sustained == 0 or sustained in _FAST_RUNGS

    def test_sustained_matches_rung_p99s(self, serve_bench):
        slo = serve_bench["slo_realtime_s"]
        passing = [
            r["streams"]
            for r in serve_bench["rungs"]
            if r["realtime_wait_p99_s"] is not None
            and r["realtime_wait_p99_s"] <= slo
        ]
        assert serve_bench["sustained_streams"] == (max(passing) if passing else 0)

    def test_deterministic_across_runs(self, serve_bench):
        again = run_serve_benchmark(seed=7, config=_FAST_CONFIG, rungs=_FAST_RUNGS)
        assert [r["digest"] for r in again["rungs"]] == [
            r["digest"] for r in serve_bench["rungs"]
        ]
        assert again["sustained_streams"] == serve_bench["sustained_streams"]

    def test_rejects_bad_rungs(self):
        with pytest.raises(ValueError):
            run_serve_benchmark(config=_FAST_CONFIG, rungs=(8, 4))
        with pytest.raises(ValueError):
            run_serve_benchmark(config=_FAST_CONFIG, rungs=())


class TestMergeAndValidate:
    def test_merge_into_empty_builds_fresh_doc(self, serve_bench):
        doc = merge_serve_bench(None, serve_bench, quick=True)
        assert validate_macro_doc(doc) == [SERVE_BENCH_NAME]

    def test_merge_preserves_sweep_bench(self, serve_bench):
        doc = new_macro_document(quick=False, benches=[_sweep_bench()])
        merged = merge_serve_bench(doc, serve_bench, quick=False)
        names = validate_macro_doc(merged)
        assert names == ["fig6_reduced_sweep", SERVE_BENCH_NAME]

    def test_merge_replaces_stale_serve_bench(self, serve_bench):
        doc = merge_serve_bench(None, dict(serve_bench, sustained_streams=0), True)
        merged = merge_serve_bench(doc, serve_bench, quick=True)
        entries = [b for b in merged["benches"] if b["name"] == SERVE_BENCH_NAME]
        assert len(entries) == 1
        assert entries[0]["sustained_streams"] == serve_bench["sustained_streams"]

    def test_sweep_without_kind_still_validates(self):
        doc = new_macro_document(quick=False, benches=[_sweep_bench()])
        assert validate_macro_doc(doc, min_speedup=2.0) == ["fig6_reduced_sweep"]

    def test_unknown_kind_rejected(self, serve_bench):
        doc = merge_serve_bench(None, dict(serve_bench, kind="gpu"), True)
        with pytest.raises(ValueError, match="unknown"):
            validate_macro_doc(doc)

    def test_min_sustained_gate_fails_below_floor(self, serve_bench):
        doc = merge_serve_bench(None, serve_bench, quick=True)
        floor = serve_bench["sustained_streams"] + 1
        with pytest.raises(ValueError, match="sustained"):
            validate_macro_doc(doc, min_sustained_streams=floor)

    def test_min_sustained_gate_passes_at_floor(self, serve_bench):
        assert serve_bench["sustained_streams"] > 0
        doc = merge_serve_bench(None, serve_bench, quick=True)
        validate_macro_doc(
            doc, min_sustained_streams=serve_bench["sustained_streams"]
        )

    def test_identity_failure_is_fatal(self, serve_bench):
        broken = dict(serve_bench, results_identical=False, failures=1)
        doc = merge_serve_bench(None, broken, quick=True)
        with pytest.raises(ValueError):
            validate_macro_doc(doc)

    def test_non_increasing_rungs_rejected(self, serve_bench):
        broken = dict(serve_bench, rungs=list(reversed(serve_bench["rungs"])))
        doc = merge_serve_bench(None, broken, quick=True)
        with pytest.raises(ValueError, match="increasing"):
            validate_macro_doc(doc)

    def test_sustained_must_be_a_rung(self, serve_bench):
        broken = dict(serve_bench, sustained_streams=999)
        doc = merge_serve_bench(None, broken, quick=True)
        with pytest.raises(ValueError, match="not one of its rungs"):
            validate_macro_doc(doc)


class TestFormatTable:
    def test_table_mixes_kinds(self, serve_bench):
        doc = new_macro_document(quick=False, benches=[_sweep_bench()])
        doc = merge_serve_bench(doc, serve_bench, quick=False)
        table = format_macro_table(doc)
        assert "fig6_reduced_sweep" in table
        assert SERVE_BENCH_NAME in table
        assert "sustains" in table
        for rung in _FAST_RUNGS:
            assert f"{rung:>4d} streams" in table
