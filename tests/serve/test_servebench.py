"""Servebench document tests: schema, gates, table."""

import pytest

from repro.perf.harness import build_document
from repro.serve import ServeConfig
from repro.serve.bench import (
    SERVE_BENCH_NAME,
    SERVE_SUITE_NAME,
    format_serve_table,
    run_serve_benchmark,
    validate_serve_doc,
)

_FAST_CONFIG = ServeConfig(duration_s=2.5, warmup_s=0.5)
_FAST_RUNGS = (4, 8)


@pytest.fixture(scope="module")
def serve_doc():
    return run_serve_benchmark(seed=7, config=_FAST_CONFIG, rungs=_FAST_RUNGS)


@pytest.fixture(scope="module")
def serve_bench(serve_doc):
    return serve_doc["benches"][0]


def _doc(bench: dict) -> dict:
    return build_document([bench], True, suite=SERVE_SUITE_NAME, clock="virtual")


class TestRunServeBenchmark:
    def test_bench_shape(self, serve_doc, serve_bench):
        assert serve_doc["suite"] == SERVE_SUITE_NAME
        assert serve_doc["clock"] == "virtual"
        assert validate_serve_doc(serve_doc) == [SERVE_BENCH_NAME]
        assert serve_bench["name"] == SERVE_BENCH_NAME
        assert "kind" not in serve_bench
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
        again = run_serve_benchmark(
            seed=7, config=_FAST_CONFIG, rungs=_FAST_RUNGS
        )["benches"][0]
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
    """Entry checks and the ``--min-sustained`` gate of
    :func:`validate_serve_doc`."""

    def test_min_sustained_gate_fails_below_floor(self, serve_bench):
        floor = serve_bench["sustained_streams"] + 1
        with pytest.raises(ValueError, match="sustained"):
            validate_serve_doc(_doc(serve_bench), min_sustained_streams=floor)

    def test_min_sustained_gate_passes_at_floor(self, serve_bench):
        assert serve_bench["sustained_streams"] > 0
        validate_serve_doc(
            _doc(serve_bench),
            min_sustained_streams=serve_bench["sustained_streams"],
        )

    def test_identity_failure_is_fatal(self, serve_bench):
        broken = dict(serve_bench, results_identical=False, failures=1)
        with pytest.raises(ValueError, match="result-identical"):
            validate_serve_doc(_doc(broken))

    def test_non_increasing_rungs_rejected(self, serve_bench):
        broken = dict(serve_bench, rungs=list(reversed(serve_bench["rungs"])))
        with pytest.raises(ValueError, match="increasing"):
            validate_serve_doc(_doc(broken))

    def test_sustained_must_be_a_rung(self, serve_bench):
        broken = dict(serve_bench, sustained_streams=999)
        with pytest.raises(ValueError, match="not one of its rungs"):
            validate_serve_doc(_doc(broken))


class TestFormatTable:
    def test_table_lists_every_rung(self, serve_doc):
        table = format_serve_table(serve_doc)
        assert SERVE_BENCH_NAME in table
        assert "sustains" in table
        assert f"over {_FAST_CONFIG.duration_s:g} virtual s" in table
        for rung in _FAST_RUNGS:
            assert f"{rung:>4d} streams" in table
