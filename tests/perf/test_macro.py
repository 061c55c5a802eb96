"""Macro-bench document: generation, schema validation, CLI smoke."""

from __future__ import annotations

import copy
import json

import pytest

from repro.perf import (
    format_macro_table,
    run_macro_benchmark,
    validate_macro_doc,
    write_bench_json,
)
from repro.experiments.workloads import quick_suite
from repro.perf.macro import MACRO_BENCH_NAME, MACRO_SUITE_NAME


@pytest.fixture(scope="module")
def macro_doc():
    return run_macro_benchmark(jobs=2, repeats=1, quick=True)


class TestRunMacroBenchmark:
    def test_document_validates(self, macro_doc):
        assert validate_macro_doc(macro_doc) == [MACRO_BENCH_NAME]

    def test_document_shape(self, macro_doc):
        assert macro_doc["suite"] == MACRO_SUITE_NAME
        assert macro_doc["clock"] == "wall"
        assert macro_doc["quick"] is True
        assert isinstance(macro_doc["host"]["cpu_count"], int)
        bench = macro_doc["benches"][0]
        assert bench["jobs"] == 2
        assert bench["workload"]["shards"] == len(bench["workload"]["methods"]) * len(
            bench["workload"]["clips"]
        )
        # The honesty field: a jobs=2 pool cannot deliver more parallelism
        # than the host has cores.
        assert bench["effective_parallelism"] == min(
            2, macro_doc["host"]["cpu_count"]
        )
        assert bench["results_identical"] is True
        assert bench["failures"] == 0
        assert bench["sequential_best_s"] > 0
        assert bench["parallel_best_s"] > 0

    def test_frame_store_counters(self, macro_doc):
        """The warm-up pass renders each frame at most once per process:
        a frame miss happens only on a frame's first render, so misses are
        bounded by unique frames (per worker in the parallel arm), no
        matter how many methods rescan each clip, and pyramids make room
        before any frame does.  Later arms read the clip's pyramids back,
        so both kinds hit in both arms.  Pipelines skip frames, so
        accessed frames can be fewer than clip length."""
        bench = macro_doc["benches"][0]
        assert bench["store_budget_mb"] == 88
        unique_frames = sum(bench["workload"]["frames_per_clip"])
        seq, par = bench["counts"]["sequential"], bench["counts"]["parallel"]
        assert 0 < seq["store.frame.miss"] <= unique_frames
        assert 0 < par["store.frame.miss"] <= unique_frames * bench["jobs"]
        for arm in (seq, par):
            assert arm["store.frame.evictions"] == 0
            assert arm["store.pyramid.miss"] > 0
            assert arm["store.pyramid.hit"] > 0

    def test_pyramid_store_counters(self, macro_doc):
        """Both arms make the same pyramid reads — the store decides only
        which are served — and each arm both builds and reuses pyramids.
        A pyramid miss reads its frame through the store, so frame reads
        exceed pyramid misses by the same count in both arms."""
        counts = macro_doc["benches"][0]["counts"]
        seq, par = counts["sequential"], counts["parallel"]

        def reads(arm, kind):
            return arm[f"store.{kind}.hit"] + arm[f"store.{kind}.miss"]

        assert reads(seq, "pyramid") == reads(par, "pyramid")
        assert (
            reads(seq, "frame") - seq["store.pyramid.miss"]
            == reads(par, "frame") - par["store.pyramid.miss"]
        )
        for arm in (seq, par):
            assert arm["store.pyramid.miss"] > 0
            assert arm["store.pyramid.hit"] > 0

    def test_flow_point_counts(self, macro_doc):
        """The counts block counts the points the solving calls took.  The
        sequential arm solves no more points than the pool, and the store
        keeps no flows: arms share solves inside the merged call."""
        bench = macro_doc["benches"][0]
        seq, par = bench["counts"]["sequential"], bench["counts"]["parallel"]
        assert 0 < seq["lk.solves"] < seq["lk.points"] <= par["lk.points"]
        for arm in (seq, par):
            assert {name for name in arm if name.startswith("store.")} == {
                f"store.{kind}.{name}"
                for kind in ("frame", "pyramid")
                for name in ("hit", "miss", "evictions", "evicted_bytes")
            }

    def test_each_merged_step_is_one_solve(self, macro_doc):
        """Lockstep arms: each merged step is one track_features call, the
        arms asked for more steps than were solved, and at jobs=2 the
        quick suite's three clips split no unit, so both arms make the
        same requests, steps and calls."""
        counts = macro_doc["benches"][0]["counts"]
        seq, par = counts["sequential"], counts["parallel"]
        assert 0 < seq["lk.solves"] == seq["lk.steps"] < seq["lk.requests"]
        for name in seq:
            if not name.startswith("store."):
                assert par[name] == seq[name], name
        assert f"LK sequential: {seq['lk.requests']} arm requests" in format_macro_table(
            macro_doc
        )

    def test_each_distinct_box_is_seeded_once(self, macro_doc):
        """AdaVP starts at 512, so MPDT-512 seeds the same boxes on the
        same frames: a session seeds each once, for fewer boxes than the
        arms asked for."""
        seq = macro_doc["benches"][0]["counts"]["sequential"]
        assert 0 < seq["seed.boxes"] < seq["seed.requests"]
        assert (
            f"seeding {seq['seed.requests']} box requests, {seq['seed.boxes']} seeded"
            in format_macro_table(macro_doc)
        )

    def test_timed_repeats_run_on_unseen_suites(self, macro_doc):
        # Repeat r runs quick_suite(303 + r): no arm's store holds any
        # of its scenes when the clock starts.
        workload = macro_doc["benches"][0]["workload"]
        assert workload["timed_suites"] == ["quick-304"]
        assert not set(workload["clips"]) & {clip.name for clip in quick_suite(304)}

    def test_peak_rss_of_both_arms(self, macro_doc):
        bench = macro_doc["benches"][0]
        assert bench["sequential_peak_rss_mb"] > 0
        assert bench["parallel_worker_peak_rss_mb"] > 0

    def test_document_is_json_serialisable(self, macro_doc, tmp_path):
        path = tmp_path / "BENCH_macro.json"
        write_bench_json(macro_doc, str(path))
        reloaded = json.loads(path.read_text(encoding="utf-8"))
        assert validate_macro_doc(reloaded) == [MACRO_BENCH_NAME]

    def test_format_table_mentions_speedup_and_host(self, macro_doc):
        text = format_macro_table(macro_doc)
        assert MACRO_BENCH_NAME in text
        assert "cpu_count" in text
        seq = macro_doc["benches"][0]["counts"]["sequential"]
        assert f"{seq['lk.solves']} track_features calls over {seq['lk.points']} points" in text
        assert " misses" in text
        worker = macro_doc["benches"][0]["parallel_worker_peak_rss_mb"]
        assert f"largest pool worker {worker:.1f} MiB" in text

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_macro_benchmark(jobs=1, repeats=1, quick=True)


class TestValidateMacroDoc:
    def test_rejects_missing_top_key(self, macro_doc):
        doc = copy.deepcopy(macro_doc)
        del doc["host"]
        with pytest.raises(ValueError, match="missing key 'host'"):
            validate_macro_doc(doc)

    def test_rejects_missing_cpu_count(self, macro_doc):
        doc = copy.deepcopy(macro_doc)
        del doc["host"]["cpu_count"]
        with pytest.raises(ValueError, match="cpu_count"):
            validate_macro_doc(doc)

    def test_rejects_non_identical_results(self, macro_doc):
        doc = copy.deepcopy(macro_doc)
        doc["benches"][0]["results_identical"] = False
        with pytest.raises(ValueError, match="result-identical"):
            validate_macro_doc(doc)

    def test_rejects_shard_failures(self, macro_doc):
        doc = copy.deepcopy(macro_doc)
        doc["benches"][0]["failures"] = 2
        with pytest.raises(ValueError, match="failures"):
            validate_macro_doc(doc)

    def test_rejects_non_positive_timing(self, macro_doc):
        doc = copy.deepcopy(macro_doc)
        doc["benches"][0]["parallel_best_s"] = 0.0
        with pytest.raises(ValueError, match="non-positive"):
            validate_macro_doc(doc)

    def test_rejects_missing_store_block(self, macro_doc):
        doc = copy.deepcopy(macro_doc)
        del doc["benches"][0]["store_budget_mb"]
        with pytest.raises(ValueError, match="missing key 'store_budget_mb'"):
            validate_macro_doc(doc)

    def test_rejects_missing_counts_block(self, macro_doc):
        doc = copy.deepcopy(macro_doc)
        del doc["benches"][0]["counts"]
        with pytest.raises(ValueError, match="missing key 'counts'"):
            validate_macro_doc(doc)

    @pytest.mark.parametrize(
        "key", ["sequential_peak_rss_mb", "parallel_worker_peak_rss_mb"]
    )
    def test_rejects_missing_or_zero_peak_rss(self, macro_doc, key):
        doc = copy.deepcopy(macro_doc)
        doc["benches"][0][key] = 0
        with pytest.raises(ValueError, match=f"non-positive {key}"):
            validate_macro_doc(doc)
        del doc["benches"][0][key]
        with pytest.raises(ValueError, match=f"missing key '{key}'"):
            validate_macro_doc(doc)

    @pytest.mark.parametrize("arm", ["sequential", "parallel"])
    def test_rejects_an_arm_that_solved_no_points(self, macro_doc, arm):
        doc = copy.deepcopy(macro_doc)
        doc["benches"][0]["counts"][arm]["lk.points"] = 0
        with pytest.raises(ValueError, match=f"{arm} arm solved no flow points"):
            validate_macro_doc(doc)
        del doc["benches"][0]["counts"][arm]["lk.points"]
        with pytest.raises(ValueError, match=f"{arm} arm solved no flow points"):
            validate_macro_doc(doc)

    def test_rejects_missing_effective_parallelism(self, macro_doc):
        doc = copy.deepcopy(macro_doc)
        del doc["benches"][0]["effective_parallelism"]
        with pytest.raises(ValueError, match="effective_parallelism"):
            validate_macro_doc(doc)

    def test_rejects_effective_parallelism_off_the_host(self, macro_doc):
        """A jobs=2 entry beside a 1-CPU host block is two runs' figures in
        one document."""
        doc = copy.deepcopy(macro_doc)
        doc["host"]["cpu_count"] = 1
        doc["benches"][0]["effective_parallelism"] = 2
        with pytest.raises(ValueError, match="effective_parallelism"):
            validate_macro_doc(doc)

    def test_min_speedup_gate(self, macro_doc):
        doc = copy.deepcopy(macro_doc)
        # Pin a multi-core host: the gate only applies where a pool can win.
        doc["host"]["cpu_count"] = 4
        doc["benches"][0]["effective_parallelism"] = 2
        doc["benches"][0]["speedup"] = 1.2
        with pytest.raises(ValueError, match="below required"):
            validate_macro_doc(doc, min_speedup=1.7)
        validate_macro_doc(doc, min_speedup=1.0)

    def test_min_speedup_gate_skipped_on_single_core(self, macro_doc, capsys):
        """On a 1-vCPU host the gate is waived, not failed — and the
        waiver is logged so CI transcripts show it was skipped."""
        doc = copy.deepcopy(macro_doc)
        doc["host"]["cpu_count"] = 1
        doc["benches"][0]["effective_parallelism"] = 1
        doc["benches"][0]["speedup"] = 0.8
        assert validate_macro_doc(doc, min_speedup=1.7) == [MACRO_BENCH_NAME]
        captured = capsys.readouterr()
        assert "skipping --min-speedup gate" in captured.err
        assert "cpu_count=1" in captured.err

    def test_min_speedup_gate_enforced_on_multi_core(self, macro_doc, capsys):
        doc = copy.deepcopy(macro_doc)
        doc["host"]["cpu_count"] = 2
        doc["benches"][0]["effective_parallelism"] = 2
        doc["benches"][0]["speedup"] = 0.8
        with pytest.raises(ValueError, match="below required"):
            validate_macro_doc(doc, min_speedup=1.7)
        assert "skipping" not in capsys.readouterr().err
