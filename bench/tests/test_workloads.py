"""End-to-end checks of the workloads at a tiny size, in fresh processes."""

import shutil
import subprocess
import sys

import pytest

from bench import runner
from bench.workloads import WORKLOADS, cell_record, digest, pipeline_config


@pytest.fixture(scope="module")
def tiny_traced():
    """One traced run (an untraced and a traced rep) of every workload."""
    return {
        name: runner.run_workload(name, seed=0, seconds=0, traced=True, tiny=True)
        for name in WORKLOADS
    }


def test_every_workload_passes_its_checks(tiny_traced):
    for name, result in tiny_traced.items():
        assert result["correct"], (name, result["problems"])
        assert result["failed"] == 0 and result["attempted"] > 0
        assert result["absent"] == []


def test_emitted_metrics_equal_the_declared_ones(tiny_traced):
    declaration = runner.load_declaration()
    e2e = [m["name"] for m in declaration["end_to_end"]]
    per_layer = [m["name"] for m in declaration["per_layer"]]
    for result in tiny_traced.values():
        assert list(result["e2e"]) == e2e
        assert list(result["layers"]) == per_layer
        assert all(result["e2e"][name]["value"] > 0 for name in e2e)


def test_every_per_layer_metric_is_measured_by_some_workload(tiny_traced):
    reps = [rep for result in tiny_traced.values() for rep in result["reps"] if rep["traced"]]
    unmeasured = []
    for metric in runner.load_declaration()["per_layer"]:
        name = metric["name"]
        if name == "trace.overhead_frac" or any(name in rep["counters"] for rep in reps):
            continue
        spans = {
            name[: -len(suffix)]
            for suffix, _ in runner._SPAN_SUFFIXES
            if name.endswith(suffix)
        }
        if not any(span in rep["spans"] for rep in reps for span in spans):
            unmeasured.append(name)
    assert unmeasured == []


def test_layer_self_times_cover_the_cell_time(tiny_traced):
    for name, result in tiny_traced.items():
        assert result["layers"]["trace.unattributed_frac"]["value"] <= 0.05, name


def test_same_seed_same_digest():
    first = runner.run_workload("serve-fleet", seed=3, seconds=0, traced=False, tiny=True, min_reps=1)
    second = runner.run_workload("serve-fleet", seed=3, seconds=0, traced=False, tiny=True, min_reps=1)
    assert first["digest"] is not None and first["digest"] == second["digest"]


def test_different_seed_different_inputs():
    from repro.video.framestore import scene_fingerprint

    for name, workload in WORKLOADS.items():
        inputs = [workload.inputs(seed, tiny=True) for seed in (0, 1)]
        if workload.kind == "sweep":
            keys = [[scene_fingerprint(c.scene) for c in suite.clips] for _, suite in inputs]
        elif workload.kind == "clips":
            keys = [[scene_fingerprint(c.scene) for c in clips] for clips in inputs]
        else:
            keys = [[s.seed for fleet in fleets for s in fleet] for fleets, _ in inputs]
        assert keys[0] != keys[1], name


def test_pool_digest_equals_in_process_digest():
    from repro.experiments import runners
    from repro.parallel import SweepEngine

    from bench import cell

    methods, suite = WORKLOADS["fig6-reuse"].inputs(seed=0, tiny=True)
    config = pipeline_config(frame_store_mb=64, artifact_store_mb=128)
    settled = []
    with SweepEngine(jobs=2) as engine:
        sweep = engine.run(
            methods, suite, config=config,
            progress=lambda done, total, result: settled.append(result),
            shard_runner=cell.run_cell,
        )
    assert sweep.ok
    pooled = [
        cell_record(r.method, r.clip_name, r.accuracy, r.mean_f1, r.activity)
        for r in sorted(settled, key=lambda r: r.index)
    ]
    plain = []
    for method in methods:
        for clip in suite.clips:
            run = runners.run_method_on_clip(runners.make_method(method), clip)
            accuracy, f1 = runners.evaluate_run(run, clip)
            plain.append(cell_record(method, clip.name, accuracy, float(f1.mean()), run.activity))
    assert pooled == plain
    assert digest(pooled) == digest(plain)


def test_store_budgets_follow_the_config_fields():
    config = pipeline_config(frame_store_mb=3, no_such_budget_mb=5)
    assert config.frame_store_mb == 3


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(runner.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(runner.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "clip-stream", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
