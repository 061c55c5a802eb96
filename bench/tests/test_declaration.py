"""BENCHMARK.json keeps its declared shape and names what the code runs."""

import re

from bench.runner import OUTPUTS, load_declaration
from bench.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_top_level_keys_and_limits():
    doc = load_declaration()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"]
    assert doc["command"][:1] == ["python3"] and len(doc["command"]) <= 32
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128


def test_names_units_and_keys():
    doc = load_declaration()
    names = []
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert metric["better"] in ("lower", "higher")
        assert UNIT.fullmatch(metric["unit"]), metric
        names.append(metric["name"])
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))


def test_setup_time_has_the_largest_bound():
    metrics = {m["name"]: m for m in load_declaration()["end_to_end"]}
    setup = metrics["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in metrics.values())


def test_declared_workloads_are_the_ones_defined():
    assert [w["name"] for w in load_declaration()["workloads"]] == list(WORKLOADS)


def test_model_outputs_are_per_layer_metrics():
    per_layer = {m["name"] for m in load_declaration()["per_layer"]}
    assert OUTPUTS <= per_layer
