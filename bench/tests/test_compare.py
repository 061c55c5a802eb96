"""Verdicts of ``python -m bench compare`` on synthetic run series."""

import json

from bench import compare
from bench.runner import load_declaration


def test_regression_beyond_the_bound():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    head = [80.0, 81.0, 79.0, 80.5, 79.5]
    assert compare.verdict(base, head, "higher", 0.1)["verdict"] == "REGRESSION"
    assert compare.verdict(base, head, "lower", 0.1)["verdict"] == "gain"


def test_small_change_is_within_bound():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    head = [98.0, 103.0, 97.0, 100.0, 101.0]
    assert compare.verdict(base, head, "higher", 0.1)["verdict"] == "within bound"


def test_gain_needs_nine_tenths_of_pairs():
    base = [100.0] * 10
    head = [95.0] * 8 + [100.0, 105.0]
    assert compare.verdict(base, head, "lower", 0.1)["verdict"] == "within bound"
    head = [95.0] * 9 + [100.0]
    assert compare.verdict(base, head, "lower", 0.1)["verdict"] == "gain"


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    base = [60.0, 100.0, 140.0, 80.0, 120.0]
    head = [50.0, 90.0, 130.0, 70.0, 110.0]
    assert compare.verdict(base, head, "higher", 0.1)["verdict"] == "unresolved"
    head = [150.0, 160.0, 170.0, 155.0, 165.0]
    assert compare.verdict(base, head, "higher", 0.1)["verdict"] == "better"


def test_compare_reads_run_documents(tmp_path):
    declaration = load_declaration()
    metric = declaration["end_to_end"][1]["name"]

    def doc(created, value, accuracy):
        return {
            "created_unix": created,
            "workloads": {
                "clip-stream": {
                    "e2e": {metric: {"value": value, "unit": "1/s"}},
                    "outputs": {"adavp_accuracy": accuracy},
                }
            },
        }

    (tmp_path / "base").mkdir()
    (tmp_path / "head").mkdir()
    for i in range(3):
        (tmp_path / "base" / f"{i}.json").write_text(json.dumps(doc(i, 100.0 + i, 0.5)))
        (tmp_path / "head" / f"{i}.json").write_text(json.dumps(doc(i, 101.0 + i, 0.5)))
    lines, bad = compare.compare(str(tmp_path / "base"), str(tmp_path / "head"))
    assert not bad
    assert any(metric in line and "within bound" in line for line in lines)
    (tmp_path / "head" / "0.json").write_text(json.dumps(doc(0, 101.0, 0.6)))
    lines, bad = compare.compare(str(tmp_path / "base"), str(tmp_path / "head"))
    assert bad and any("CHANGED" in line for line in lines)
