"""Harness unit tests: timing estimator, document schema, validation."""

import pytest

from repro.perf.harness import (
    SCHEMA_VERSION,
    BenchResult,
    Measurement,
    build_document,
    format_table,
    time_callable,
    time_interleaved,
    validate_bench_doc,
)


def _measurement(best=0.002, number=1):
    return Measurement(repeats=3, number=number, best_s=best, mean_s=best * 1.1)


def _result(name="demo", reference_best=None):
    return BenchResult(
        name=name,
        hot_path="repro.demo.path",
        workload={"seed": 7},
        optimized=_measurement(),
        reference=None if reference_best is None else _measurement(reference_best),
    )


class TestTimeCallable:
    def test_counts_calls(self):
        calls = []
        m = time_callable(lambda: calls.append(1), repeats=4, number=5)
        # warm-up + repeats * number
        assert len(calls) == 1 + 4 * 5
        assert m.repeats == 4 and m.number == 5
        assert 0 <= m.best_s <= m.mean_s
        assert m.per_call_s == m.best_s / 5

    @pytest.mark.parametrize("repeats, number", [(0, 1), (1, 0)])
    def test_rejects_non_positive(self, repeats, number):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=repeats, number=number)


class TestTimeInterleaved:
    def test_arms_take_turns_within_each_repeat(self):
        calls = []
        a, b = time_interleaved(
            [lambda: calls.append("a"), lambda: calls.append("b")],
            repeats=3,
            number=2,
        )
        # One warm-up each, then a's and b's calls alternate by repeat.
        assert calls == ["a", "b"] + ["a", "a", "b", "b"] * 3
        for m in (a, b):
            assert m.repeats == 3 and m.number == 2
            assert 0 <= m.best_s <= m.mean_s


class TestBenchResult:
    def test_speedup_is_reference_over_optimized(self):
        result = _result(reference_best=0.006)
        assert result.speedup_vs_reference == pytest.approx(3.0)

    def test_no_reference_means_no_speedup(self):
        result = _result()
        assert result.speedup_vs_reference is None
        assert result.to_json()["reference_per_call_s"] is None


class TestDocumentValidation:
    def _doc(self, **overrides):
        results = [_result("a", 0.004), _result("b")]
        doc = build_document([r.to_json() for r in results], quick=True)
        doc.update(overrides)
        return doc

    def test_valid_document_passes(self):
        assert validate_bench_doc(self._doc()) == ["a", "b"]

    def test_missing_top_key_rejected(self):
        doc = self._doc()
        del doc["host"]
        with pytest.raises(ValueError, match="host"):
            validate_bench_doc(doc)

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(ValueError, match="schema_version"):
            validate_bench_doc(self._doc(schema_version=SCHEMA_VERSION + 1))

    def test_wrong_clock_rejected(self):
        with pytest.raises(ValueError, match="clock"):
            validate_bench_doc(self._doc(clock="virtual"))

    def test_empty_benches_rejected(self):
        with pytest.raises(ValueError, match="no benches"):
            validate_bench_doc(self._doc(benches=[]))

    def test_missing_bench_key_rejected(self):
        doc = self._doc()
        del doc["benches"][0]["speedup_vs_reference"]
        with pytest.raises(ValueError, match="speedup_vs_reference"):
            validate_bench_doc(doc)

    def test_non_positive_timing_rejected(self):
        doc = self._doc()
        doc["benches"][1]["optimized_per_call_s"] = 0.0
        with pytest.raises(ValueError, match="non-positive timing"):
            validate_bench_doc(doc)

    def test_duplicate_names_rejected(self):
        same = _result("same").to_json()
        doc = build_document([same, dict(same)], quick=True)
        with pytest.raises(ValueError, match="not unique"):
            validate_bench_doc(doc)

    def test_table_mentions_every_bench(self):
        table = format_table(self._doc())
        assert "a" in table and "b" in table and "speedup" in table
