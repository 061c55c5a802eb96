"""Unit tests for sinks, the telemetry facade, and the summary renderer."""

import io
import json

from repro.obs import (
    NULL_TELEMETRY,
    InMemorySink,
    JsonlSink,
    NullSink,
    Sink,
    Telemetry,
    render_summary,
)


class TestNullTelemetry:
    def test_disabled_and_silent(self):
        assert not NULL_TELEMETRY.enabled
        NULL_TELEMETRY.counter("c").inc()
        NULL_TELEMETRY.gauge("g").set(1.0)
        NULL_TELEMETRY.histogram("h").observe(0.5)
        NULL_TELEMETRY.record_span("s", 0.0, 1.0)
        with NULL_TELEMETRY.span("s"):
            pass
        NULL_TELEMETRY.flush()
        assert NULL_TELEMETRY.metrics.snapshot() == []

    def test_sinks_satisfy_protocol(self):
        assert isinstance(NullSink(), Sink)
        assert isinstance(InMemorySink(), Sink)
        assert isinstance(JsonlSink(io.StringIO()), Sink)


class TestInMemorySink:
    def test_collects_spans_and_snapshots(self):
        sink = InMemorySink()
        obs = Telemetry(sink)
        assert obs.enabled
        obs.record_span("a", 0.0, 1.0)
        obs.record_span("b", 1.0, 2.0)
        obs.counter("c").inc(3)
        obs.flush()
        assert [s.name for s in sink.spans] == ["a", "b"]
        (record,) = sink.last_metrics()
        assert record["name"] == "c" and record["value"] == 3


class TestJsonlSink:
    def test_writes_valid_jsonl(self):
        stream = io.StringIO()
        obs = Telemetry(JsonlSink(stream))
        obs.record_span("cycle", 0.5, 1.0, frame=3)
        obs.histogram("lat", setting="yolov3-512").observe(0.4)
        obs.flush()
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert len(lines) == 2
        span, hist = lines
        assert span["kind"] == "span" and span["attrs"]["frame"] == 3
        assert hist["kind"] == "histogram"
        assert hist["labels"] == {"setting": "yolov3-512"}
        assert hist["count"] == 1

    def test_path_target_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        obs = Telemetry(sink)
        obs.record_span("x", 0.0, 1.0)
        obs.counter("n").inc()
        obs.flush()
        sink.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert {r["kind"] for r in records} == {"span", "counter"}


class TestSummary:
    def test_empty(self):
        assert render_summary([], []) == "(no telemetry recorded)"

    def test_lists_spans_and_metrics(self):
        obs = Telemetry(InMemorySink())
        obs.record_span("mpdt.detect", 0.0, 0.4)
        obs.record_span("mpdt.detect", 0.4, 0.9)
        obs.counter("mpdt.cycles").inc(2)
        obs.histogram("mpdt.cycle_latency", setting="yolov3-512").observe(0.4)
        text = obs.summary()
        assert "mpdt.detect" in text
        assert "counter=2" in text
        assert "mpdt.cycle_latency{setting=yolov3-512}" in text
