"""Where telemetry goes: no-op (default), in-memory, or a JSONL file.

Sinks receive finished spans as they complete and the metrics snapshot at
:meth:`~repro.obs.Telemetry.flush` time.  The default :class:`NullSink`
discards everything — experiments run with it so their outputs stay
bit-identical whether or not the observability layer exists; recording
never feeds back into the pipelines.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Protocol, TextIO, runtime_checkable

from repro.obs.trace import Span


@runtime_checkable
class Sink(Protocol):
    """Destination for spans and metric snapshots."""

    def record_span(self, span: Span) -> None:
        """Called once per finished span, possibly from several threads."""
        ...

    def record_metrics(self, snapshot: list[dict[str, Any]]) -> None:
        """Called with the full registry snapshot when telemetry flushes."""
        ...


class NullSink:
    """Discards everything (the default: observability off)."""

    def record_span(self, span: Span) -> None:
        pass

    def record_metrics(self, snapshot: list[dict[str, Any]]) -> None:
        pass


class InMemorySink:
    """Collects spans and snapshots in lists — what tests assert against."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.spans: list[Span] = []
        self.metric_snapshots: list[list[dict[str, Any]]] = []

    def record_span(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def record_metrics(self, snapshot: list[dict[str, Any]]) -> None:
        with self._lock:
            self.metric_snapshots.append(snapshot)

    def last_metrics(self) -> list[dict[str, Any]]:
        with self._lock:
            return self.metric_snapshots[-1] if self.metric_snapshots else []


class JsonlSink:
    """Appends one JSON object per span / per instrument to a file.

    Accepts a path (opened lazily, closed by :meth:`close`) or an already
    open text stream (left open — the caller owns it).
    """

    def __init__(self, target: str | TextIO) -> None:
        self._lock = threading.Lock()
        if isinstance(target, str):
            self._stream: TextIO = open(target, "w", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False

    def _write(self, record: dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            self._stream.write(line + "\n")

    def record_span(self, span: Span) -> None:
        self._write(span.to_dict())

    def record_metrics(self, snapshot: list[dict[str, Any]]) -> None:
        for record in snapshot:
            self._write(record)

    def close(self) -> None:
        with self._lock:
            self._stream.flush()
            if self._owns_stream:
                self._stream.close()


def render_summary(
    snapshot: list[dict[str, Any]], spans: list[Span] | None = None
) -> str:
    """Human-readable telemetry report (the ``repro obs`` output).

    Groups spans by name with count/total/mean duration, then lists every
    metric series.  Purely presentational — no aggregation beyond what the
    instruments already hold.
    """
    lines: list[str] = []
    if spans:
        by_name: dict[str, list[Span]] = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        lines.append("spans:")
        lines.append(f"  {'name':32s} {'count':>7} {'total_s':>10} {'mean_ms':>9}")
        for name in sorted(by_name):
            group = by_name[name]
            total = sum(span.duration for span in group)
            mean_ms = total / len(group) * 1e3
            lines.append(
                f"  {name:32s} {len(group):>7d} {total:>10.3f} {mean_ms:>9.2f}"
            )
    if snapshot:
        if lines:
            lines.append("")
        lines.append("metrics:")
        for record in snapshot:
            labels = record.get("labels")
            label_text = (
                "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                if labels
                else ""
            )
            name = f"{record['name']}{label_text}"
            if record["kind"] == "histogram":
                lines.append(
                    f"  {name:40s} count={record['count']:<6d} "
                    f"mean={record['mean']:.4f} min={record['min']} max={record['max']}"
                )
            else:
                lines.append(f"  {name:40s} {record['kind']}={record['value']}")
    if not lines:
        return "(no telemetry recorded)"
    return "\n".join(lines)
