"""Counters, gauges, and histograms keyed by name + labels.

The registry hands out instruments on first use (Prometheus-style
get-or-create), so call sites never need to pre-declare what they record::

    registry.counter("buffer.dropped").inc()
    registry.histogram("mpdt.cycle_latency", setting="yolov3-512").observe(0.31)

Instruments sharing a name but differing in labels are distinct series.
All mutation is lock-protected — the live executor records from three
threads at once — and the locks are per-instrument so hot counters do not
serialise against each other.
"""

from __future__ import annotations

import threading
from typing import Any

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared identity (name + labels) and lock for all instrument kinds."""

    kind = "instrument"

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()

    def _values(self) -> dict[str, Any]:  # pragma: no cover - overridden
        raise NotImplementedError

    def to_dict(self) -> dict[str, Any]:
        with self._lock:
            record: dict[str, Any] = {"kind": self.kind, "name": self.name}
            if self.labels:
                record["labels"] = dict(self.labels)
            record.update(self._values())
            return record


class Counter(_Instrument):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey) -> None:
        super().__init__(name, labels)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge for deltas")
        with self._lock:
            self.value += amount

    def _values(self) -> dict[str, Any]:
        return {"value": self.value}


class Gauge(_Instrument):
    """A point-in-time value (buffer occupancy, learned threshold, …)."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey) -> None:
        super().__init__(name, labels)
        self.value: float = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self.value += float(delta)

    def _values(self) -> dict[str, Any]:
        return {"value": self.value}


class Histogram(_Instrument):
    """Streaming distribution summary: count/total/min/max + buckets.

    Bucket bounds are upper-inclusive edges; one overflow bucket catches
    the rest.  The defaults span 1 ms .. 10 s, a good fit for the repo's
    latency quantities (seconds).
    """

    kind = "histogram"

    DEFAULT_BOUNDS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 10.0)

    def __init__(
        self, name: str, labels: LabelKey, bounds: tuple[float, ...] | None = None
    ) -> None:
        super().__init__(name, labels)
        self.bounds = tuple(bounds) if bounds is not None else self.DEFAULT_BOUNDS
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self.bucket_counts[i] += 1
                    break
            else:
                self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def _values(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.total / self.count if self.count else 0.0,
            "bounds": list(self.bounds),
            "buckets": list(self.bucket_counts),
        }


class MetricsRegistry:
    """Get-or-create instrument store, safe for concurrent callers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[tuple[str, str, LabelKey], _Instrument] = {}

    def _get(self, kind: type[_Instrument], name: str, labels: dict[str, Any], **kwargs):
        key = (kind.kind, name, _label_key(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = kind(name, key[2], **kwargs)
                self._instruments[key] = instrument
            return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, bounds: tuple[float, ...] | None = None, **labels: Any
    ) -> Histogram:
        return self._get(Histogram, name, labels, bounds=bounds)

    def instruments(self) -> list[_Instrument]:
        """Stable listing (by kind, name, labels) of everything recorded."""
        with self._lock:
            items = sorted(self._instruments.items(), key=lambda kv: kv[0])
            return [instrument for _, instrument in items]

    def counts(self) -> dict[str, int]:
        """Every counter's value by name, summed over its labels."""
        counts: dict[str, int] = {}
        for instrument in self.instruments():
            if isinstance(instrument, Counter):
                counts[instrument.name] = counts.get(instrument.name, 0) + instrument.value
        return counts

    def snapshot(self) -> list[dict[str, Any]]:
        """JSON-friendly dump of every instrument's current state."""
        return [instrument.to_dict() for instrument in self.instruments()]

    def find(self, name: str, **labels: Any) -> _Instrument | None:
        """Look up an instrument without creating it (test helper)."""
        key_labels = _label_key(labels)
        with self._lock:
            for (kind, iname, ilabels), instrument in self._instruments.items():
                if iname == name and (not labels or ilabels == key_labels):
                    return instrument
        return None


# The process's one account of pixel work: the frame store's hits,
# misses and evictions per kind, Lucas-Kanade requests, merged steps,
# solves and points, and seed requests and boxes seeded.  Each call site
# resolves its counters here once, at import, and increments them once
# per event; a sweep cell or a CLI run diffs two :meth:`~MetricsRegistry.counts`
# snapshots (:func:`work_since`).  See DESIGN.md §6.
WORK = MetricsRegistry()


def work_since(before: dict[str, int]) -> dict[str, int]:
    """The work :data:`WORK` counted since the ``before`` snapshot, by name."""
    return {name: value - before.get(name, 0) for name, value in WORK.counts().items()}
