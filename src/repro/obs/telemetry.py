"""The :class:`Telemetry` facade every pipeline hook talks to.

One object bundles a :class:`~repro.obs.trace.Tracer`, a
:class:`~repro.obs.metrics.MetricsRegistry`, and a sink.  Pipelines take an
optional ``obs`` argument; when the caller passes nothing they get
:data:`NULL_TELEMETRY`, whose every operation is a cheap no-op, so the
deterministic experiment paths pay (almost) nothing and produce
bit-identical outputs with observability compiled out of the picture.

Thread-safety: everything a pipeline can reach from here is safe to call
concurrently — the live executor records from its camera, detector, and
tracker threads through one shared instance.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.sinks import NullSink, Sink, render_summary
from repro.obs.trace import Span, Tracer


class Telemetry:
    """Tracer + metrics + sink, wired together."""

    def __init__(
        self, sink: Sink | None = None, clock: Callable[[], float] | None = None
    ) -> None:
        self.sink: Sink = sink if sink is not None else NullSink()
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(self.sink, clock=clock)

    @property
    def enabled(self) -> bool:
        """False only for the shared no-op instance."""
        return True

    # -- tracing shortcuts ---------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Wall-clock span context manager (threaded executor, training)."""
        return self.tracer.span(name, **attrs)

    def record_span(
        self, name: str, start: float, end: float, **attrs: Any
    ) -> Span | None:
        """Virtual-time span with caller-measured stamps (simulators)."""
        return self.tracer.record_span(name, start, end, **attrs)

    # -- metrics shortcuts ---------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self.metrics.gauge(name, **labels)

    def histogram(
        self, name: str, bounds: tuple[float, ...] | None = None, **labels: Any
    ) -> Histogram:
        return self.metrics.histogram(name, bounds=bounds, **labels)

    def add_counts(self, counts: dict[str, int]) -> None:
        """Add each ``name: value`` of ``counts`` to that counter (see
        :func:`~repro.obs.metrics.work_since`)."""
        for name, value in counts.items():
            self.counter(name).inc(value)

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> None:
        """Push the current metrics snapshot to the sink."""
        self.sink.record_metrics(self.metrics.snapshot())

    def summary(self) -> str:
        """Human-readable report of everything recorded so far."""
        from repro.obs.sinks import InMemorySink

        spans = self.sink.spans if isinstance(self.sink, InMemorySink) else None
        return render_summary(self.metrics.snapshot(), spans)


class _NullCounter(Counter):
    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass


class _NullHistogram(Histogram):
    def observe(self, value: float) -> None:
        pass


class _NullTelemetry(Telemetry):
    """Observability off: every record call is a no-op.

    Shared singletons are safe because the null instruments never mutate;
    hot loops skip even the get-or-create dictionary lookup.
    """

    def __init__(self) -> None:
        super().__init__(NullSink())
        self._counter = _NullCounter("null", ())
        self._gauge = _NullGauge("null", ())
        self._histogram = _NullHistogram("null", ())

    @property
    def enabled(self) -> bool:
        return False

    @contextmanager
    def _null_span(self) -> Iterator[Span]:
        yield self._NULL_SPAN

    _NULL_SPAN = Span(name="null", start=0.0, end=0.0, span_id=0)

    def span(self, name: str, **attrs: Any):
        return self._null_span()

    def record_span(
        self, name: str, start: float, end: float, **attrs: Any
    ) -> Span | None:
        return None

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._counter

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._gauge

    def histogram(
        self, name: str, bounds: tuple[float, ...] | None = None, **labels: Any
    ) -> Histogram:
        return self._histogram

    def flush(self) -> None:
        pass


NULL_TELEMETRY = _NullTelemetry()
