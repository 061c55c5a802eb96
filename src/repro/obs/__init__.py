"""Pipeline observability: tracing spans, metrics, and pluggable sinks.

The paper's claims are latency claims, so the repro needs to *see* where
time goes.  This package is the measurement substrate: pipelines accept an
optional ``obs=Telemetry(...)`` and emit spans (detection cycles, feature
seeding, tracker steps) and metrics (drops, cancellations, per-setting
cycle-latency histograms) into it.  The default is :data:`NULL_TELEMETRY`,
a no-op — experiments run bit-identical with observability off.

Typical use::

    from repro.obs import InMemorySink, Telemetry

    obs = Telemetry(InMemorySink())
    run = MPDTPipeline(policy, obs=obs).run(clip)
    obs.flush()
    print(obs.summary())

See DESIGN.md §6 for the span/metric naming scheme.
"""

from repro.obs.metrics import WORK, Counter, Gauge, Histogram, MetricsRegistry, work_since
from repro.obs.sinks import InMemorySink, JsonlSink, NullSink, Sink, render_summary
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs.trace import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JsonlSink",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "NullSink",
    "Sink",
    "Span",
    "Telemetry",
    "Tracer",
    "WORK",
    "render_summary",
    "work_since",
]
