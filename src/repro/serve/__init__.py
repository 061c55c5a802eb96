"""Multi-stream serving layer: N simulated camera streams, one detector.

The paper adapts one camera on one device; this package is the
production-scale counterpart — an event-driven scheduler that multiplexes
hundreds of :class:`SimStream` instances over a shared detector through a
QoS-classed :class:`AdmissionQueue` with batching and watermark-driven
backpressure, all on the deterministic runtime clock so a seeded
500-stream run is bit-identically replayable.  The scheduler is the
queue's one consumer and drives it from a single thread.  See DESIGN.md
§11.
"""

from repro.serve.admission import (
    QOS_BEST_EFFORT,
    QOS_CLASSES,
    QOS_PRIORITY,
    QOS_REALTIME,
    AdmissionQueue,
    DetectionRequest,
    QueueCounters,
)
from repro.serve.detector import (
    BatchDetectorModel,
    SharedDetectorModel,
    SpikyDetectorModel,
)
from repro.serve.report import ClassReport, FleetReport, StreamReport, nearest_rank
from repro.serve.scheduler import (
    ServeConfig,
    ServeScheduler,
    fleet_configs,
    serve_fleet,
)
from repro.serve.streams import SimStream, StreamConfig, StreamWorkload

__all__ = [
    "AdmissionQueue",
    "BatchDetectorModel",
    "ClassReport",
    "DetectionRequest",
    "FleetReport",
    "QOS_BEST_EFFORT",
    "QOS_CLASSES",
    "QOS_PRIORITY",
    "QOS_REALTIME",
    "QueueCounters",
    "ServeConfig",
    "ServeScheduler",
    "SharedDetectorModel",
    "SimStream",
    "SpikyDetectorModel",
    "StreamConfig",
    "StreamReport",
    "StreamWorkload",
    "fleet_configs",
    "nearest_rank",
    "serve_fleet",
]
