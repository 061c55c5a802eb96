"""Detector admission control for the multi-stream serving layer.

Every detector invocation in the fleet flows through one
:class:`AdmissionQueue`.  The queue implements the serving layer's three
scheduling promises, each of which is pinned by a hypothesis property
suite (``tests/serve/test_admission_properties.py``):

- **priority**: a ``realtime`` request is never dispatched after a
  ``best_effort`` request that was admitted while it waited — batches are
  always assembled from the highest-priority non-empty class;
- **FIFO within a class**: requests of the same QoS class are dispatched
  in admission order, with no skipping (a batch is a *consecutive prefix*
  of the class queue, cut where the detector setting changes, because a
  real batched DNN can only stack inputs of one size);
- **conservation**: nothing vanishes.  ``submitted == admitted +
  rejected`` and ``admitted == dispatched + shed + depth`` at every
  quiescent point.  A request leaves the queue only by being dispatched
  or by an *explicit* drop that the caller is told about (the return
  value of :meth:`AdmissionQueue.submit` carries any shed victim, so the
  owning stream can be notified and resubmit later).

Overload policy: when the queue is full an incoming ``best_effort``
request is rejected outright, while an incoming ``realtime`` request
sheds the *newest* queued ``best_effort`` request (freshest work has the
least sunk waiting time); if no ``best_effort`` request is queued the
realtime request is rejected too.  Nothing is ever dropped silently.
:meth:`AdmissionQueue.refuses` is that rejection rule, so a caller can
ask it before it builds a request and count the refusal with
:meth:`AdmissionQueue.reject`, which takes a count.  Until a batch is
popped, a full queue stays full (a shed swaps one request for another)
and gains no ``best_effort`` request, so it keeps refusing every class
it refuses now; a caller that knows no pop comes before a stream's next
few submits can count their refusals at once.

The queue is driven from one thread, by the deterministic scheduler,
and takes no locks.  Total depth is a running count (admit adds one, a
shed victim takes one away, a batch pop takes its length), so
:meth:`AdmissionQueue.depth` is O(1);
:meth:`AdmissionQueue.check_conservation` cross-checks it against the
class queues' lengths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

QOS_REALTIME = "realtime"
QOS_BEST_EFFORT = "best_effort"

# Dispatch order: lower number first.  The tuple is the canonical class
# iteration order used everywhere (queue, reports, benches).
QOS_CLASSES: tuple[str, ...] = (QOS_REALTIME, QOS_BEST_EFFORT)
QOS_PRIORITY: dict[str, int] = {qos: rank for rank, qos in enumerate(QOS_CLASSES)}


@dataclass(frozen=True, slots=True)
class DetectionRequest:
    """One stream's ask for a shared-detector invocation."""

    stream_id: int
    frame_index: int
    qos: str
    setting: str
    num_objects: int
    submitted_at: float

    def __post_init__(self) -> None:
        if self.qos not in QOS_CLASSES:
            raise ValueError(
                f"unknown QoS class {self.qos!r}; known: {', '.join(QOS_CLASSES)}"
            )
        if self.num_objects < 0:
            raise ValueError("num_objects must be non-negative")


@dataclass
class QueueCounters:
    """Conservation ledger; every request ends in exactly one bucket."""

    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    shed: int = 0
    dispatched: int = 0


class AdmissionQueue:
    """Bounded, QoS-classed, batch-assembling detector queue."""

    def __init__(self, max_depth: int = 256) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self._queues: dict[str, deque[DetectionRequest]] = {
            qos: deque() for qos in QOS_CLASSES
        }
        self._depth = 0
        self.counters = QueueCounters()

    # -- depth -----------------------------------------------------------------

    def depth(self) -> int:
        return self._depth

    def depth_of(self, qos: str) -> int:
        return len(self._queues[qos])

    # -- admission -------------------------------------------------------------

    def refuses(self, qos: str) -> bool:
        """Whether a request of class ``qos`` submitted now is rejected:
        the queue is full and the request cannot shed a ``best_effort``
        one (it is ``best_effort`` itself, or none is queued).

        The single admission rule: :meth:`submit` applies it, and a
        caller that asks first can refuse without building a request.
        """
        return self._depth >= self.max_depth and (
            qos != QOS_REALTIME or not self._queues[QOS_BEST_EFFORT]
        )

    def reject(self, count: int = 1) -> None:
        """Count ``count`` refused submissions (see :meth:`refuses`)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        self.counters.submitted += count
        self.counters.rejected += count

    def submit(
        self, request: DetectionRequest
    ) -> tuple[bool, DetectionRequest | None]:
        """Offer a request; returns ``(admitted, shed_victim)``.

        ``admitted`` is False when the request was rejected (queue full,
        nothing sheddable).  ``shed_victim`` is the previously admitted
        ``best_effort`` request this admission evicted, if any — the
        caller must notify the victim's stream, which is what makes the
        drop explicit rather than silent.
        """
        if self.refuses(request.qos):
            self.reject()
            return False, None
        self.counters.submitted += 1
        shed: DetectionRequest | None = None
        if self._depth >= self.max_depth:
            # Full, and not refused: a realtime request sheds the newest
            # best_effort one (least sunk waiting time).
            shed = self._queues[QOS_BEST_EFFORT].pop()
            self._depth -= 1
            self.counters.shed += 1
        self._queues[request.qos].append(request)
        self._depth += 1
        self.counters.admitted += 1
        return True, shed

    # -- batch assembly --------------------------------------------------------

    def next_batch(self, max_batch: int) -> list[DetectionRequest]:
        """Pop the next batch (possibly empty).

        The batch comes from the highest-priority non-empty class and is
        the longest consecutive prefix of that class's queue sharing one
        detector setting, capped at ``max_batch`` — batched inference
        needs one input size, and taking a strict prefix is what keeps
        per-class FIFO exact.
        """
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        for qos in QOS_CLASSES:
            queue = self._queues[qos]
            if not queue:
                continue
            batch = [queue.popleft()]
            setting = batch[0].setting
            while queue and len(batch) < max_batch and queue[0].setting == setting:
                batch.append(queue.popleft())
            self._depth -= len(batch)
            self.counters.dispatched += len(batch)
            return batch
        return []

    # -- invariants ------------------------------------------------------------

    def check_conservation(self) -> None:
        """Assert the ledger balances; raises AssertionError if not.

        Called by tests and by the scheduler at end of run — a violation
        means a request was lost or double-counted somewhere, or that the
        running depth drifted from the class queues it counts.
        """
        c = self.counters
        if c.submitted != c.admitted + c.rejected:
            raise AssertionError(
                f"admission ledger broken: submitted={c.submitted} != "
                f"admitted={c.admitted} + rejected={c.rejected}"
            )
        depth = sum(len(queue) for queue in self._queues.values())
        if self._depth != depth:
            raise AssertionError(
                f"running depth {self._depth} != queued requests {depth}"
            )
        if c.admitted != c.dispatched + c.shed + depth:
            raise AssertionError(
                f"conservation broken: admitted={c.admitted} != "
                f"dispatched={c.dispatched} + shed={c.shed} + depth={depth}"
            )
