"""Event-driven multi-stream serve scheduler.

:class:`ServeScheduler` multiplexes N :class:`~repro.serve.streams.SimStream`
instances over one shared detector on the deterministic discrete-event
queue (:class:`~repro.runtime.events.EventQueue`), so a seeded 500-stream
run replays bit-identically.  The model has two kinds of event:

- **frame arrival** (per stream, fps-spaced, phase-offset by stream id so
  a fleet does not beat in lockstep): buffer the frame and, when the
  stream is idle and due, submit a detection request to the admission
  queue and dispatch if the detector is idle;
- **batch completion**: deliver each result to its stream (which tracks
  its backlog and adapts its setting), then dispatch the next
  priority-ordered homogeneous batch, priced by the detector model.

Only *decisions* go through the heap.  A stream holds one heap entry, at
its next submitting arrival (the next frame on ``lk``, the next multiple
of its interval on a degraded tier), and none while its request is in
flight.  Every other arrival only counts a frame and buffers it, which is
closed-form in the arrival index, so those arrivals are applied in one
:meth:`SimStream.on_frame` catch-up at the moment something reads them:
the stream's result, its next admitted submit, a shed that makes it idle
again, a tier change, and the end of the run.  A refused submit is no
catch-up point.  The queue decides the refusal first
(:meth:`~repro.serve.admission.AdmissionQueue.refuses`), and a refusal
changes no depth, tier or in-flight state; it builds no request, attempts
no dispatch and leaves backpressure alone.  A full queue means a busy
detector, and until its batch completes the queue stays full and every
refusal stays a refusal, so a refused stream refuses its whole run of
submitting arrivals before that completion at once: one count, one
``drop`` line per refused frame at its own arrival time, and one re-arm
at the stream's first submitting arrival at or after the completion
(see :meth:`ServeScheduler._refuse_run`).  Same-instant events fire
in their *causal* order (see :class:`_Arrival`), the order a queue with
one event per arrival and insertion-order ties fires them in, so reports
equal those of that per-frame model
(:class:`~repro.perf.reference.ReferenceServeScheduler`) digest for
digest.

Backpressure is watermark-driven and walks the tracker tier ladder
(``lk`` → ``mve`` → ``keyframe``): queue depth ≥ ``degrade_mve_high``
drops ``best_effort`` streams to the MVE middle tier (fewer detections,
cheap block-motion tracking of the whole backlog), depth ≥
``degrade_high`` pushes them down to keyframe-only, depth ≥
``degrade_realtime_high`` degrades the whole fleet (``realtime`` to MVE,
``best_effort`` to keyframe-only), and depth ≤ ``recover_low`` restores
everyone to full LK tracking.  Degrading shrinks demand at the source
(fewer submissions), the shed/reject path bounds the queue, and nothing
ever blocks — the overloaded fleet slows down per-stream instead of
stalling collectively.

Observability: per-stream and fleet metrics flow through ``repro.obs``
(queue depth gauge, admission-wait histograms per class, drop counters
by reason, batch spans), and the returned
:class:`~repro.serve.report.FleetReport` carries the same numbers
computed from the scheduler's own ledger, so the obs layer remains a
pure observer (reconciliation is tested, as everywhere else in the repo).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from repro.obs import NULL_TELEMETRY, Telemetry
from repro.runtime.events import EventQueue
from repro.serve.admission import (
    QOS_BEST_EFFORT,
    QOS_CLASSES,
    QOS_REALTIME,
    AdmissionQueue,
    DetectionRequest,
)
from repro.serve.detector import BatchDetectorModel, SharedDetectorModel
from repro.serve.report import ClassReport, FleetReport, StreamReport, nearest_rank
from repro.serve.streams import SimStream, StreamConfig
from repro.tracking.tracker import TIER_KEYFRAME, TIER_LK, TIER_MVE

# Overload levels, in escalation order.
_LEVEL_NORMAL = 0
_LEVEL_BEST_EFFORT_MVE = 1
_LEVEL_BEST_EFFORT_KEYFRAME = 2
_LEVEL_ALL_DEGRADED = 3


def _tier_for(level: int, qos: str) -> str:
    """The tracker tier a stream of class ``qos`` runs at overload ``level``."""
    if level == _LEVEL_NORMAL:
        return TIER_LK
    if level == _LEVEL_BEST_EFFORT_MVE:
        return TIER_MVE if qos == QOS_BEST_EFFORT else TIER_LK
    if level == _LEVEL_BEST_EFFORT_KEYFRAME:
        return TIER_KEYFRAME if qos == QOS_BEST_EFFORT else TIER_LK
    return TIER_KEYFRAME if qos == QOS_BEST_EFFORT else TIER_MVE


@dataclass(frozen=True, slots=True)
class ServeConfig:
    """Fleet-wide scheduling knobs.

    The backpressure watermarks default to ``None`` = *scale with the
    fleet*: a stream keeps at most one request in flight, so queue depth
    is bounded by ``min(queue_depth, num_streams)`` and fixed absolute
    watermarks would be unreachable for small fleets and toothless for
    big ones.  :meth:`resolve_watermarks` turns ``None`` into 1/2
    (best-effort to MVE), 3/4 (best-effort to keyframe-only), 19/20
    (degrade everyone), and 3/16 (recover) of that effective bound.
    """

    duration_s: float = 10.0
    max_batch: int = 8
    queue_depth: int = 256
    # Backpressure watermarks on total queue depth; None = fleet-scaled.
    degrade_mve_high: int | None = None
    degrade_high: int | None = None
    degrade_realtime_high: int | None = None
    recover_low: int | None = None
    # Admission-wait SLOs per class (seconds from submit to dispatch).
    # A full batch at 512 is ~1.4 s of head-of-line blocking, so the
    # realtime promise is "dispatched within ~1.5 batch services"; below
    # that no contended fleet could ever attain the SLO.
    slo_realtime_s: float = 2.0
    slo_best_effort_s: float = 8.0
    # Requests submitted before this instant are served normally but
    # excluded from wait/SLO statistics: at t=0 every stream submits
    # within one frame period, and that thundering herd would otherwise
    # dominate the percentiles of short runs.
    warmup_s: float = 0.0
    detector_seed: int = 0
    batch_discount: float = 0.35
    # Hard cap on heap pops (decision events plus superseded entries); a
    # runaway guard far above any real run's count.
    max_events: int = 20_000_000

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.slo_realtime_s <= 0 or self.slo_best_effort_s <= 0:
            raise ValueError("SLOs must be positive")
        if self.warmup_s < 0 or self.warmup_s >= self.duration_s:
            raise ValueError("warmup_s must be in [0, duration_s)")

    def slo_for(self, qos: str) -> float:
        return self.slo_realtime_s if qos == QOS_REALTIME else self.slo_best_effort_s

    def resolve_watermarks(self, num_streams: int) -> tuple[int, int, int, int]:
        """``(degrade_mve_high, degrade_high, degrade_realtime_high,
        recover_low)`` for a fleet of ``num_streams``."""
        cap = min(self.queue_depth, max(num_streams, 1))
        high = self.degrade_high
        if high is None:
            high = max(8, (3 * cap) // 4)
        realtime_high = self.degrade_realtime_high
        if realtime_high is None:
            realtime_high = max(high + 1, (19 * cap) // 20)
        low = self.recover_low
        if low is None:
            low = max(2, min(high - 1, (3 * cap) // 16))
        mve_high = self.degrade_mve_high
        if mve_high is None:
            mve_high = max(low + 1, min(high, cap // 2))
        if not 0 < low < mve_high <= high <= realtime_high:
            raise ValueError(
                "watermarks must satisfy 0 < recover_low < degrade_mve_high "
                "<= degrade_high <= degrade_realtime_high, got "
                f"({low}, {mve_high}, {high}, {realtime_high})"
            )
        if realtime_high > self.queue_depth:
            raise ValueError("degrade_realtime_high cannot exceed queue_depth")
        return mve_high, high, realtime_high, low


class _Lane:
    """One stream's arrival clock and its entry in the event heap.

    Frame ``k`` arrives at ``origin + (k + 1) / fps``; arrivals after
    ``duration_s`` never happen, so the lane has ``count`` of them.
    ``generation`` marks which of the lane's pushed heap entries is live:
    a re-push supersedes every earlier one.
    """

    __slots__ = ("stream", "origin", "fps", "clock", "position", "count",
                 "generation")

    def __init__(self, stream: SimStream, position: int, duration_s: float) -> None:
        cfg = stream.config
        self.stream = stream
        # A per-stream phase offset spreads arrivals so 500 cameras do not
        # all tick on the same instant (which would serialize through the
        # tie-break and make batch composition degenerate).
        self.origin = cfg.start_at + (cfg.stream_id % 97) / 97.0 / cfg.fps
        self.fps = cfg.fps
        self.clock = (self.origin, self.fps)
        self.position = position
        self.count = self.arrived_by(duration_s)
        self.generation = 0

    def at(self, index: int) -> float:
        """The arrival time of frame ``index``."""
        return self.origin + (index + 1) / self.fps

    def arrived_by(self, now: float) -> int:
        """How many frames arrive at or before ``now``, ignoring the run's end."""
        index = max(-1, int((now - self.origin) * self.fps) - 1)
        while self.at(index + 1) <= now:
            index += 1
        while index >= 0 and self.at(index) > now:
            index -= 1
        return index + 1


class _Arrival:
    """Frame ``index`` of a lane, as a heap entry or as a causal ancestor.

    Causal order reproduces the tie-break of a queue with one event per
    arrival and insertion-order ties.  There, an event's insertion number
    is fixed by the event that scheduled it (its *parent*) and its place
    among that parent's schedules, so two events at one instant fire in
    the order of ``(parent, place)``, which recursively compares the
    parents' own instants and parents.  An
    arrival's parent is the stream's previous arrival (place 0), and
    frame 0's is the run start (place = the stream's position in the
    fleet).  A completion's parent is the event that dispatched its batch
    (place 1: an arrival schedules its successor before it dispatches).
    Arrival keys depend only on the lane's clock, so skipped arrivals
    keep their place without ever being pushed.
    """

    __slots__ = ("lane", "index", "generation")

    def __init__(self, lane: _Lane, index: int, generation: int = -1) -> None:
        self.lane = lane
        self.index = index
        self.generation = generation

    def at(self) -> float:
        return self.lane.at(self.index)

    def parent(self) -> tuple[_Event | None, int]:
        if self.index == 0:
            return None, self.lane.position
        return _Arrival(self.lane, self.index - 1), 0

    def __lt__(self, other: _Event) -> bool:
        return _fires_before(self, other)


class _Completion:
    """A dispatched batch's completion at ``time``; ``parent`` dispatched it."""

    __slots__ = ("time", "parent_event", "batch")

    def __init__(
        self, time: float, parent: _Event, batch: list[DetectionRequest]
    ) -> None:
        self.time = time
        self.parent_event = parent
        self.batch = batch

    def at(self) -> float:
        return self.time

    def parent(self) -> tuple[_Event | None, int]:
        return self.parent_event, 1

    def __lt__(self, other: _Event) -> bool:
        return _fires_before(self, other)


_Event = Union[_Arrival, _Completion]


def _fires_before(a: _Event, b: _Event) -> bool:
    """Whether ``a`` fires before ``b``, two events at one instant.

    Walks both parent chains in step while their instants tie, down to
    the first differing instant or shared parent.  Arrivals of two lanes
    with one clock tie all the way to the run start, so they short-cut to
    fleet position.
    """
    while True:
        if (
            type(a) is _Arrival
            and type(b) is _Arrival
            and a.index == b.index
            and a.lane.clock == b.lane.clock
        ):
            return a.lane.position < b.lane.position
        parent_a, place_a = a.parent()
        parent_b, place_b = b.parent()
        if parent_a is None or parent_b is None:
            if parent_a is parent_b:
                return place_a < place_b
            return parent_a is None
        if (
            parent_a is parent_b
            or type(parent_a) is _Arrival
            and type(parent_b) is _Arrival
            and parent_a.lane is parent_b.lane
            and parent_a.index == parent_b.index
        ):
            return place_a < place_b
        at_a, at_b = parent_a.at(), parent_b.at()
        if at_a != at_b:
            return at_a < at_b
        a, b = parent_a, parent_b


class ServeScheduler:
    """Runs one fleet of streams against one shared detector."""

    def __init__(
        self,
        streams: Sequence[StreamConfig],
        config: ServeConfig | None = None,
        detector: BatchDetectorModel | None = None,
        obs: Telemetry | None = None,
    ) -> None:
        if not streams:
            raise ValueError("need at least one stream")
        ids = [stream.stream_id for stream in streams]
        if len(set(ids)) != len(ids):
            raise ValueError("stream_ids must be unique")
        self.config = config or ServeConfig()
        self.obs = obs or NULL_TELEMETRY
        self.detector = detector or SharedDetectorModel(
            seed=self.config.detector_seed,
            batch_discount=self.config.batch_discount,
        )
        self.streams: dict[int, SimStream] = {
            cfg.stream_id: SimStream(cfg) for cfg in streams
        }
        (
            self.degrade_mve_high,
            self.degrade_high,
            self.degrade_realtime_high,
            self.recover_low,
        ) = self.config.resolve_watermarks(len(streams))
        self.queue = AdmissionQueue(max_depth=self.config.queue_depth)
        self.events = EventQueue()
        self._busy = False
        self._overload_level = _LEVEL_NORMAL
        self._overload_transitions: list[tuple[float, int]] = []
        self._waits: dict[str, list[float]] = {qos: [] for qos in QOS_CLASSES}
        self._slo_attained: dict[str, int] = {qos: 0 for qos in QOS_CLASSES}
        self._slo_eligible: dict[str, int] = {qos: 0 for qos in QOS_CLASSES}
        self._class_submitted: dict[str, int] = {qos: 0 for qos in QOS_CLASSES}
        self._class_served: dict[str, int] = {qos: 0 for qos in QOS_CLASSES}
        self._class_dropped: dict[str, int] = {qos: 0 for qos in QOS_CLASSES}
        self._batches = 0
        self._peak_depth = 0
        self._degrade_events = 0
        self._recover_events = 0
        self._tier_transitions = 0
        self._events_fired = 0
        self._end_time_s = 0.0
        self._heap_pops = 0
        self._lanes: dict[int, _Lane] = {
            stream_id: _Lane(stream, position, self.config.duration_s)
            for position, (stream_id, stream) in enumerate(self.streams.items())
        }
        # The event being fired; a catch-up compares same-instant
        # arrivals against it.
        self._current: _Event | None = None
        self._last_completion_s = 0.0
        # When the batch in flight completes; read while the detector is busy.
        self._completion_s = 0.0

    @property
    def heap_pops(self) -> int:
        """Entries popped off the event heap by :meth:`run`: the decision
        events plus entries a re-push superseded.  ``FleetReport.events_fired``
        counts modelled events instead (one per arrival and per batch)."""
        return self._heap_pops

    # -- event actions ---------------------------------------------------------
    #
    # Queue depth changes only on an admitted submit or a dispatch, and
    # every event that does either recomputes backpressure before it
    # returns.  An event that does neither (a refused submit, a completion
    # with nothing queued) skips the recompute: at an unchanged depth it
    # would change nothing (each overload level is a fixed point of its own
    # rule, the peak cannot rise, the gauge would be set to the same value).
    # Between events the detector is idle only when the queue is empty
    # (every admitted submit is followed by a dispatch attempt and every
    # completion dispatches again), so a frame that submits nothing
    # dispatches nothing, which is why such frames need no event of their
    # own, and a refused submit, which meets a full queue, finds the
    # detector busy.

    def _catch_up(self, lane: _Lane, now: float) -> None:
        """Apply the lane's arrivals that fire before the current event."""
        index = min(lane.count, lane.arrived_by(now)) - 1
        while (
            index >= 0
            and lane.at(index) == now
            and not _fires_before(_Arrival(lane, index), self._current)
        ):
            index -= 1
        if index >= lane.stream.frames_arrived:
            lane.stream.on_frame(index)

    def _schedule_next(self, lane: _Lane, first: int | None = None) -> None:
        """Give an idle stream a heap entry at its next submitting arrival.

        The search starts at arrival ``first``, the first one after the
        current event.  It defaults to the first arrival not yet applied,
        which is that one once the stream has been caught up.
        """
        stream = lane.stream
        if first is None:
            first = stream.frames_arrived
        index = stream.next_submit(first)
        lane.generation += 1
        if index < lane.count:
            event = _Arrival(lane, index, lane.generation)
            self.events.schedule_ordered(
                lane.at(index), event, self._on_arrival, event
            )

    def _on_arrival(self, now: float, event: _Arrival) -> None:
        lane = event.lane
        if event.generation != lane.generation:
            return  # superseded by a later push
        stream = lane.stream
        qos = stream.config.qos
        if self.queue.refuses(qos):
            self._refuse_run(lane, event.index, now)
            return
        self._current = event
        # Catch up the skipped arrivals and buffer this one, which submits.
        stream.on_frame(event.index)
        self._submit(stream, event.index, now)
        if not self._busy:
            self._maybe_dispatch(now)
        self._update_backpressure(now)

    def _refuse_run(self, lane: _Lane, index: int, now: float) -> None:
        """Refuse arrival ``index`` and the stream's later submitting
        arrivals before the in-flight batch completes, then re-arm.

        The queue is full, so the detector is busy, and until that batch
        completes nothing is dispatched: depth stays full (a shed swaps
        one request for another), no ``best_effort`` request is admitted
        and no tier changes, so each of those submits would be refused
        too.  A refusal builds no request, dispatches nothing and leaves
        backpressure alone; the run is counted once, logged frame by
        frame at each arrival's own time, and its arrivals wait for the
        stream's next catch-up.  Arrivals at the completion instant
        itself go through the heap, which keeps their tie order.
        """
        stream = lane.stream
        qos = stream.config.qos
        frames = [index]
        times = [now]
        index = stream.next_submit(index + 1)
        while index < lane.count:
            at = lane.at(index)
            if at >= self._completion_s:
                break
            frames.append(index)
            times.append(at)
            index = stream.next_submit(index + 1)
        refused = len(frames)
        self.queue.reject(refused)
        self._class_submitted[qos] += refused
        self._class_dropped[qos] += refused
        self.obs.counter("serve.submitted", qos=qos).inc(refused)
        self.obs.counter("serve.dropped", qos=qos, reason="rejected").inc(refused)
        stream.on_rejected(frames, times)
        self._schedule_next(lane, index)

    def _submit(self, stream: SimStream, frame_index: int, now: float) -> None:
        """Admit the stream's request; the caller has ruled out a refusal."""
        request = stream.make_request(frame_index, now)
        self._class_submitted[request.qos] += 1
        self.obs.counter("serve.submitted", qos=request.qos).inc()
        _, shed = self.queue.submit(request)
        if shed is not None:
            victim = self._lanes[shed.stream_id]
            self._catch_up(victim, now)
            victim.stream.on_dropped(shed.frame_index, now, "shed")
            self._schedule_next(victim)
            self._class_dropped[shed.qos] += 1
            self.obs.counter("serve.dropped", qos=shed.qos, reason="shed").inc()
        stream.on_submitted(frame_index, now)

    def _maybe_dispatch(self, now: float) -> bool:
        """Dispatch the next batch to the idle detector; True if one went."""
        batch = self.queue.next_batch(self.config.max_batch)
        if not batch:
            return False
        for request in batch:
            wait = now - request.submitted_at
            if request.submitted_at >= self.config.warmup_s:
                self._waits[request.qos].append(wait)
                self._slo_eligible[request.qos] += 1
                if wait <= self.config.slo_for(request.qos):
                    self._slo_attained[request.qos] += 1
            self.obs.histogram("serve.admission_wait", qos=request.qos).observe(wait)
        latency = self.detector.batch_latency(batch, now)
        self._busy = True
        self._completion_s = now + latency
        self._batches += 1
        self.obs.histogram(
            "serve.batch_size", bounds=(1, 2, 4, 8, 16, 32)
        ).observe(len(batch))
        self.obs.record_span(
            "serve.batch", now, now + latency,
            size=len(batch), setting=batch[0].setting, qos=batch[0].qos,
        )
        done = _Completion(self._completion_s, self._current, batch)
        self.events.schedule_ordered(done.time, done, self._on_batch_done, done)
        return True

    def _on_batch_done(self, now: float, done: _Completion) -> None:
        self._current = done
        self._last_completion_s = now
        self._busy = False
        for request in done.batch:
            lane = self._lanes[request.stream_id]
            self._catch_up(lane, now)
            outcome = lane.stream.on_result(request.frame_index, now)
            self._schedule_next(lane)
            self._class_served[request.qos] += 1
            self.obs.counter("serve.served", qos=request.qos).inc()
            if outcome["switched"]:
                self.obs.counter("serve.switches").inc()
        if self._maybe_dispatch(now):
            self._update_backpressure(now)

    # -- backpressure ----------------------------------------------------------

    def _update_backpressure(self, now: float) -> None:
        depth = self.queue.depth()
        self._peak_depth = max(self._peak_depth, depth)
        self.obs.gauge("serve.queue_depth").set(depth)
        level = self._overload_level
        if depth >= self.degrade_realtime_high:
            desired = _LEVEL_ALL_DEGRADED
        elif depth >= self.degrade_high:
            desired = max(level, _LEVEL_BEST_EFFORT_KEYFRAME)
        elif depth >= self.degrade_mve_high:
            desired = max(level, _LEVEL_BEST_EFFORT_MVE)
        elif depth <= self.recover_low:
            desired = _LEVEL_NORMAL
        else:
            desired = level  # hysteresis band: hold the current level
        if desired == level:
            return
        self._overload_level = desired
        self._overload_transitions.append((now, desired))
        self.obs.gauge("serve.overload_level").set(desired)
        if desired > level:
            self._degrade_events += 1
            self.obs.counter("serve.degrade_events").inc()
        else:
            self._recover_events += 1
            self.obs.counter("serve.recover_events").inc()
        # Every stream moves to the tier its QoS class runs at this level.
        # A moving stream first catches up (set_tier logs frames_arrived,
        # and the skipped arrivals count on the old tier), and an idle one
        # re-aims its heap entry at the new tier's next submitting frame.
        for lane in self._lanes.values():
            stream = lane.stream
            tier = _tier_for(desired, stream.config.qos)
            if tier == stream.tier:
                continue
            self._catch_up(lane, now)
            stream.set_tier(tier, now)
            if stream.in_flight is None:
                self._schedule_next(lane)
            self._tier_transitions += 1
            self.obs.counter("serve.tier_transitions", tier=stream.tier).inc()

    # -- run -------------------------------------------------------------------

    def run(self) -> FleetReport:
        """Fire the fleet to completion and return its report."""
        for lane in self._lanes.values():
            self._schedule_next(lane)
        self._heap_pops = self.events.run(max_events=self.config.max_events)
        # Everything submitted before the end drains: arrivals stop at
        # duration_s, completions re-dispatch, so the queue runs dry.
        self.queue.check_conservation()
        # The arrivals after each stream's last decision still count.
        end = self._last_completion_s
        for lane in self._lanes.values():
            if lane.count > lane.stream.frames_arrived:
                lane.stream.on_frame(lane.count - 1)
            if lane.count:
                end = max(end, lane.at(lane.count - 1))
        self._end_time_s = end
        self._events_fired = self._batches + sum(
            stream.frames_arrived for stream in self.streams.values()
        )
        return self._build_report()

    def _build_report(self) -> FleetReport:
        cfg = self.config
        classes: dict[str, ClassReport] = {}
        for qos in QOS_CLASSES:
            waits = self._waits[qos]
            classes[qos] = ClassReport(
                qos=qos,
                submitted=self._class_submitted[qos],
                served=self._class_served[qos],
                dropped=self._class_dropped[qos],
                slo_s=cfg.slo_for(qos),
                slo_attained=self._slo_attained[qos],
                slo_eligible=self._slo_eligible[qos],
                wait_p50_s=nearest_rank(waits, 0.50),
                wait_p99_s=nearest_rank(waits, 0.99),
                wait_max_s=max(waits) if waits else None,
            )
        stream_reports = [
            StreamReport(
                stream_id=stream.config.stream_id,
                qos=stream.config.qos,
                frames_arrived=stream.frames_arrived,
                submitted=stream.submitted,
                served=stream.served,
                dropped=stream.dropped,
                buffer_dropped=stream.buffer_dropped,
                tracked_frames=stream.tracked_frames,
                switches=stream.switches,
                degraded_episodes=stream.degraded_episodes,
                degraded_frames=stream.degraded_frames,
                mve_frames=stream.mve_frames,
                tier_transitions=stream.tier_transitions,
                cpu_busy_s=stream.cpu_busy_s,
                final_setting=stream.setting,
                final_tier=stream.tier,
                digest=stream.digest(),
            )
            for stream in sorted(
                self.streams.values(), key=lambda s: s.config.stream_id
            )
        ]
        seeds = sorted({stream.config.seed for stream in self.streams.values()})
        report = FleetReport(
            num_streams=len(self.streams),
            duration_s=cfg.duration_s,
            seed_note=f"seeds={seeds}, detector_seed={cfg.detector_seed}",
            submitted=sum(self._class_submitted.values()),
            served=sum(self._class_served.values()),
            dropped=sum(self._class_dropped.values()),
            batches=self._batches,
            peak_depth=self._peak_depth,
            final_depth=self.queue.depth(),
            degrade_events=self._degrade_events,
            recover_events=self._recover_events,
            tier_transitions=self._tier_transitions,
            buffer_dropped=sum(
                stream.buffer_dropped for stream in self.streams.values()
            ),
            tracked_frames=sum(
                stream.tracked_frames for stream in self.streams.values()
            ),
            mve_frames=sum(
                stream.mve_frames for stream in self.streams.values()
            ),
            events_fired=self._events_fired,
            end_time_s=self._end_time_s,
            classes=classes,
            streams=stream_reports,
            overload_transitions=list(self._overload_transitions),
        )
        self.obs.counter("serve.runs").inc()
        return report


# -- convenience constructors ------------------------------------------------


_FLEET_SCENARIOS = (
    "intersection",
    "racetrack",
    "meeting_room",
    "city_street",
)


def fleet_configs(
    count: int,
    seed: int = 7,
    realtime_fraction: float = 0.25,
    fps: float = 30.0,
    start_at: float = 0.0,
    first_stream_id: int = 0,
) -> list[StreamConfig]:
    """A deterministic mixed fleet: scenarios cycle, QoS is interleaved.

    Stream ``i`` is ``realtime`` when ``i * realtime_fraction`` crosses an
    integer boundary, which spreads the realtime streams evenly through
    the id space instead of clustering them at the front.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0.0 <= realtime_fraction <= 1.0:
        raise ValueError("realtime_fraction must be in [0, 1]")
    configs = []
    for offset in range(count):
        stream_id = first_stream_id + offset
        is_realtime = (
            int((offset + 1) * realtime_fraction) > int(offset * realtime_fraction)
        )
        configs.append(
            StreamConfig(
                stream_id=stream_id,
                qos=QOS_REALTIME if is_realtime else QOS_BEST_EFFORT,
                fps=fps,
                scenario=_FLEET_SCENARIOS[offset % len(_FLEET_SCENARIOS)],
                seed=seed,
                start_at=start_at,
            )
        )
    return configs


def serve_fleet(
    streams: Sequence[StreamConfig],
    config: ServeConfig | None = None,
    detector: BatchDetectorModel | None = None,
    obs: Telemetry | None = None,
) -> FleetReport:
    """One-shot helper: build a scheduler, run it, return the report."""
    return ServeScheduler(streams, config=config, detector=detector, obs=obs).run()
