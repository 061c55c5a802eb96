"""Concurrency stress tests: FrameBuffer under contention, LiveExecutor
telemetry recorded from all three threads.

These tests hammer the shared structures with more threads than the real
pipeline uses and assert the invariants that matter: no deadlock (every
join bounded), eviction strictly monotone, and the ``dropped`` attribute
always in agreement with the ``buffer.dropped`` telemetry counter.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.mpdt import FixedSettingPolicy
from repro.obs import InMemorySink, Telemetry
from repro.runtime.buffer import FrameBuffer
from repro.runtime.realtime import DetectionHandoff, LiveExecutor
from repro.video.dataset import make_clip

JOIN_TIMEOUT = 30.0


def _join_all(threads):
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT)
    alive = [t.name for t in threads if t.is_alive()]
    assert not alive, f"threads deadlocked: {alive}"


class TestFrameBufferStress:
    N_FRAMES = 3_000
    N_READERS = 6

    def test_push_fetch_contention(self):
        obs = Telemetry(InMemorySink())
        buffer = FrameBuffer(capacity=16, obs=obs)
        frame = np.zeros((2, 2), dtype=np.float32)
        stop = threading.Event()
        errors: list[Exception] = []
        newest_seen: list[list[int]] = [[] for _ in range(self.N_READERS)]

        def producer():
            try:
                for index in range(self.N_FRAMES):
                    buffer.push(index, frame)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        def reader(slot: int):
            try:
                while not stop.is_set():
                    fetched = buffer.fetch_newest(timeout=0.01)
                    if fetched is not None:
                        index, data = fetched
                        assert data is frame
                        buffer.get(index)
                    newest = buffer.newest_index()
                    if newest is not None:
                        newest_seen[slot].append(newest)
                    len(buffer)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=producer, name="producer")] + [
            threading.Thread(target=reader, args=(i,), name=f"reader-{i}")
            for i in range(self.N_READERS)
        ]
        for thread in threads:
            thread.start()
        _join_all(threads)
        assert not errors, errors

        # Frames arrive in order: each reader saw a non-decreasing newest index.
        for series in newest_seen:
            assert all(a <= b for a, b in zip(series, series[1:]))

        # All frames accounted for: retained + dropped == pushed, and the
        # telemetry counters agree exactly with the buffer's own counts.
        assert len(buffer) + buffer.dropped == self.N_FRAMES
        assert obs.metrics.find("buffer.dropped").value == buffer.dropped
        assert obs.metrics.find("buffer.pushed").value == self.N_FRAMES
        assert obs.metrics.find("buffer.occupancy").value <= buffer.capacity

    def test_fetch_newest_times_out_empty(self):
        buffer = FrameBuffer(capacity=4)
        assert buffer.fetch_newest(timeout=0.01) is None

    def test_newest_index(self):
        buffer = FrameBuffer(capacity=2)
        assert buffer.newest_index() is None
        buffer.push(0, np.zeros(1))
        buffer.push(1, np.zeros(1))
        buffer.push(2, np.zeros(1))
        assert buffer.newest_index() == 2
        assert len(buffer) == 2


class TestDetectionHandoffStress:
    """The race the seed revision had: the tracker could read frame *i+1*
    paired with frame *i*'s boxes from the shared dict.  The handoff swaps
    whole snapshots, so under arbitrary interleaving a reader must only
    ever observe (frame, detections) pairs that some publisher wrote
    together."""

    N_PUBLISHES = 2_000
    N_READERS = 4

    def test_snapshots_are_never_torn(self):
        handoff = DetectionHandoff()
        stop = threading.Event()
        errors: list[Exception] = []
        returned_velocities: list[float] = []

        def publisher():
            try:
                for frame in range(self.N_PUBLISHES):
                    # Detections encode their frame; a torn read would pair
                    # one frame number with another frame's payload.
                    velocity = handoff.publish(frame, (frame, frame, frame))
                    if velocity is not None:
                        returned_velocities.append(velocity)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    snapshot = handoff.snapshot()
                    if snapshot is None:
                        continue
                    assert snapshot.detections == (snapshot.frame,) * 3
                    handoff.report_velocity(float(snapshot.frame))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=publisher, name="publisher")] + [
            threading.Thread(target=reader, name=f"reader-{i}")
            for i in range(self.N_READERS)
        ]
        for thread in threads:
            thread.start()
        _join_all(threads)
        assert not errors, errors
        final = handoff.snapshot()
        assert final is not None and final.frame == self.N_PUBLISHES - 1
        # The velocity back-channel only ever hands back reported values.
        assert all(0 <= v < self.N_PUBLISHES for v in returned_velocities)

    def test_publish_returns_latest_reported_velocity(self):
        handoff = DetectionHandoff()
        assert handoff.publish(0, ()) is None
        handoff.report_velocity(2.5)
        assert handoff.publish(1, ()) == 2.5
        handoff.report_velocity(7.0)
        assert handoff.publish(2, ()) == 7.0


class _ExplodingClip:
    """Delegates to a real clip but raises from ``frame`` past a cutoff —
    the shape of a camera/decoder fault inside a worker thread."""

    def __init__(self, clip, explode_at: int):
        self._clip = clip
        self._explode_at = explode_at

    def __getattr__(self, name):
        return getattr(self._clip, name)

    def frame(self, index: int):
        if index >= self._explode_at:
            raise RuntimeError("simulated camera fault")
        return self._clip.frame(index)


class TestWorkerFailurePropagation:
    def test_worker_exception_reraised_promptly(self):
        """A crashing worker used to vanish (daemonless thread dies, run()
        blocks on events the dead thread will never set, then the 120 s
        watchdog fires).  Now the supervisor re-raises the worker's own
        exception after a clean wind-down."""
        clip = _ExplodingClip(
            make_clip("intersection", seed=3, num_frames=80), explode_at=10
        )
        executor = LiveExecutor(
            FixedSettingPolicy(512), time_scale=0.2, buffer_capacity=8
        )
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="simulated camera fault"):
            executor.run(clip)
        # Well under the join watchdog: peers wound down via their events.
        assert time.monotonic() - started < JOIN_TIMEOUT


class TestLiveExecutorTelemetry:
    @pytest.fixture(scope="class")
    def instrumented_run(self):
        clip = make_clip("intersection", seed=11, num_frames=90)
        obs = Telemetry(InMemorySink())
        executor = LiveExecutor(
            FixedSettingPolicy(512), time_scale=0.2, buffer_capacity=8, obs=obs
        )
        results, stats = executor.run(clip)
        obs.flush()
        return results, stats, obs

    def test_counters_match_stats(self, instrumented_run):
        _, stats, obs = instrumented_run

        def value(name):
            instrument = obs.metrics.find(name)
            return 0 if instrument is None else instrument.value

        assert value("live.detections") == stats.detections
        assert value("live.tracked_frames") == stats.tracked_frames
        assert value("live.cancelled_tracking_tasks") == stats.cancelled_tracking_tasks
        assert value("live.switches") == stats.switches
        assert value("buffer.dropped") == stats.dropped_frames

    def test_spans_recorded_from_both_worker_threads(self, instrumented_run):
        _, stats, obs = instrumented_run
        sink = obs.sink
        assert len([s for s in sink.spans if s.name == "live.detect"]) == stats.detections
        assert len([s for s in sink.spans if s.name == "live.track_step"]) == stats.tracked_frames

    def test_detect_histogram_counts_detections(self, instrumented_run):
        _, stats, obs = instrumented_run
        hist = obs.metrics.find("live.detect_latency")
        assert hist is not None
        assert hist.count == stats.detections

    def test_repeated_runs_stay_consistent(self):
        """Run the full threaded pipeline a few times back to back; every
        run must shut down cleanly with counters matching its stats."""
        clip = make_clip("meeting_room", seed=5, num_frames=60)
        for attempt in range(3):
            obs = Telemetry(InMemorySink())
            executor = LiveExecutor(
                FixedSettingPolicy(416), time_scale=0.2, buffer_capacity=8, obs=obs
            )
            results, stats = executor.run(clip)
            assert len(results) == clip.num_frames
            assert obs.metrics.find("live.detections").value == stats.detections
            dropped = obs.metrics.find("buffer.dropped")
            assert (0 if dropped is None else dropped.value) == stats.dropped_frames
