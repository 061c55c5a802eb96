"""Concurrency stress tests for the serving layer's threaded frontend.

Hammers :class:`BatchServeExecutor` + :class:`AdmissionQueue` with more
producer threads than the real deployment would use and asserts the
invariants that matter (same style as ``tests/runtime/test_stress_live.py``):
no deadlock (every join bounded), no lost or duplicated result, the
conservation ledger balanced against the producers' own submit
accounting, and a failing worker winding the pool down cleanly with its
exception re-raised — never a silent daemon death.
"""

import sys
import threading
import time

import pytest

from repro.serve import (
    QOS_BEST_EFFORT,
    QOS_REALTIME,
    AdmissionQueue,
    BatchServeExecutor,
    DetectionRequest,
)

JOIN_TIMEOUT = 30.0


def _join_all(threads):
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT)
    alive = [t.name for t in threads if t.is_alive()]
    assert not alive, f"threads deadlocked: {alive}"


def _request(stream_id: int, frame_index: int, qos: str) -> DetectionRequest:
    return DetectionRequest(
        stream_id=stream_id,
        frame_index=frame_index,
        qos=qos,
        setting="yolov3-512",
        num_objects=1,
        submitted_at=0.0,
    )


class TestNoLossNoDuplication:
    N_PRODUCERS = 8
    N_PER_PRODUCER = 400

    def test_every_admitted_request_served_exactly_once(self):
        queue = AdmissionQueue(max_depth=10_000)  # deep: no drop path here
        served_ids = []

        def serve(batch):
            return [(r.stream_id, r.frame_index) for r in batch]

        executor = BatchServeExecutor(queue, serve, workers=4, max_batch=8)
        errors: list[Exception] = []

        def producer(slot: int):
            try:
                qos = QOS_REALTIME if slot % 2 else QOS_BEST_EFFORT
                for frame in range(self.N_PER_PRODUCER):
                    admitted, shed = queue.submit(_request(slot, frame, qos))
                    assert admitted and shed is None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=producer, args=(i,), name=f"producer-{i}")
            for i in range(self.N_PRODUCERS)
        ]
        executor.start()
        for thread in threads:
            thread.start()
        _join_all(threads)
        served_ids = executor.stop(drain=True)
        assert not errors, errors

        expected = {
            (slot, frame)
            for slot in range(self.N_PRODUCERS)
            for frame in range(self.N_PER_PRODUCER)
        }
        # Exactly once: as a set it is complete, as a list it has no dupes.
        assert len(served_ids) == len(expected)
        assert set(served_ids) == expected
        queue.check_conservation()
        assert queue.counters.dispatched == len(expected)

    def test_conservation_with_shedding_under_contention(self):
        """A tiny queue forces reject/shed; explicit drops + served must
        still account for every submit, even from racing producers.

        Admit, shed and pop all move the queue's running depth, so a short
        switch interval interleaves them as finely as the lock allows, and
        ``check_conservation`` would catch an update lost to a race."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            self._shed_under_contention()
        finally:
            sys.setswitchinterval(interval)

    def _shed_under_contention(self):
        queue = AdmissionQueue(max_depth=8)
        lock = threading.Lock()
        explicit_drops = [0]

        def serve(batch):
            time.sleep(0.0005)  # make workers slow enough to force drops
            return [(r.stream_id, r.frame_index) for r in batch]

        executor = BatchServeExecutor(queue, serve, workers=2, max_batch=4)
        errors: list[Exception] = []

        def producer(slot: int):
            try:
                qos = QOS_REALTIME if slot % 2 else QOS_BEST_EFFORT
                drops = 0
                for frame in range(300):
                    admitted, shed = queue.submit(_request(slot, frame, qos))
                    if not admitted:
                        drops += 1
                    if shed is not None:
                        drops += 1
                with lock:
                    explicit_drops[0] += drops
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=producer, args=(i,), name=f"producer-{i}")
            for i in range(6)
        ]
        executor.start()
        for thread in threads:
            thread.start()
        _join_all(threads)
        served = executor.stop(drain=True)
        assert not errors, errors
        queue.check_conservation()
        c = queue.counters
        assert c.submitted == 6 * 300
        # Every submit is either served or an explicit drop the producer saw.
        assert len(served) + explicit_drops[0] == c.submitted
        assert c.rejected + c.shed == explicit_drops[0]
        # No duplicates in the served stream.
        assert len(served) == len(set(served))


class TestWorkerFailure:
    def test_failing_worker_winds_down_and_reraises(self):
        queue = AdmissionQueue(max_depth=10_000)
        calls = [0]
        lock = threading.Lock()

        def exploding_serve(batch):
            with lock:
                calls[0] += 1
                if calls[0] >= 3:
                    raise RuntimeError("simulated detector fault")
            return [None] * len(batch)

        executor = BatchServeExecutor(queue, exploding_serve, workers=4)
        executor.start()
        for frame in range(500):
            queue.submit(_request(0, frame, QOS_BEST_EFFORT))
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="simulated detector fault"):
            executor.stop(drain=True)
        # Clean wind-down well under the join watchdog — stop() must not
        # sit draining a queue whose consumers are dead.
        assert time.monotonic() - started < JOIN_TIMEOUT

    def test_result_count_mismatch_is_an_error(self):
        queue = AdmissionQueue(max_depth=100)

        def short_serve(batch):
            return [None] * (len(batch) - 1) if len(batch) > 1 else [None]

        executor = BatchServeExecutor(queue, short_serve, workers=2, max_batch=4)
        # Fill before starting so the first pop is a multi-request batch.
        for frame in range(50):
            queue.submit(_request(0, frame, QOS_BEST_EFFORT))
        executor.start()
        with pytest.raises(RuntimeError, match="returned"):
            executor.stop(drain=True)

    def test_stop_without_start_is_an_error(self):
        executor = BatchServeExecutor(AdmissionQueue(), lambda batch: [])
        with pytest.raises(RuntimeError, match="never started"):
            executor.stop()

    def test_double_start_is_an_error(self):
        executor = BatchServeExecutor(AdmissionQueue(), lambda b: [None] * len(b))
        executor.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                executor.start()
        finally:
            executor.stop(drain=False)


class TestCleanDrain:
    def test_stop_drains_remaining_queue(self):
        queue = AdmissionQueue(max_depth=10_000)
        executor = BatchServeExecutor(
            queue, lambda batch: [r.frame_index for r in batch], workers=2
        )
        executor.start()
        for frame in range(200):
            queue.submit(_request(1, frame, QOS_REALTIME))
        results = executor.stop(drain=True)
        assert sorted(results) == list(range(200))
        assert queue.depth() == 0
        queue.check_conservation()

    def test_stop_without_drain_leaves_queue_intact(self):
        queue = AdmissionQueue(max_depth=10_000)
        block = threading.Event()

        def slow_serve(batch):
            block.wait(0.05)
            return [None] * len(batch)

        executor = BatchServeExecutor(queue, slow_serve, workers=1, max_batch=1)
        executor.start()
        for frame in range(50):
            queue.submit(_request(2, frame, QOS_BEST_EFFORT))
        executor.stop(drain=False)
        block.set()
        # Whatever was not served is still queued, not lost.
        queue.check_conservation()
        assert queue.depth() + queue.counters.dispatched == 50
