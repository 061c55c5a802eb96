"""Hypothesis property suite for the admission queue.

The queue's three scheduling promises (priority, per-class FIFO,
conservation) are checked against a transparent model over arbitrary
interleavings of submits and batch pops.  Each generated operation
sequence drives the real queue and a mirror model side by side; any
divergence or ledger imbalance is a bug in the queue, not the test.
"""

from copy import deepcopy
from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.serve.admission import (
    QOS_BEST_EFFORT,
    QOS_CLASSES,
    QOS_REALTIME,
    AdmissionQueue,
    DetectionRequest,
)

_SETTINGS = ("yolov3-320", "yolov3-416", "yolov3-512")


def _request(seq: int, qos: str, setting: str) -> DetectionRequest:
    # stream_id doubles as a unique sequence number so FIFO is checkable.
    return DetectionRequest(
        stream_id=seq,
        frame_index=seq,
        qos=qos,
        setting=setting,
        num_objects=1,
        submitted_at=0.0,
    )


_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.sampled_from(QOS_CLASSES),
            st.sampled_from(_SETTINGS),
        ),
        st.tuples(st.just("pop"), st.integers(1, 6), st.just("")),
    ),
    max_size=80,
)

_depths = st.integers(1, 12)


@given(_ops, _depths)
@settings(max_examples=200, deadline=None)
def test_refusal_predicate_is_the_admission_rule(ops, max_depth):
    """After any operation sequence, :meth:`AdmissionQueue.refuses` says
    exactly whether ``submit`` would reject a request of that class, and
    counting a refusal with ``reject`` (as the scheduler does, without
    building a request) keeps the ledger balanced."""
    queue = AdmissionQueue(max_depth=max_depth)
    seq = 0
    for op, arg, setting in ops:
        if op == "submit":
            probe = deepcopy(queue)
            refused = queue.refuses(arg)
            assert refused == (not probe.submit(_request(seq, arg, setting))[0])
            if refused:
                queue.reject()
            else:
                queue.submit(_request(seq, arg, setting))
            seq += 1
            # The refusal left the queue exactly as submit would have.
            assert queue.counters == probe.counters
            assert queue.depth() == probe.depth()
        else:
            queue.next_batch(arg)
        c = queue.counters
        assert c.submitted == seq
        assert c.submitted == c.dispatched + c.rejected + c.shed + queue.depth()
        queue.check_conservation()
    for qos in QOS_CLASSES:
        admitted, _ = deepcopy(queue).submit(_request(seq, qos, _SETTINGS[0]))
        assert queue.refuses(qos) == (not admitted)


@given(_ops, _depths, st.integers(1, 8))
@settings(max_examples=200, deadline=None)
def test_counting_a_run_of_refusals_keeps_the_ledger(ops, max_depth, run):
    """The scheduler counts a stream's whole run of refusals with one
    ``reject(n)``: the ledger balances as if each had been rejected by
    its own ``submit``."""
    queue = AdmissionQueue(max_depth=max_depth)
    seq = 0
    for op, arg, setting in ops:
        if op == "submit":
            if queue.refuses(arg):
                depth = queue.depth()
                queue.reject(run)
                seq += run
                assert queue.depth() == depth
                assert queue.refuses(arg)
            else:
                queue.submit(_request(seq, arg, setting))
                seq += 1
        else:
            queue.next_batch(arg)
        c = queue.counters
        assert c.submitted == seq == c.admitted + c.rejected
        assert c.submitted == c.dispatched + c.rejected + c.shed + queue.depth()
        queue.check_conservation()


@given(_ops, _depths)
@settings(max_examples=200, deadline=None)
def test_queue_promises_hold_under_arbitrary_interleavings(ops, max_depth):
    queue = AdmissionQueue(max_depth=max_depth)
    # Mirror model: per-class lists of admitted requests, in order.
    model = {qos: [] for qos in QOS_CLASSES}
    seq = 0
    explicit_drops = 0

    for op, arg, setting in ops:
        if op == "submit":
            request = _request(seq, arg, setting)
            seq += 1
            admitted, shed = queue.submit(request)
            if shed is not None:
                # Shed victims are always the newest queued best_effort.
                assert shed is model[QOS_BEST_EFFORT].pop()
                explicit_drops += 1
            if admitted:
                model[request.qos].append(request)
            else:
                # Rejections only happen at a full queue with nothing
                # sheddable for this class.
                assert sum(len(q) for q in model.values()) >= max_depth
                assert shed is None
                explicit_drops += 1
        else:
            batch = queue.next_batch(arg)
            # Batch cap and homogeneous setting.
            assert len(batch) <= arg
            assert len({r.setting for r in batch}) <= 1
            if batch:
                qos = batch[0].qos
                # Priority never inverts: a best_effort batch implies no
                # realtime request was waiting.
                if qos == QOS_BEST_EFFORT:
                    assert not model[QOS_REALTIME]
                # Exact FIFO within the class: the batch is a consecutive
                # prefix of the admitted order.
                assert batch == model[qos][: len(batch)]
                del model[qos][: len(batch)]
            else:
                assert all(not q for q in model.values())
        # The running depth counts exactly what the class queues hold, and
        # conservation holds at every quiescent point, not just the end.
        assert queue.depth() == sum(queue.depth_of(qos) for qos in QOS_CLASSES)
        queue.check_conservation()

    depth = sum(len(q) for q in model.values())
    assert queue.depth() == depth
    c = queue.counters
    assert c.submitted == seq
    # Every request ends in exactly one bucket, and every non-dispatched
    # removal was an explicit drop the caller heard about.
    assert c.submitted == c.dispatched + c.rejected + c.shed + depth
    assert c.rejected + c.shed == explicit_drops


@given(_ops)
@settings(max_examples=100, deadline=None)
def test_batches_drain_everything_in_priority_order(ops):
    """After arbitrary submits, repeated pops drain realtime first."""
    queue = AdmissionQueue(max_depth=10_000)
    seq = 0
    for op, arg, setting in ops:
        if op == "submit":
            queue.submit(_request(seq, arg, setting))
            seq += 1
    drained = []
    while True:
        batch = queue.next_batch(4)
        if not batch:
            break
        drained.extend(batch)
    assert len(drained) == seq
    assert queue.depth() == 0
    # Once the first best_effort request appears, no realtime follows.
    classes = [r.qos for r in drained]
    if QOS_BEST_EFFORT in classes:
        first_be = classes.index(QOS_BEST_EFFORT)
        assert QOS_REALTIME not in classes[first_be:]
    queue.check_conservation()


def test_realtime_sheds_newest_best_effort_when_full():
    queue = AdmissionQueue(max_depth=2)
    first = _request(0, QOS_BEST_EFFORT, "yolov3-512")
    second = _request(1, QOS_BEST_EFFORT, "yolov3-512")
    assert queue.submit(first) == (True, None)
    assert queue.submit(second) == (True, None)
    admitted, shed = queue.submit(_request(2, QOS_REALTIME, "yolov3-512"))
    assert admitted and shed is second
    # Full queue with no best_effort left to shed: realtime is rejected.
    queue.submit(_request(3, QOS_REALTIME, "yolov3-512"))
    admitted, shed = queue.submit(_request(4, QOS_REALTIME, "yolov3-512"))
    assert not admitted and shed is None
    queue.check_conservation()


def test_conservation_check_catches_running_depth_drift():
    queue = AdmissionQueue(max_depth=4)
    queue.submit(_request(0, QOS_REALTIME, "yolov3-512"))
    queue._depth += 1  # a counter that drifted from the queued requests
    with pytest.raises(AssertionError, match="running depth"):
        queue.check_conservation()


def test_best_effort_is_rejected_not_shed_when_full():
    queue = AdmissionQueue(max_depth=1)
    queue.submit(_request(0, QOS_BEST_EFFORT, "yolov3-512"))
    admitted, shed = queue.submit(_request(1, QOS_BEST_EFFORT, "yolov3-512"))
    assert not admitted and shed is None
    assert queue.depth() == 1
    queue.check_conservation()


_VALID = _request(0, QOS_REALTIME, "yolov3-512")


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: AdmissionQueue(max_depth=0), "max_depth"),
        (lambda: AdmissionQueue().next_batch(0), "max_batch"),
        (lambda: AdmissionQueue().reject(0), "count"),
        (lambda: replace(_VALID, qos="bogus"), "unknown QoS class"),
        (lambda: replace(_VALID, num_objects=-1), "num_objects"),
    ],
    ids=[
        "max_depth_zero",
        "max_batch_zero",
        "reject_zero",
        "unknown_qos",
        "negative_objects",
    ],
)
def test_admission_inputs_are_checked(build, match):
    # ServeConfig validates max_batch and queue_depth before building a
    # queue, so the scheduler tests never reach these checks.
    with pytest.raises(ValueError, match=match):
        build()
