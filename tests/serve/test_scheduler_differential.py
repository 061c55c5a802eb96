"""Differential check: decision-event scheduler vs the frozen per-frame one.

The live :class:`~repro.serve.ServeScheduler` pushes a heap event only
for a stream's next submitting arrival and catches the other arrivals up
in closed form.  :class:`~repro.perf.reference.ReferenceServeScheduler`
is the scheduler from before that change, with one insertion-ordered
event per frame arrival.  Hypothesis draws small fleets that tie, reject,
shed and change tiers, and the two report digests must be equal: the
digest covers every stream's event log, every ledger and counter,
``events_fired`` and ``end_time_s``.
"""

from dataclasses import dataclass

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.perf.reference import ReferenceServeScheduler
from repro.serve import (
    QOS_BEST_EFFORT,
    QOS_REALTIME,
    ServeConfig,
    ServeScheduler,
    SharedDetectorModel,
    StreamConfig,
    fleet_configs,
)


@dataclass(frozen=True)
class FixedLatencyDetector:
    latency_s: float

    def batch_latency(self, batch, now):
        return self.latency_s


# Frame periods that are exact binary fractions (8, 16, 32 fps) tie with
# each other and with the binary latencies; 30 and 24.5 fps do not.
_FPS = st.sampled_from([8.0, 16.0, 24.5, 30.0, 32.0])
_START_AT = st.sampled_from([0.0, 0.0, 0.0625, 0.25, 0.5, 1.0, 0.3])
_LATENCY = st.sampled_from([1 / 64, 1 / 32, 1 / 16, 3 / 32, 0.05, 0.2])


@st.composite
def _stream(draw, stream_id):
    return StreamConfig(
        stream_id=stream_id,
        qos=draw(st.sampled_from([QOS_REALTIME, QOS_BEST_EFFORT])),
        fps=draw(_FPS),
        scenario=draw(st.sampled_from(["intersection", "racetrack"])),
        seed=draw(st.integers(0, 3)),
        buffer_capacity=draw(st.integers(1, 20)),
        mve_interval=draw(st.integers(2, 5)),
        keyframe_interval=draw(st.integers(2, 9)),
        start_at=draw(_START_AT),
    )


@st.composite
def _fleet(draw):
    # Ids congruent mod 97 share a phase offset, so their arrivals tie.
    ids = draw(
        st.lists(
            st.builds(lambda a, b: 97 * a + b, st.integers(0, 6), st.integers(0, 2)),
            min_size=1,
            max_size=10,
            unique=True,
        )
    )
    streams = [draw(_stream(stream_id)) for stream_id in ids]
    depth = draw(st.integers(2, 8))
    low = draw(st.integers(1, depth - 1))
    mve_high = draw(st.integers(low + 1, depth))
    high = draw(st.integers(mve_high, depth))
    realtime_high = draw(st.integers(high, depth))
    config = ServeConfig(
        duration_s=draw(st.sampled_from([0.5, 1.0, 2.0, 2.5])),
        max_batch=draw(st.integers(1, 6)),
        queue_depth=depth,
        degrade_mve_high=mve_high,
        degrade_high=high,
        degrade_realtime_high=realtime_high,
        recover_low=low,
    )
    if draw(st.booleans()):
        detector = FixedLatencyDetector(draw(_LATENCY))
    else:
        detector = SharedDetectorModel(seed=draw(st.integers(0, 3)))
    return streams, config, detector


def _assert_matches_reference(streams, config, detector):
    report = ServeScheduler(streams, config, detector=detector).run()
    reference = ReferenceServeScheduler(streams, config, detector=detector).run()
    assert report.digest() == reference.digest()


def test_first_arrivals_of_different_clocks_tie_in_fleet_order():
    """An 8 fps stream starting at 0 and a 16 fps stream starting at
    1/16 both see frame 0 at 1/8 s; the tie goes back to the run start,
    where fleet position decides, whichever stream comes first."""
    slow = StreamConfig(stream_id=0, fps=8.0)
    fast = StreamConfig(stream_id=97, fps=16.0, start_at=0.0625)
    config = ServeConfig(
        duration_s=1.0,
        max_batch=1,
        queue_depth=2,
        degrade_mve_high=2,
        degrade_high=2,
        degrade_realtime_high=2,
        recover_low=1,
    )
    for fleet in ([slow, fast], [fast, slow]):
        _assert_matches_reference(fleet, config, FixedLatencyDetector(1 / 32))


def test_saturated_fleet_rejects_and_matches_reference():
    """More streams than queue slots, both classes, and watermarks low
    enough for keyframe-only degrade: every run rejects, sheds and walks
    the tier ladder, so refusals decided before a request exists are
    checked against the per-frame scheduler on each run, not only when
    Hypothesis happens to draw a saturated fleet."""
    streams = fleet_configs(16, seed=3, realtime_fraction=0.25)
    config = ServeConfig(
        duration_s=2.0,
        max_batch=2,
        queue_depth=4,
        degrade_mve_high=2,
        degrade_high=3,
        degrade_realtime_high=4,
        recover_low=1,
    )
    live = ServeScheduler(streams, config)
    report = live.run()
    counters = live.queue.counters
    assert counters.rejected > 0 and counters.shed > 0
    assert {r.qos for r in report.streams} == {QOS_REALTIME, QOS_BEST_EFFORT}
    # Levels 2 and 3 put best_effort streams on keyframe-only detection.
    assert {level for _, level in report.overload_transitions} == {0, 1, 2, 3}
    reference = ReferenceServeScheduler(streams, config).run()
    assert report.digest() == reference.digest()


@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(_fleet())
def test_decision_events_match_per_frame_reference(fleet):
    streams, config, detector = fleet
    live = ServeScheduler(streams, config, detector=detector)
    report = live.run()
    reference = ReferenceServeScheduler(streams, config, detector=detector).run()
    assert report.digest() == reference.digest()
    assert report.to_dict() == reference.to_dict()
    # The modelled count is one event per arrival plus one per batch.
    assert report.events_fired == report.batches + sum(
        s.frames_arrived for s in report.streams
    )
    assert live.heap_pops <= 2 * (
        report.submitted + report.batches + report.tier_transitions + len(streams)
    )
