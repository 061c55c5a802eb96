"""Unit tests for the simulated stream: workload purity, buffering,
the tracker tier ladder, and the detect→track→adapt cycle."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.detection.profiles import FRAME_SIZES
from repro.perf.reference import buffer_frame_reference
from repro.serve.streams import SimStream, StreamConfig, StreamWorkload
from repro.tracking.tracker import TIER_KEYFRAME, TIER_LK, TIER_MVE


def _config(**kwargs) -> StreamConfig:
    defaults = dict(stream_id=3, seed=11, scenario="racetrack")
    defaults.update(kwargs)
    return StreamConfig(**defaults)


class TestStreamWorkload:
    def test_pure_function_of_frame_index(self):
        """Same config => same trace, regardless of evaluation order."""
        forward = StreamWorkload(_config())
        backward = StreamWorkload(_config())
        indices = list(range(0, 400, 7))
        a = [(forward.velocity(i), forward.num_objects(i)) for i in indices]
        b = [
            (backward.velocity(i), backward.num_objects(i))
            for i in reversed(indices)
        ]
        assert a == list(reversed(b))

    def test_streams_differ_and_seeds_differ(self):
        base = StreamWorkload(_config())
        other_stream = StreamWorkload(_config(stream_id=4))
        other_seed = StreamWorkload(_config(seed=12))
        trace = [base.velocity(i) for i in range(30)]
        assert trace != [other_stream.velocity(i) for i in range(30)]
        assert trace != [other_seed.velocity(i) for i in range(30)]

    def test_values_are_physical(self):
        workload = StreamWorkload(_config())
        for i in range(500):
            assert workload.velocity(i) >= 0.0
            assert workload.num_objects(i) >= 0


class TestSimStream:
    def test_buffer_drops_oldest_and_counts(self):
        stream = SimStream(_config(buffer_capacity=4))
        stream.on_submitted(0, 0.0)  # keep it busy so frames only buffer
        for i in range(10):
            stream.on_frame(i)
        assert list(stream.buffer) == [6, 7, 8, 9]
        assert stream.buffer_dropped == 6
        assert stream.frames_arrived == 10

    def test_in_flight_blocks_new_requests(self):
        stream = SimStream(_config())
        assert stream.on_frame(0) is True
        stream.on_submitted(0, 0.0)
        assert stream.on_frame(1) is False

    def test_mve_tier_submits_every_mve_interval(self):
        stream = SimStream(_config(mve_interval=4))
        stream.set_tier(TIER_MVE, 0.0)
        wanted = [i for i in range(16) if stream.on_frame(i)]
        assert wanted == [0, 4, 8, 12]
        assert stream.mve_frames == 16
        assert stream.degraded_frames == 16

    def test_keyframe_tier_submits_keyframes_only(self):
        stream = SimStream(_config(keyframe_interval=8))
        stream.set_tier(TIER_KEYFRAME, 0.0)
        wanted = [i for i in range(32) if stream.on_frame(i)]
        assert wanted == [0, 8, 16, 24]
        assert stream.degraded_frames == 32
        assert stream.mve_frames == 0

    def test_degrade_walks_ladder_and_recover_restores_lk(self):
        stream = SimStream(_config())
        assert stream.tier == TIER_LK
        assert stream.degrade(1.0) is True
        assert stream.tier == TIER_MVE
        assert stream.degrade(2.0) is True
        assert stream.tier == TIER_KEYFRAME
        assert stream.degrade(3.0) is False  # already at the bottom rung
        assert stream.recover(4.0) is True
        assert stream.tier == TIER_LK
        assert stream.recover(5.0) is False
        # One excursion below lk = one degraded episode, three transitions.
        assert stream.degraded_episodes == 1
        assert stream.tier_transitions == 3

    def test_set_tier_rejects_unknown(self):
        with pytest.raises(ValueError):
            SimStream(_config()).set_tier("warp", 0.0)

    def test_result_cycle_tracks_backlog_and_adapts(self):
        stream = SimStream(_config())
        stream.on_frame(0)
        stream.on_submitted(0, 0.0)
        for i in range(1, 12):
            stream.on_frame(i)
        outcome = stream.on_result(0, 0.4)
        # The frames that accumulated during detection (1..11) are the
        # tracking backlog; the cycle consumes the whole buffer.
        assert list(stream.buffer) == []
        assert stream.in_flight is None
        assert stream.served == 1
        assert outcome["tracked"] == stream.tracked_frames
        assert outcome["tracked"] > 0
        assert outcome["velocity"] is not None
        assert stream.cpu_busy_s > 0
        # The adapted setting is always a real profile.
        assert stream.setting in {f"yolov3-{s}" for s in FRAME_SIZES}

    def test_result_with_empty_backlog_tracks_nothing(self):
        stream = SimStream(_config())
        stream.on_frame(0)
        stream.on_submitted(0, 0.0)
        outcome = stream.on_result(0, 0.1)
        assert outcome["tracked"] == 0
        assert outcome["velocity"] is None
        assert stream.cpu_busy_s == 0.0

    def test_dropped_request_clears_in_flight(self):
        stream = SimStream(_config())
        stream.on_frame(0)
        stream.on_submitted(0, 0.0)
        stream.on_dropped(0, 0.1, "shed")
        assert stream.in_flight is None
        assert stream.dropped == 1
        # The stream can submit again afterwards.
        assert stream.on_frame(1) is True

    def test_frame_that_already_arrived_rejected(self):
        stream = SimStream(_config())
        stream.on_frame(3)
        with pytest.raises(ValueError):
            stream.on_frame(3)

    def test_next_submit_follows_the_tier(self):
        stream = SimStream(_config(mve_interval=4, keyframe_interval=6))
        assert [stream.next_submit(i) for i in (0, 5)] == [0, 5]
        stream.set_tier(TIER_MVE, 0.0)
        assert [stream.next_submit(i) for i in (0, 1, 4, 5)] == [0, 4, 4, 8]
        stream.set_tier(TIER_KEYFRAME, 0.0)
        assert [stream.next_submit(i) for i in (0, 1, 6, 7)] == [0, 6, 6, 12]

    def test_digest_reflects_event_history(self):
        a, b = SimStream(_config()), SimStream(_config())
        assert a.digest() == b.digest()
        a.on_frame(0)
        a.on_submitted(0, 0.0)
        assert a.digest() != b.digest()
        b.on_frame(0)
        b.on_submitted(0, 0.0)
        assert a.digest() == b.digest()


def _backlogged_stream(tier: str) -> SimStream:
    """A stream on ``tier`` with an 11-frame tracking backlog pending."""
    stream = SimStream(_config())
    stream.set_tier(tier, 0.0)
    stream.on_frame(0)
    stream.on_submitted(0, 0.0)
    for i in range(1, 12):
        stream.on_frame(i)
    return stream


class TestTierCostAccounting:
    """Each rung of the ladder bills exactly the work it actually runs.

    Regression for the historical bug where degraded streams were still
    charged LK feature extraction + per-frame costs for frames that were
    never tracked."""

    def test_keyframe_tier_tracks_and_charges_nothing(self):
        stream = _backlogged_stream(TIER_KEYFRAME)
        outcome = stream.on_result(0, 0.4)
        assert outcome["tracked"] == 0
        assert outcome["cpu_s"] == 0.0
        assert outcome["velocity"] is None
        assert stream.cpu_busy_s == 0.0
        assert list(stream.buffer) == []  # backlog still superseded

    def test_mve_tier_tracks_whole_backlog_without_seed_cost(self):
        stream = _backlogged_stream(TIER_MVE)
        outcome = stream.on_result(0, 0.4)
        assert outcome["tracked"] == 11
        assert outcome["velocity"] is not None
        num_objects = stream.workload.num_objects(0)
        expected = 11 * stream.latency.track_latency(num_objects, TIER_MVE)
        assert outcome["cpu_s"] == pytest.approx(expected)
        assert stream.cpu_busy_s == pytest.approx(expected)

    def test_lk_tier_cycle_costs_more_than_mve(self):
        lk = _backlogged_stream(TIER_LK)
        mve = _backlogged_stream(TIER_MVE)
        lk_cpu = lk.on_result(0, 0.4)["cpu_s"]
        mve_cpu = mve.on_result(0, 0.4)["cpu_s"]
        # MVE tracks *more* frames (the whole backlog) yet costs less,
        # because block matching skips feature seeding and is O(boxes).
        assert lk.tracked_frames <= mve.tracked_frames
        assert 0.0 < mve_cpu < lk_cpu


_TIERS = st.sampled_from([TIER_LK, TIER_MVE, TIER_KEYFRAME])


class TestCatchUpProperty:
    """One ``on_frame`` over arrivals ``a..b`` equals the same arrivals
    applied one at a time by the frozen single-frame step."""

    @settings(max_examples=300, deadline=None)
    @given(
        capacity=st.integers(1, 20),
        mve_interval=st.integers(2, 6),
        keyframe_interval=st.integers(2, 10),
        prefix_tier=_TIERS,
        prefix=st.integers(0, 40),
        tier=_TIERS,
        in_flight=st.booleans(),
        count=st.integers(1, 60),
    )
    def test_catch_up_equals_one_at_a_time(
        self, capacity, mve_interval, keyframe_interval, prefix_tier, prefix,
        tier, in_flight, count,
    ):
        config = _config(
            buffer_capacity=capacity,
            mve_interval=mve_interval,
            keyframe_interval=keyframe_interval,
        )
        streams = []
        for _ in range(2):
            stream = SimStream(config)
            stream.set_tier(prefix_tier, 0.0)
            for index in range(prefix):
                buffer_frame_reference(stream, index)
            stream.set_tier(tier, 0.0)
            if in_flight:
                stream.on_submitted(max(prefix - 1, 0), 0.0)
            streams.append(stream)
        caught_up, stepped = streams
        last = prefix + count - 1
        wanted = caught_up.on_frame(last)
        for index in range(prefix, last + 1):
            stepped_wanted = buffer_frame_reference(stepped, index)
        assert wanted == stepped_wanted
        for stream in streams:
            assert stream.frames_arrived == prefix + count
        assert list(caught_up.buffer) == list(stepped.buffer)
        assert caught_up.buffer_dropped == stepped.buffer_dropped
        assert caught_up.degraded_frames == stepped.degraded_frames
        assert caught_up.mve_frames == stepped.mve_frames


class TestStreamConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"qos": "platinum"},
            {"fps": 0},
            {"buffer_capacity": 0},
            {"keyframe_interval": 1},
            {"start_at": -1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            _config(**kwargs)
