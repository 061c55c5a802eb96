"""Unit and property tests for the camera source timing model."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.video.dataset import make_clip
from repro.video.source import CameraSource


@pytest.fixture(scope="module")
def source():
    return CameraSource(make_clip("boat", seed=1, num_frames=90))


class TestTiming:
    def test_capture_times(self, source):
        assert source.capture_time(0) == 0.0
        assert source.capture_time(30) == pytest.approx(1.0)

    def test_capture_time_out_of_range(self, source):
        with pytest.raises(IndexError):
            source.capture_time(90)
        with pytest.raises(IndexError):
            source.capture_time(-1)

    def test_newest_frame_basic(self, source):
        assert source.newest_frame_at(0.0) == 0
        assert source.newest_frame_at(0.5) == 15
        assert source.newest_frame_at(1.0) == 30

    def test_newest_frame_clamped_at_end(self, source):
        assert source.newest_frame_at(1e6) == 89

    def test_newest_frame_negative_time(self, source):
        with pytest.raises(ValueError):
            source.newest_frame_at(-0.1)

    def test_duration(self, source):
        assert source.duration == pytest.approx(3.0)


class TestProperties:
    @given(t=st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_newest_frame_consistent_with_capture_time(self, t):
        source = CameraSource(make_clip("boat", seed=1, num_frames=90))
        index = source.newest_frame_at(t)
        assert 0 <= index <= 89
        # The frame was captured at or before t (tolerating float round-off).
        assert source.capture_time(index) <= t + 1e-6
        # And the next frame (if any) strictly after t.
        if index < 89:
            assert source.capture_time(index + 1) > t - 1e-6
