"""Unit and property tests for the Eq. 3 motion-velocity metric."""

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.tracking.motion import MotionVelocityEstimator, motion_velocity


class TestMotionVelocity:
    def test_uniform_translation(self):
        prev = np.array([[0.0, 0.0], [10.0, 5.0], [3.0, 8.0]])
        next_ = prev + np.array([3.0, 4.0])  # |disp| = 5 for every point
        assert motion_velocity(prev, next_, frame_gap=1) == pytest.approx(5.0)

    def test_gap_normalisation(self):
        """Velocity is per *frame*, so a 2-frame gap halves the raw motion."""
        prev = np.array([[0.0, 0.0]])
        next_ = np.array([[6.0, 0.0]])
        assert motion_velocity(prev, next_, frame_gap=2) == pytest.approx(3.0)
        assert motion_velocity(prev, next_, frame_gap=3) == pytest.approx(2.0)

    def test_static_points_zero(self):
        points = np.random.default_rng(0).uniform(0, 100, size=(10, 2))
        assert motion_velocity(points, points, frame_gap=1) == pytest.approx(0.0)

    def test_status_filter(self):
        prev = np.array([[0.0, 0.0], [0.0, 0.0]])
        next_ = np.array([[2.0, 0.0], [100.0, 0.0]])
        status = np.array([True, False])
        assert motion_velocity(prev, next_, 1, status) == pytest.approx(2.0)

    def test_no_surviving_features_is_none(self):
        prev = np.zeros((3, 2))
        assert motion_velocity(prev, prev, 1, np.zeros(3, dtype=bool)) is None
        assert motion_velocity(np.zeros((0, 2)), np.zeros((0, 2)), 1) is None

    def test_invalid_gap(self):
        with pytest.raises(ValueError):
            motion_velocity(np.zeros((1, 2)), np.zeros((1, 2)), 0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            motion_velocity(np.zeros((2, 2)), np.zeros((3, 2)), 1)

    @given(
        dx=st.floats(-10, 10, allow_nan=False),
        dy=st.floats(-10, 10, allow_nan=False),
        gap=st.integers(1, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_translation_property(self, dx, dy, gap):
        rng = np.random.default_rng(0)
        prev = rng.uniform(0, 100, size=(8, 2))
        value = motion_velocity(prev, prev + [dx, dy], gap)
        assert value == pytest.approx(np.hypot(dx, dy) / gap, rel=1e-9, abs=1e-9)


class TestEstimator:
    def test_cycle_velocity_is_mean(self):
        estimator = MotionVelocityEstimator()
        estimator.add_sample(2.0)
        estimator.add_sample(4.0)
        assert estimator.cycle_velocity() == pytest.approx(3.0)

    def test_empty_cycle_is_none(self):
        assert MotionVelocityEstimator().cycle_velocity() is None

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            MotionVelocityEstimator().add_sample(-1.0)
