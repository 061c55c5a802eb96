"""Unit tests for the object tracker (paper §IV-C workflow)."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.detection.detector import Detection
from repro.geometry import Box, iou
from repro.tracking.base import median_shift
from repro.tracking.tracker import (
    TIER_KEYFRAME,
    TIER_LK,
    TIER_MVE,
    ObjectTracker,
    TrackerConfig,
    TrackerLatencyModel,
)
from repro.video.dataset import make_clip


@pytest.fixture()
def clip():
    return make_clip("highway_surveillance", seed=55, num_frames=40)


def seed_tracker(clip, config=None, frame=0):
    ann = clip.annotation(frame)
    detections = tuple(Detection(o.label, o.box, 0.9) for o in ann.objects)
    tracker = ObjectTracker(
        clip.frame,
        clip.config.frame_width,
        clip.config.frame_height,
        config,
        seed=1,
    )
    tracker.initialize(frame, detections)
    return tracker, detections


_MEDIAN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(-1e-300, 1e-300),
    st.floats(-1e300, 1e300),
    st.floats(-50.0, 50.0),
)


class TestMedianShift:
    @given(st.lists(_MEDIAN_VALUES, min_size=1, max_size=12))
    @settings(max_examples=500, deadline=None)
    def test_matches_np_median(self, values):
        """Sizes 1-12 with duplicates, signed zeros and magnitudes from
        1e-300 to 1e300.  ``==`` is bit equality for every nonzero result;
        a zero may carry the other sign where both signs meet in the
        middle."""
        deltas = np.array(values)
        assert median_shift(deltas) == float(np.median(deltas))


class TestLatencyModel:
    def test_table2_values(self):
        """Table II: feature 40 ms; track 7-20 ms by object count; overlay 50 ms."""
        model = TrackerLatencyModel()
        assert model.feature_extraction == pytest.approx(0.040)
        assert model.overlay == pytest.approx(0.050)
        assert 0.006 <= model.track_latency(0) <= 0.009
        assert 0.015 <= model.track_latency(8) <= 0.022

    def test_per_frame_cost(self):
        model = TrackerLatencyModel()
        assert model.per_frame_cost(4) == pytest.approx(
            model.track_latency(4) + model.overlay
        )

    def test_negative_objects_rejected(self):
        with pytest.raises(ValueError):
            TrackerLatencyModel().track_latency(-1)


class TestLatencyTiers:
    """Cost accounting across the lk / mve / keyframe tier ladder."""

    def test_lk_tier_is_the_default_and_unchanged(self):
        model = TrackerLatencyModel()
        assert model.track_latency(4) == model.track_latency(4, TIER_LK)
        assert model.per_frame_cost(4) == model.per_frame_cost(4, TIER_LK)
        assert model.seed_cost() == model.feature_extraction

    def test_mve_tier_charges_blocks(self):
        model = TrackerLatencyModel()
        assert model.mve_track_latency(0) == pytest.approx(model.mve_track_base)
        assert model.mve_track_latency(100) == pytest.approx(
            model.mve_track_base + 100 * model.mve_track_per_block
        )
        # The object-count proxy routes through the same per-block cost.
        expected_blocks = round(model.mve_blocks_per_object * 4)
        assert model.track_latency(4, TIER_MVE) == pytest.approx(
            model.mve_track_latency(expected_blocks)
        )
        assert model.per_frame_cost(4, TIER_MVE) == pytest.approx(
            model.track_latency(4, TIER_MVE) + model.overlay
        )
        assert model.seed_cost(TIER_MVE) == 0.0

    def test_mve_tier_cheaper_than_lk(self):
        model = TrackerLatencyModel()
        for num_objects in (0, 1, 4, 12):
            assert model.track_latency(num_objects, TIER_MVE) < model.track_latency(
                num_objects, TIER_LK
            ) + model.feature_extraction
        # Tracking-only cost (without overlay) is several times cheaper.
        assert model.track_latency(8, TIER_LK) / model.track_latency(8, TIER_MVE) > 3

    def test_keyframe_tier_charges_nothing(self):
        """Keyframe-only mode runs no tracker: zero seed, zero per-frame.

        Regression for the serve-layer bug where degraded streams were
        billed LK feature extraction + per-frame costs for frames that
        were never tracked.
        """
        model = TrackerLatencyModel()
        assert model.track_latency(7, TIER_KEYFRAME) == 0.0
        assert model.per_frame_cost(7, TIER_KEYFRAME) == 0.0
        assert model.seed_cost(TIER_KEYFRAME) == 0.0

    def test_unknown_tier_rejected(self):
        model = TrackerLatencyModel()
        with pytest.raises(ValueError):
            model.track_latency(1, "warp")
        with pytest.raises(ValueError):
            model.seed_cost("warp")

    def test_negative_blocks_rejected(self):
        with pytest.raises(ValueError):
            TrackerLatencyModel().mve_track_latency(-1)


class TestInitialization:
    def test_features_extracted_per_object(self, clip):
        tracker, detections = seed_tracker(clip)
        assert tracker.num_objects == len(detections)
        # At least one feature per object (paper guarantees one per box).
        assert tracker.num_features >= tracker.num_objects

    def test_feature_budget_respected(self, clip):
        config = TrackerConfig(max_features_per_object=3)
        tracker, detections = seed_tracker(clip, config)
        assert tracker.num_features <= 3 * len(detections)

    def test_tiny_boxes_skipped(self, clip):
        tracker = ObjectTracker(clip.frame, 320, 180, seed=1)
        tracker.initialize(
            0, [Detection("car", Box(10, 10, 1.0, 1.0), 0.9)]
        )
        assert tracker.num_objects == 0

    def test_track_before_initialize_raises(self, clip):
        tracker = ObjectTracker(clip.frame, 320, 180)
        with pytest.raises(RuntimeError):
            tracker.track_to(1)


class TestTracking:
    def test_boxes_follow_objects(self, clip):
        """After several steps, tracked boxes still overlap ground truth."""
        tracker, _ = seed_tracker(clip)
        step = None
        for j in (2, 4, 6):
            step = tracker.track_to(j)
        ann = clip.annotation(6)
        assert step.detections
        overlaps = [
            max((iou(d.box, o.box) for o in ann.objects), default=0.0)
            for d in step.detections
        ]
        assert np.mean(overlaps) > 0.4

    def test_velocity_measured(self, clip):
        tracker, _ = seed_tracker(clip)
        step = tracker.track_to(2)
        assert step.velocity is not None
        # Highway objects move 2.6-4.2 px/frame; Eq.3 should be in range.
        assert 1.0 < step.velocity < 6.0

    def test_backwards_tracking_rejected(self, clip):
        tracker, _ = seed_tracker(clip)
        tracker.track_to(5)
        with pytest.raises(ValueError):
            tracker.track_to(5)
        with pytest.raises(ValueError):
            tracker.track_to(3)

    def test_empty_seed_tracks_nothing(self, clip):
        tracker = ObjectTracker(clip.frame, 320, 180, seed=1)
        tracker.initialize(0, [])
        step = tracker.track_to(1)
        assert step.detections == ()
        assert step.velocity is None

    def test_departed_objects_dropped(self, clip):
        """Objects leaving the frame disappear from tracker output."""
        tracker, detections = seed_tracker(clip)
        initial = tracker.num_objects
        for j in range(2, 40, 2):
            step = tracker.track_to(j)
        # On a highway at 2.6-4.2 px/frame, some object exits within 40
        # frames (or at minimum, none reappears out of thin air).
        assert tracker.num_objects <= initial
        for det in step.detections:
            assert det.box.area > 0

    def test_frame_gap_recorded(self, clip):
        tracker, _ = seed_tracker(clip)
        assert tracker.track_to(3).frame_gap == 3
        assert tracker.track_to(5).frame_gap == 2


class TestMotionModes:
    def test_per_object_vs_global(self, clip):
        """Per-object motion tracks opposing traffic better than global."""
        per_obj, _ = seed_tracker(clip, TrackerConfig(per_object_motion=True))
        global_mode, _ = seed_tracker(clip, TrackerConfig(per_object_motion=False))
        for j in (2, 4, 6, 8):
            step_per = per_obj.track_to(j)
            step_glob = global_mode.track_to(j)
        ann = clip.annotation(8)

        def mean_overlap(step):
            vals = [
                max((iou(d.box, o.box) for o in ann.objects), default=0.0)
                for d in step.detections
            ]
            return np.mean(vals) if vals else 0.0

        # Highway traffic moves in both directions: a single global vector
        # must do worse (the scene has left- and right-moving objects).
        assert mean_overlap(step_per) > mean_overlap(step_glob)


class TestLagModel:
    def test_lag_disabled_tracks_tighter(self):
        """The ablation switch (propagation_lag=0) must reduce decay."""
        results = {}
        for lag in (0.0, 0.5):
            clip = make_clip("racetrack", seed=9, num_frames=30)
            config = TrackerConfig(propagation_lag=lag)
            tracker, _ = seed_tracker(clip, config)
            for j in range(2, 22, 2):
                step = tracker.track_to(j)
            ann = clip.annotation(20)
            vals = [
                max((iou(d.box, o.box) for o in ann.objects), default=0.0)
                for d in step.detections
            ]
            results[lag] = np.mean(vals) if vals else 0.0
        assert results[0.0] > results[0.5]

    def test_invalid_lag_rejected(self):
        with pytest.raises(ValueError):
            TrackerConfig(propagation_lag=1.0)
        with pytest.raises(ValueError):
            TrackerConfig(propagation_lag=-0.1)
        with pytest.raises(ValueError):
            TrackerConfig(lag_jitter=-0.1)

    def test_invalid_feature_border_rejected(self):
        with pytest.raises(ValueError):
            TrackerConfig(feature_border=-1)

    def test_feature_border_default_matches_previous_hardcoded(self, clip):
        """feature_border=1 is the pre-knob behaviour; seeding with an
        explicit 1 must reproduce the default exactly."""
        explicit, _ = seed_tracker(clip, TrackerConfig(feature_border=1))
        default, _ = seed_tracker(clip)
        assert explicit.track_to(2).detections == default.track_to(2).detections

    def test_oversized_feature_border_triggers_centre_fallback(self, clip):
        """A border that swallows every ROI finds no corners — degenerate
        but must not raise (regression: flipped slices used to select
        features from exactly the excluded strip).  Each object then gets
        only its centre-point fallback feature."""
        tracker, detections = seed_tracker(
            clip, TrackerConfig(feature_border=10_000)
        )
        assert tracker.num_features == len(detections)
        centres = {tuple(d.box.center) for d in detections}
        assert {tuple(p) for p in tracker._points} == centres

    def test_lag_deterministic_in_seed(self, clip):
        def run(seed):
            ann = clip.annotation(0)
            detections = tuple(Detection(o.label, o.box, 0.9) for o in ann.objects)
            tracker = ObjectTracker(clip.frame, 320, 180, seed=seed)
            tracker.initialize(0, detections)
            return tracker.track_to(3).detections

        assert run(7) == run(7)
        assert run(7) != run(8)
