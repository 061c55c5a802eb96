"""Unit tests for the FAST corner detector."""

import numpy as np
import pytest

from repro.vision.fast import fast_corners, fast_response


def corner_image():
    """A bright square on a dark background: four strong corners."""
    image = np.full((40, 40), 0.2)
    image[12:28, 12:28] = 0.9
    return image


class TestFastResponse:
    def test_flat_image_no_response(self):
        assert fast_response(np.full((30, 30), 0.5)).max() == 0.0

    def test_square_corners_detected(self):
        response = fast_response(corner_image())
        for y, x in ((12, 12), (12, 27), (27, 12), (27, 27)):
            neighbourhood = response[y - 2 : y + 3, x - 2 : x + 3]
            assert neighbourhood.max() > 0.0, (y, x)

    def test_straight_edge_not_corner(self):
        """The segment test rejects points on a long straight edge."""
        response = fast_response(corner_image())
        # Middle of the square's top edge: the dark arc spans ~8 contiguous
        # circle pixels, below the required 9.
        assert response[12, 20] == 0.0

    def test_border_zeroed(self):
        response = fast_response(corner_image())
        assert response[:3, :].max() == 0.0
        assert response[:, -3:].max() == 0.0

    def test_tiny_image(self):
        assert fast_response(np.zeros((5, 5))).max() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            fast_response(np.zeros((20, 20)), threshold=0.0)
        with pytest.raises(ValueError):
            fast_response(np.zeros((20, 20)), arc_length=17)
        with pytest.raises(ValueError):
            fast_response(np.zeros((4, 4, 2)))


class TestFastCorners:
    def test_finds_square_corners(self):
        corners = fast_corners(corner_image(), max_corners=10)
        assert len(corners) >= 4
        expected = {(12, 12), (12, 27), (27, 12), (27, 27)}
        found = 0
        for ex, ey in expected:
            if any(np.hypot(c[0] - ex, c[1] - ey) < 3 for c in corners):
                found += 1
        assert found == 4

    def test_max_corners_and_distance(self):
        corners = fast_corners(corner_image(), max_corners=2, min_distance=5.0)
        assert len(corners) <= 2
        if len(corners) == 2:
            assert np.hypot(*(corners[0] - corners[1])) >= 5.0

    def test_mask(self):
        image = corner_image()
        mask = np.zeros(image.shape, dtype=bool)
        mask[:, :20] = True
        corners = fast_corners(image, mask=mask)
        assert len(corners) > 0
        assert np.all(corners[:, 0] < 20)

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError):
            fast_corners(corner_image(), mask=np.ones((3, 3), dtype=bool))

    def test_empty_on_flat(self):
        assert fast_corners(np.full((30, 30), 0.4)).shape == (0, 2)

    def test_tracker_integration(self):
        """The FAST-seeded tracker works end to end on a synthetic clip."""
        from repro.detection.detector import Detection
        from repro.tracking.tracker import ObjectTracker, TrackerConfig
        from repro.video.dataset import make_clip

        clip = make_clip("highway_surveillance", seed=31, num_frames=10)
        ann = clip.annotation(0)
        tracker = ObjectTracker(clip, TrackerConfig(feature_detector="fast"), seed=0)
        tracker.initialize(
            0, tuple(Detection(o.label, o.box, 0.9) for o in ann.objects)
        )
        assert tracker.num_features >= tracker.num_objects
        step = tracker.track_to(2)
        assert step.detections

    def test_invalid_detector_name(self):
        from repro.tracking.tracker import TrackerConfig

        with pytest.raises(ValueError):
            TrackerConfig(feature_detector="sift")
