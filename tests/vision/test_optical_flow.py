"""Unit tests for pyramidal Lucas-Kanade optical flow."""

import numpy as np
import pytest

from repro.vision.features import good_features_to_track
from repro.vision.image import sample_bilinear
from repro.vision.optical_flow import FramePyramid, LKParams, track_features


def textured_image(shape=(80, 100), seed=0):
    """Smooth random texture with plenty of gradient structure."""
    from repro.vision.image import gaussian_blur

    rng = np.random.default_rng(seed)
    return gaussian_blur(rng.random(shape), sigma=1.5)


def translate(image, dx, dy):
    """Shift image content by (dx, dy) with bilinear resampling."""
    h, w = image.shape
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    return sample_bilinear(image, xs - dx, ys - dy)


@pytest.fixture(scope="module")
def base_image():
    return textured_image()


@pytest.fixture(scope="module")
def base_points(base_image):
    return good_features_to_track(base_image, max_corners=25, border=12)


class TestTranslationRecovery:
    def test_zero_motion(self, base_image, base_points):
        result = track_features(base_image, base_image, base_points)
        assert result.status.all()
        assert np.abs(result.points - base_points).max() < 0.05

    @pytest.mark.parametrize("dx,dy", [(1.0, 0.0), (0.0, 1.0), (2.0, -1.5), (-3.0, 2.0)])
    def test_integer_and_subpixel_shifts(self, base_image, base_points, dx, dy):
        moved = translate(base_image, dx, dy)
        result = track_features(base_image, moved, base_points)
        good = result.status
        assert good.mean() > 0.7
        flow = result.points[good] - base_points[good]
        assert np.abs(flow[:, 0] - dx).mean() < 0.25
        assert np.abs(flow[:, 1] - dy).mean() < 0.25

    def test_large_shift_needs_pyramid(self):
        """An 8 px shift exceeds the window; only the pyramid recovers it.

        Uses a larger image than the shared fixture so points stay inside
        the usable area of the coarsest pyramid level.
        """
        image = textured_image(shape=(160, 200), seed=5)
        points = good_features_to_track(image, max_corners=20, border=40)
        moved = translate(image, 8.0, 0.0)
        multi = track_features(image, moved, points, LKParams(pyramid_levels=3))
        single = track_features(image, moved, points, LKParams(pyramid_levels=1))
        assert multi.status.any()
        flow_multi = multi.points[multi.status] - points[multi.status]
        err_multi = float(np.abs(np.median(flow_multi[:, 0]) - 8.0))
        # The pyramidal tracker should recover the shift well...
        assert err_multi < 0.5
        # ...and clearly beat the single-level tracker (which either fails
        # points or mis-estimates).
        if single.status.any():
            flow_single = single.points[single.status] - points[single.status]
            err_single = float(np.abs(np.median(flow_single[:, 0]) - 8.0))
            assert err_multi < err_single or single.status.mean() < multi.status.mean()


class TestStatusReporting:
    def test_point_leaving_frame_fails(self, base_image):
        moved = translate(base_image, 30.0, 0.0)
        points = np.array([[85.0, 40.0]])  # near the right edge
        result = track_features(base_image, moved, points)
        assert not result.status[0]

    def test_flat_region_fails(self):
        image = np.full((60, 60), 0.5)
        image[10:20, 10:20] = 1.0
        points = np.array([[45.0, 45.0]])  # in the flat area
        result = track_features(image, image, points)
        assert not result.status[0]

    def test_appearance_change_fails_residual(self, base_image, base_points):
        other = textured_image(seed=99)  # totally different content
        result = track_features(base_image, other, base_points)
        assert result.status.mean() < 0.5

    def test_empty_points(self, base_image):
        result = track_features(base_image, base_image, np.zeros((0, 2)))
        assert result.points.shape == (0, 2)
        assert result.status.shape == (0,)

    def test_mismatched_shapes_raise(self, base_image):
        with pytest.raises(ValueError):
            track_features(base_image, base_image[:-2], np.array([[5.0, 5.0]]))


class TestFramePyramid:
    def test_pyramid_equivalent_to_arrays(self, base_image, base_points):
        moved = translate(base_image, 1.5, 0.5)
        params = LKParams()
        direct = track_features(base_image, moved, base_points, params)
        pyr_a = FramePyramid(base_image, params.pyramid_levels)
        pyr_b = FramePyramid(moved, params.pyramid_levels)
        cached = track_features(pyr_a, pyr_b, base_points, params)
        assert np.array_equal(direct.status, cached.status)
        assert np.allclose(direct.points, cached.points)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            FramePyramid(np.zeros((4, 4, 3)), 2)

    def test_repeated_calls_do_not_leak_gradients(self, base_image, base_points):
        """Gradients live in per-thread scratch planes that keep stale
        values off the window support; a call over other points in between
        must not change a repeat call's result."""
        moved = translate(base_image, 1.5, 0.5)
        pyr_a = FramePyramid(base_image, 3)
        pyr_b = FramePyramid(moved, 3)
        first = track_features(pyr_a, pyr_b, base_points)
        track_features(pyr_b, pyr_a, base_points[::-1] + 3.0)
        track_features(textured_image(seed=5), moved, base_points[:3])
        again = track_features(pyr_a, pyr_b, base_points)
        assert np.array_equal(first.points, again.points)
        assert np.array_equal(first.status, again.status)
        assert np.array_equal(first.residual, again.residual)


class TestPyramidCacheServing:
    def test_cached_pyramid_tracks_like_fresh(self, base_image, base_points):
        from repro.video.framestore import PYRAMID, FrameStore

        moved = translate(base_image, -1.0, 2.0)
        store = FrameStore()
        for index, frame in enumerate((base_image, moved)):
            store.put(("fp", PYRAMID, index, 3), FramePyramid(frame, 3))
        cached = track_features(
            store.get(("fp", PYRAMID, 0, 3)),
            store.get(("fp", PYRAMID, 1, 3)),
            base_points,
        )
        fresh = track_features(base_image, moved, base_points)
        assert np.array_equal(cached.points, fresh.points)
        assert np.array_equal(cached.status, fresh.status)
        assert np.array_equal(cached.residual, fresh.residual)


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_radius": 0},
            {"pyramid_levels": 0},
            {"max_iterations": 0},
            {"epsilon": 0.0},
            {"max_residual": 0.0},
            {"max_residual": -1.0},
            {"min_eigen_threshold": 0.0},
            {"min_eigen_threshold": -1e-6},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LKParams(**kwargs)

    def test_positive_thresholds_accepted(self):
        params = LKParams(max_residual=0.5, min_eigen_threshold=1e-8)
        assert params.max_residual == 0.5
        assert params.min_eigen_threshold == 1e-8
