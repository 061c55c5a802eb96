"""Property-based tests for Lucas-Kanade: random translations are
recovered, and every point is solved independently of the others."""

import numpy as np
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.video.dataset import make_clip
from repro.vision import optical_flow
from repro.vision.features import good_features_to_track
from repro.vision.image import gaussian_blur, sample_bilinear
from repro.vision.optical_flow import FramePyramid, LKParams, track_features

# One fixed texture for all examples (hypothesis shrinks over the shift).
_RNG = np.random.default_rng(42)
_IMAGE = gaussian_blur(_RNG.random((80, 100)), sigma=1.5)
_POINTS = good_features_to_track(_IMAGE, max_corners=15, border=14)


def _translate(image, dx, dy):
    h, w = image.shape
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    return sample_bilinear(image, xs - dx, ys - dy)


shift = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@given(dx=shift, dy=shift)
@settings(max_examples=30, deadline=None)
def test_small_translations_recovered(dx, dy):
    moved = _translate(_IMAGE, dx, dy)
    result = track_features(_IMAGE, moved, _POINTS)
    good = result.status
    # Most features must survive a small rigid shift...
    assert good.mean() > 0.6
    flow = result.points[good] - _POINTS[good]
    # ...and the median flow must match the true shift to sub-pixel accuracy.
    assert abs(float(np.median(flow[:, 0])) - dx) < 0.3
    assert abs(float(np.median(flow[:, 1])) - dy) < 0.3


@given(dx=shift, dy=shift)
@settings(max_examples=15, deadline=None)
def test_flow_antisymmetry(dx, dy):
    """Tracking forward then backward returns near the start."""
    moved = _translate(_IMAGE, dx, dy)
    forward = track_features(_IMAGE, moved, _POINTS)
    good = forward.status
    if not good.any():
        return
    backward = track_features(moved, _IMAGE, forward.points[good])
    both = backward.status
    if not both.any():
        return
    roundtrip = backward.points[both] - _POINTS[good][both]
    assert float(np.median(np.abs(roundtrip))) < 0.35


# -- per-point independence ---------------------------------------------------
#
# A clip's flow call solves its distinct points, deduplicated and sorted,
# and lockstep arms share one merged call (see ``VideoClip.flow``): that
# is sound only if solving a point gives the same bits whatever other
# points share its call, in whatever order.

_CLIP = make_clip("intersection", seed=7, num_frames=6)


def _frames(draw):
    """A ``(prev, next)`` frame pair: synthetic 6-72 px, or rendered."""
    if draw(st.booleans()):
        index = draw(st.integers(min_value=0, max_value=3))
        gap = draw(st.integers(min_value=1, max_value=2))
        return _CLIP.frame(index), _CLIP.frame(index + gap)
    h = draw(st.integers(min_value=6, max_value=72))
    w = draw(st.integers(min_value=6, max_value=72))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    prev = gaussian_blur(rng.random((h, w)), sigma=1.2)
    dx, dy = rng.uniform(-2.0, 2.0, size=2)
    return prev, np.clip(_translate(prev, dx, dy) + 0.02 * rng.standard_normal((h, w)), 0, 1)


def _points(draw, image):
    """1-24 points: corners, anywhere inside, on the borders, off the
    frame, and repeats."""
    h, w = image.shape
    corners = [tuple(xy) for xy in good_features_to_track(image, max_corners=12)]

    def coordinate(size):
        inside = st.builds(
            lambda pixel, fraction: pixel + fraction,
            st.integers(min_value=0, max_value=size - 1),
            st.sampled_from([0.0, 0.25, 0.5, 0.8125]),
        )
        edges = st.sampled_from([0.0, 1.0, size - 1.0, -30.0, 1e3])
        return st.one_of(inside, inside, inside, edges)

    point = st.tuples(coordinate(w), coordinate(h))
    if corners:
        point = st.one_of(point, st.sampled_from(corners))
    points = draw(st.lists(point, min_size=1, max_size=24))
    repeats = draw(st.lists(st.integers(min_value=0, max_value=len(points) - 1), max_size=4))
    return np.array(points + [points[i] for i in repeats], dtype=np.float64)


def _assert_rows_match(full, subset, index):
    for name in ("points", "status", "residual"):
        whole, part = getattr(full, name), getattr(subset, name)
        assert part.dtype == whole.dtype
        assert part.tobytes() == whole[index].tobytes(), name


class TestPerPointIndependence:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_subset_or_order_matches_the_full_solve(self, data):
        prev, next_ = _frames(data.draw)
        params = LKParams(
            window_radius=data.draw(st.integers(min_value=1, max_value=10)),
            pyramid_levels=data.draw(st.integers(min_value=1, max_value=3)),
        )
        points = _points(data.draw, prev)
        prev_pyramid = FramePyramid(prev, params.pyramid_levels)
        next_pyramid = FramePyramid(next_, params.pyramid_levels)
        full = track_features(prev_pyramid, next_pyramid, points, params)
        index = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(points) - 1),
                min_size=1,
                max_size=len(points) + 2,
            )
        )
        subset = track_features(prev_pyramid, next_pyramid, points[index], params)
        _assert_rows_match(full, subset, index)
        # Every point alone, too.
        for i in range(len(points)):
            single = track_features(prev_pyramid, next_pyramid, points[i : i + 1], params)
            _assert_rows_match(full, single, [i])

    def test_tile_and_full_plane_gradient_paths_agree(self, monkeypatch):
        """A spread-out point set takes ``_window_gradients``' full-plane
        path at level 0 and each of its points alone the tile path; the
        rows match bit for bit either way."""
        taken = []
        real_tiles, real_full = optical_flow._gradients_on_tiles, optical_flow._image_gradients_into

        def tiles(tiled, size):
            taken.extend(["tiles"] * len(tiled))
            return real_tiles(tiled, size)

        def full_plane(image, ix, iy):
            taken.append("full")
            return real_full(image, ix, iy)

        monkeypatch.setattr(optical_flow, "_gradients_on_tiles", tiles)
        monkeypatch.setattr(optical_flow, "_image_gradients_into", full_plane)
        params = LKParams(window_radius=7, pyramid_levels=1)
        prev = FramePyramid(_CLIP.frame(1), 1)
        next_ = FramePyramid(_CLIP.frame(2), 1)
        ys, xs = np.mgrid[10:180:16, 10:320:16]
        points = np.stack([xs.ravel() + 0.25, ys.ravel() + 0.5], axis=1).astype(np.float64)
        full = track_features(prev, next_, points, params)
        assert taken == ["full"]
        for i in range(0, len(points), 7):
            taken.clear()
            single = track_features(prev, next_, points[i : i + 1], params)
            assert taken == ["tiles"]
            _assert_rows_match(full, single, [i])
