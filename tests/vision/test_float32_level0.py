"""A ``float32`` level 0 reads exactly like its ``float64`` widening.

Pyramids hold a rendered frame as their level 0 uncopied, so level 0 is
``float32`` wherever a pipeline runs, and each reader widens it where it
reads.  float32 -> float64 widening is exact, so every kernel must give,
bit for bit, what it gives on the widened frame.  These tests compare
the two directly: the live kernels on a ``float32``-level-0 pyramid
against the same kernels on its ``float64`` twin.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.vision.block_motion import BlockMotionParams, block_motion_field
from repro.vision.image import (
    build_pyramid,
    gaussian_blur,
    image_gradients,
    pyramid_down,
    sample_bilinear,
)
from repro.vision.optical_flow import FramePyramid, LKParams, track_features

_BITS = np.uint64


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit patterns: ``-0.0`` and ``0.0`` differ, NaNs must match."""
    return a.dtype == b.dtype and np.array_equal(a.view(_BITS), b.view(_BITS))


def _twins(frame32: np.ndarray, levels: int) -> tuple[FramePyramid, FramePyramid]:
    widened = frame32.astype(np.float64)
    return FramePyramid(frame32, levels), FramePyramid(widened, levels)


@st.composite
def _frame_pairs(draw, min_side: int = 8):
    """A textured ``float32`` frame pair, the second shifted by up to 4 px,
    and a pyramid level count from 1 to 3."""
    h = draw(st.integers(min_side, 64))
    w = draw(st.integers(min_side, 64))
    seed = draw(st.integers(0, 2**16))
    canvas = gaussian_blur(np.random.default_rng(seed).random((h + 4, w + 4)), 1.5)
    canvas = canvas.astype(np.float32)
    dy, dx = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    prev = canvas[2 : h + 2, 2 : w + 2].copy()
    nxt = canvas[dy : h + dy, dx : w + dx].copy()
    return prev, nxt, draw(st.integers(1, 3))


@st.composite
def _points(draw, shape: tuple[int, int], margin: int):
    """Points on, near and past every border, plus anywhere inside."""
    h, w = shape

    def coord(extent: int):
        edge = float(min(margin, extent - 1))
        return st.one_of(
            st.sampled_from([0.0, edge, extent - 1 - edge, float(extent - 1)]),
            st.floats(0.0, float(extent - 1)),
            st.floats(-6.0, -0.01),
            st.floats(extent - 0.99, extent + 6.0),
        )

    points = draw(st.lists(st.tuples(coord(w), coord(h)), min_size=1, max_size=12))
    return np.array(points, dtype=np.float64)


class TestPyramidLevels:
    def test_level0_is_the_float32_frame_uncopied(self):
        frame = np.random.default_rng(1).random((40, 56)).astype(np.float32)
        pyramid = FramePyramid(frame, 3)
        assert pyramid.images[0] is frame
        assert [image.dtype for image in pyramid.images] == [
            np.float32, np.float64, np.float64
        ]

    def test_float64_and_other_dtypes_keep_their_old_level0(self):
        frame = np.random.default_rng(2).random((40, 56))
        assert FramePyramid(frame, 2).images[0] is frame
        as_int = (frame * 255).astype(np.uint8)
        level0 = FramePyramid(as_int, 2).images[0]
        assert level0.dtype == np.float64
        assert np.array_equal(level0, as_int)

    # (2, 2) and (3, 3) take the np.pad fallback of the reflect pad.
    @pytest.mark.parametrize("shape", [(180, 320), (33, 17), (3, 3), (2, 2), (2, 9)])
    def test_pyramid_down_of_float32_equals_its_widening(self, shape):
        frame = np.random.default_rng(3).random(shape).astype(np.float32)
        assert _bits_equal(pyramid_down(frame), pyramid_down(frame.astype(np.float64)))

    @pytest.mark.parametrize("shape", [(180, 320), (33, 17), (2, 9), (1, 9), (1, 1)])
    def test_gradients_of_float32_equal_their_widening(self, shape):
        frame = np.random.default_rng(4).random(shape).astype(np.float32)
        for got, expected in zip(
            image_gradients(frame), image_gradients(frame.astype(np.float64))
        ):
            assert _bits_equal(got, expected)

    @settings(max_examples=40, deadline=None)
    @given(case=_frame_pairs(min_side=2), levels=st.integers(1, 4))
    def test_levels_above_0_equal_the_twins(self, case, levels):
        frame = case[0]
        got = build_pyramid(frame, levels)
        expected = build_pyramid(frame.astype(np.float64), levels)
        assert len(got) == len(expected)
        assert np.array_equal(got[0], expected[0])
        for a, b in zip(got[1:], expected[1:]):
            assert _bits_equal(a, b)

    @settings(max_examples=40, deadline=None)
    @given(case=_frame_pairs(), data=st.data())
    def test_sample_bilinear_widens_only_the_samples(self, case, data):
        frame = case[0]
        points = data.draw(_points(frame.shape, 1))
        xs, ys = points[:, 0], points[:, 1]
        got = sample_bilinear(frame, xs, ys)
        assert _bits_equal(got, sample_bilinear(frame.astype(np.float64), xs, ys))


class TestKernelsOnFloat32Level0:
    """Drawn frames, border points and level counts: LK and block motion on
    a float32-level-0 pyramid equal the same on its float64 twin."""

    @settings(max_examples=80, deadline=None)
    @given(case=_frame_pairs(), radius=st.integers(1, 7), data=st.data())
    def test_track_features(self, case, radius, data):
        prev, nxt, levels = case
        params = LKParams(
            window_radius=radius,
            pyramid_levels=levels,
            max_iterations=data.draw(st.integers(1, 10)),
        )
        points = data.draw(_points(prev.shape, radius))
        (prev32, prev64), (next32, next64) = (_twins(f, levels) for f in (prev, nxt))
        got = track_features(prev32, next32, points, params)
        expected = track_features(prev64, next64, points, params)
        assert _bits_equal(got.points, expected.points)
        assert np.array_equal(got.status, expected.status)
        assert _bits_equal(got.residual, expected.residual)

    @settings(max_examples=80, deadline=None)
    @given(
        case=_frame_pairs(),
        block_size=st.integers(2, 10),
        coarse=st.integers(1, 4),
        refine=st.integers(1, 2),
        data=st.data(),
    )
    def test_block_motion_field(self, case, block_size, coarse, refine, data):
        prev, nxt, levels = case
        params = BlockMotionParams(
            block_size=block_size,
            coarse_radius=coarse,
            refine_radius=refine,
            pyramid_levels=levels,
        )
        points = data.draw(_points(prev.shape, block_size // 2))
        (prev32, prev64), (next32, next64) = (_twins(f, levels) for f in (prev, nxt))
        got = block_motion_field(prev32, next32, points, params)
        expected = block_motion_field(prev64, next64, points, params)
        assert _bits_equal(got.vectors, expected.vectors)
        assert _bits_equal(got.cost, expected.cost)
        assert np.array_equal(got.valid, expected.valid)
