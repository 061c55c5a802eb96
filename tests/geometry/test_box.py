"""Unit tests for the Box primitive."""

import math

import pytest

from repro.geometry import Box, clip_box, union_box


class TestConstruction:
    def test_basic_fields(self):
        box = Box(10.0, 20.0, 30.0, 40.0)
        assert box.left == 10.0
        assert box.top == 20.0
        assert box.right == 40.0
        assert box.bottom == 60.0
        assert box.area == 1200.0
        assert box.center == (25.0, 40.0)

    def test_zero_area_box_is_legal(self):
        box = Box(5.0, 5.0, 0.0, 10.0)
        assert box.area == 0.0

    @pytest.mark.parametrize("width,height", [(-1.0, 5.0), (5.0, -0.001)])
    def test_negative_dimensions_rejected(self, width, height):
        with pytest.raises(ValueError):
            Box(0.0, 0.0, width, height)

    def test_from_corners(self):
        box = Box.from_corners(1.0, 2.0, 4.0, 6.0)
        assert box.as_tuple() == (1.0, 2.0, 3.0, 4.0)

    def test_from_corners_inverted_clamps_to_zero(self):
        box = Box.from_corners(4.0, 2.0, 1.0, 6.0)
        assert box.width == 0.0
        assert box.height == 4.0

    def test_from_center_roundtrip(self):
        box = Box.from_center(50.0, 60.0, 20.0, 10.0)
        assert box.center == (50.0, 60.0)
        assert box.width == 20.0
        assert box.height == 10.0


class TestTransforms:
    def test_shifted(self):
        box = Box(0.0, 0.0, 10.0, 10.0).shifted(3.0, -2.0)
        assert box.as_tuple() == (3.0, -2.0, 10.0, 10.0)

    def test_scaled_preserves_center(self):
        box = Box(0.0, 0.0, 10.0, 20.0).scaled(2.0)
        assert box.center == (5.0, 10.0)
        assert box.width == 20.0
        assert box.height == 40.0

    def test_scaled_anisotropic(self):
        box = Box(0.0, 0.0, 10.0, 10.0).scaled(2.0, 0.5)
        assert box.width == 20.0
        assert box.height == 5.0



class TestIntersection:
    def test_overlapping(self):
        a = Box(0.0, 0.0, 10.0, 10.0)
        b = Box(5.0, 5.0, 10.0, 10.0)
        inter = a.intersection(b)
        assert inter.as_tuple() == (5.0, 5.0, 5.0, 5.0)

    def test_disjoint_is_zero_area(self):
        a = Box(0.0, 0.0, 5.0, 5.0)
        b = Box(10.0, 10.0, 5.0, 5.0)
        assert a.intersection(b).area == 0.0

    def test_contained(self):
        outer = Box(0.0, 0.0, 100.0, 100.0)
        inner = Box(10.0, 10.0, 5.0, 5.0)
        assert outer.intersection(inner).as_tuple() == inner.as_tuple()


class TestPixelSlice:
    def test_interior_box(self):
        rows, cols = Box(2.2, 3.8, 4.0, 2.0).pixel_slice((20, 30))
        assert rows == slice(3, 6)
        assert cols == slice(2, 7)

    def test_clipped_to_frame(self):
        rows, cols = Box(-5.0, -5.0, 100.0, 100.0).pixel_slice((20, 30))
        assert rows == slice(0, 20)
        assert cols == slice(0, 30)

    def test_fully_outside(self):
        rows, cols = Box(100.0, 100.0, 5.0, 5.0).pixel_slice((20, 30))
        assert rows.start == rows.stop or rows.start >= 20
        assert cols.start >= 30


class TestUnionAndClip:
    def test_union_box(self):
        hull = union_box([Box(0, 0, 2, 2), Box(5, 5, 2, 2)])
        assert hull.as_tuple() == (0.0, 0.0, 7.0, 7.0)

    def test_union_box_single(self):
        box = Box(1, 2, 3, 4)
        assert union_box([box]).as_tuple() == box.as_tuple()

    def test_union_box_empty_raises(self):
        with pytest.raises(ValueError):
            union_box([])

    def test_clip_box_interior_unchanged(self):
        box = Box(1, 1, 2, 2)
        assert clip_box(box, 10, 10).as_tuple() == box.as_tuple()

    def test_clip_box_partial(self):
        clipped = clip_box(Box(-5, 2, 10, 3), 10, 10)
        assert clipped.as_tuple() == (0.0, 2.0, 5.0, 3.0)

    def test_clip_box_fully_outside(self):
        clipped = clip_box(Box(20, 20, 5, 5), 10, 10)
        assert clipped.area == 0.0

    def test_clip_preserves_finite(self):
        clipped = clip_box(Box(0, 0, math.inf, 5), 10, 10)
        assert clipped.width == 10.0
