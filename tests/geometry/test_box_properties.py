"""Property-based tests for boxes and IoU (hypothesis)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.geometry import Box, clip_box, iou, union_box

finite = st.floats(
    min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False
)
size = st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False)
positive_size = st.floats(
    min_value=0.1, max_value=1e4, allow_nan=False, allow_infinity=False
)


@st.composite
def boxes(draw, min_size: float = 0.0):
    strategy = positive_size if min_size > 0 else size
    return Box(draw(finite), draw(finite), draw(strategy), draw(strategy))


@given(boxes(), boxes())
def test_iou_symmetric(a, b):
    assert iou(a, b) == iou(b, a)


@given(boxes(), boxes())
def test_iou_bounded(a, b):
    value = iou(a, b)
    assert 0.0 <= value <= 1.0 + 1e-9


@given(boxes(min_size=0.1))
def test_iou_self_is_one(box):
    assert abs(iou(box, box) - 1.0) < 1e-9


@given(boxes(min_size=0.1), boxes(min_size=0.1), finite, finite)
def test_iou_translation_invariant(a, b, dx, dy):
    # min_size keeps box dimensions representable after the shift; a
    # denormal-width box legitimately collapses once translated far away.
    before = iou(a, b)
    after = iou(a.shifted(dx, dy), b.shifted(dx, dy))
    assert abs(before - after) < 1e-6


@given(boxes(min_size=0.1), st.floats(min_value=0.1, max_value=100))
def test_iou_zero_once_disjoint(box, gap):
    other = box.shifted(box.width + gap, 0.0)
    assert iou(box, other) == 0.0


@given(boxes(), boxes())
def test_intersection_commutative(a, b):
    ab = a.intersection(b)
    ba = b.intersection(a)
    assert ab.as_tuple() == ba.as_tuple()


@given(boxes(), boxes())
def test_intersection_contained_in_both(a, b):
    inter = a.intersection(b)
    if inter.area > 0:
        assert inter.left >= min(a.left, b.left) - 1e-9
        assert inter.area <= min(a.area, b.area) + 1e-6


@given(st.lists(boxes(), min_size=1, max_size=8))
def test_union_box_contains_all(box_list):
    hull = union_box(box_list)
    for box in box_list:
        assert hull.left <= box.left + 1e-9
        assert hull.top <= box.top + 1e-9
        assert hull.right >= box.right - 1e-9
        assert hull.bottom >= box.bottom - 1e-9


@given(boxes(), st.floats(min_value=1, max_value=1e4), st.floats(min_value=1, max_value=1e4))
@settings(max_examples=200)
def test_clip_box_inside_frame(box, width, height):
    clipped = clip_box(box, width, height)
    assert clipped.left >= 0.0
    assert clipped.top >= 0.0
    assert clipped.right <= width + 1e-9
    assert clipped.bottom <= height + 1e-9
    assert clipped.area <= box.area + 1e-6


@given(boxes(min_size=0.5))
def test_expanded_then_iou_monotone(box):
    """Expanding a box keeps or lowers IoU with the original, never < 0."""
    grown = Box.from_corners(box.left - 1.0, box.top - 1.0, box.right + 1.0, box.bottom + 1.0)
    value = iou(box, grown)
    assert 0.0 < value <= 1.0
