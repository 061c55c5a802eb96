"""Block-matching motion field: reference equality, shift recovery, geometry."""

import numpy as np
import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.geometry import Box
from repro.perf.reference import block_motion_field_reference
from repro.vision.block_motion import (
    BlockMotionParams,
    block_motion_field,
    box_block_centers,
)
from repro.vision.image import gaussian_blur
from repro.vision.optical_flow import FramePyramid

# One fixed texture for all examples (hypothesis shrinks over the shift).
# Smoothed noise over a larger canvas lets integer crops express pure
# translation exactly — no resampling, so recovery can be exact.
_RNG = np.random.default_rng(7)
_CANVAS = gaussian_blur(_RNG.random((180, 220)), sigma=2.0)
_MARGIN = 16  # >= the matcher's displacement reach with default params
_HEIGHT, _WIDTH = 120, 160
_POINTS = np.stack(
    [_RNG.uniform(24, _WIDTH - 24, 25), _RNG.uniform(24, _HEIGHT - 24, 25)], axis=1
)


def _translated_pair(dx: int, dy: int) -> tuple[np.ndarray, np.ndarray]:
    """Two crops of the same canvas whose content moves by exactly (dx, dy)."""
    prev = _CANVAS[_MARGIN : _MARGIN + _HEIGHT, _MARGIN : _MARGIN + _WIDTH]
    nxt = _CANVAS[
        _MARGIN - dy : _MARGIN - dy + _HEIGHT, _MARGIN - dx : _MARGIN - dx + _WIDTH
    ]
    return prev, nxt


integer_shift = st.integers(min_value=-5, max_value=5)


@given(dx=integer_shift, dy=integer_shift)
@settings(max_examples=40, deadline=None)
def test_integer_shifts_recovered_exactly(dx, dy):
    """Pure integer translation is recovered exactly by every valid block.

    The coarsest level's ±3 scan lands within 1 of the true shift after
    doubling, and each finer level's ±1 refinement absorbs the remainder,
    so shifts up to the reach are recovered with zero error — the property
    that makes per-box median aggregation trustworthy.
    """
    prev, nxt = _translated_pair(dx, dy)
    field = block_motion_field(prev, nxt, _POINTS)
    assert field.valid.all()
    assert np.array_equal(
        field.vectors, np.tile([float(dx), float(dy)], (_POINTS.shape[0], 1))
    )


def test_matches_reference_bit_for_bit():
    prev, nxt = _translated_pair(3, -2)
    # Perturb so the match is non-trivial and costs are nonzero.
    nxt = np.clip(nxt + 0.01 * gaussian_blur(_RNG.random(nxt.shape), 1.0), 0.0, 1.0)
    for params in (
        BlockMotionParams(),
        BlockMotionParams(block_size=6, coarse_radius=2, pyramid_levels=2),
        BlockMotionParams(block_size=8, coarse_radius=4, refine_radius=2),
    ):
        fast = block_motion_field(prev, nxt, _POINTS, params)
        slow = block_motion_field_reference(prev, nxt, _POINTS, params)
        assert np.array_equal(fast.vectors, slow.vectors)
        assert np.array_equal(fast.cost, slow.cost)
        assert np.array_equal(fast.valid, slow.valid)


def test_accepts_prebuilt_pyramids():
    prev, nxt = _translated_pair(2, 1)
    params = BlockMotionParams()
    direct = block_motion_field(prev, nxt, _POINTS, params)
    via_pyramids = block_motion_field(
        FramePyramid(prev, params.pyramid_levels),
        FramePyramid(nxt, params.pyramid_levels),
        _POINTS,
        params,
    )
    assert np.array_equal(direct.vectors, via_pyramids.vectors)
    assert np.array_equal(direct.cost, via_pyramids.cost)


def test_empty_points_returns_empty_field():
    prev, nxt = _translated_pair(0, 0)
    field = block_motion_field(prev, nxt, np.zeros((0, 2)))
    assert field.num_blocks == 0
    assert field.vectors.shape == (0, 2)


def test_mismatched_shapes_rejected():
    prev, _ = _translated_pair(0, 0)
    with pytest.raises(ValueError):
        block_motion_field(prev, prev[:-2, :], _POINTS)


def test_occluded_blocks_reported_invalid():
    """Blocks whose content is destroyed fail the match-cost ceiling."""
    prev, nxt = _translated_pair(0, 0)
    nxt = nxt.copy()
    nxt[40:80, 40:80] = 0.0  # hard occlusion
    points = np.array([[60.0, 60.0], [120.0, 30.0]])
    field = block_motion_field(prev, nxt, points)
    assert not field.valid[0]
    assert field.valid[1]


def test_params_validation():
    with pytest.raises(ValueError):
        BlockMotionParams(block_size=1)
    with pytest.raises(ValueError):
        BlockMotionParams(coarse_radius=0)
    with pytest.raises(ValueError):
        BlockMotionParams(refine_radius=0)
    with pytest.raises(ValueError):
        BlockMotionParams(pyramid_levels=0)
    with pytest.raises(ValueError):
        BlockMotionParams(max_match_cost=0.0)


def test_box_block_centers_grid_and_ownership():
    boxes = [Box(16, 16, 32, 24), Box(100, 40, 40, 40)]
    points, owners = box_block_centers(boxes, 320, 240, 8)
    assert points.shape[0] == owners.shape[0]
    for point, owner in zip(points, owners):
        box = boxes[owner]
        assert box.left <= point[0] <= box.right
        assert box.top <= point[1] <= box.bottom
        # Grid alignment: centres sit at k * block + block/2.
        assert (point[0] - 4.0) % 8.0 == 0.0
        assert (point[1] - 4.0) % 8.0 == 0.0
    assert set(owners.tolist()) == {0, 1}


def test_box_block_centers_tiny_box_falls_back_to_centre():
    tiny = Box(50.5, 60.5, 3.0, 3.0)
    points, owners = box_block_centers([tiny], 320, 240, 8)
    assert points.shape == (1, 2)
    assert owners.tolist() == [0]
    assert points[0, 0] == pytest.approx(52.0)
    assert points[0, 1] == pytest.approx(62.0)


def test_box_block_centers_offscreen_box_skipped():
    points, owners = box_block_centers([Box(400, 400, 20, 20)], 320, 240, 8)
    assert points.shape == (0, 2)
    assert owners.shape == (0,)
