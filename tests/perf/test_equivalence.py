"""The optimisation contract: bit-identical output vs the frozen pre-PR
implementations, on the bench workloads and on off-nominal variants.

The golden-trace digests (tests/integration/test_golden_trace.py) pin the
full pipelines; these tests localise the same guarantee to the two
rewritten kernels, so a future regression points at the kernel and not at
"some digest changed"."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis.extra import numpy as hnp

from repro.perf import reference, workloads
from repro.vision.block_motion import BlockMotionParams, block_motion_field
from repro.vision.features import suppress_min_distance
from repro.vision.image import gaussian_blur, sample_bilinear
from repro.vision.optical_flow import LKParams, track_features


def _textured(shape: tuple[int, int], seed: int) -> np.ndarray:
    """Smoothed noise: enough gradient structure for LK and SAD to lock on."""
    return gaussian_blur(np.random.default_rng(seed).random(shape), sigma=1.5)


def _assert_same_flow(prev, nxt, points, params):
    """Every point's position, status and residual equal the reference's
    bit for bit, failed points included."""
    optimized = track_features(prev, nxt, points, params)
    expected = reference.track_features_reference(prev, nxt, points, params)
    bits = np.uint64
    assert np.array_equal(optimized.points.view(bits), expected.points.view(bits))
    assert np.array_equal(optimized.status, expected.status)
    assert np.array_equal(optimized.residual.view(bits), expected.residual.view(bits))
    return optimized


def _assert_same_field(prev, nxt, points, params):
    optimized = block_motion_field(prev, nxt, points, params)
    expected = reference.block_motion_field_reference(prev, nxt, points, params)
    assert np.array_equal(optimized.vectors, expected.vectors)
    assert np.array_equal(optimized.cost, expected.cost)
    assert np.array_equal(optimized.valid, expected.valid)
    return optimized


class TestNMSEquivalence:
    @pytest.mark.parametrize(
        "min_distance, max_corners",
        [(4.0, 100), (3.0, 100), (7.5, 40), (1.0, 500), (4.0, 10_000)],
    )
    def test_matches_reference_selection(self, min_distance, max_corners):
        wl = workloads.make_nms_workload(
            min_distance=min_distance, max_corners=max_corners
        )
        optimized = suppress_min_distance(
            wl.candidate_xs, wl.candidate_ys, wl.shape, min_distance, max_corners
        )
        expected = reference.suppress_min_distance_reference(
            wl.candidate_xs, wl.candidate_ys, min_distance, max_corners
        )
        assert np.array_equal(optimized, expected)

    def test_empty_candidates(self):
        empty = np.array([], dtype=np.intp)
        out = suppress_min_distance(empty, empty, (32, 32), 4.0, 10)
        assert out.shape == (0, 2)


class TestLKEquivalence:
    @pytest.mark.parametrize(
        "num_points, frame_gap, params",
        [
            (300, 2, None),  # the bench workload itself
            (60, 1, None),
            (120, 4, None),  # larger motion -> more early deactivations
            (80, 2, LKParams(pyramid_levels=1)),
            (80, 2, LKParams(max_iterations=3)),
            (80, 2, LKParams(max_iterations=1)),
        ],
    )
    def test_bitwise_identical_flow(self, num_points, frame_gap, params):
        wl = workloads.make_lk_workload(
            num_points=num_points, frame_gap=frame_gap, params=params
        )
        _assert_same_flow(wl.pyramid_a, wl.pyramid_b, wl.points, wl.params)

    # Content moves by (+3, +2) between two 60x80 crops of one canvas.  The
    # points sit on, or within window_radius of, the frame border, so their
    # windows sample clamped coordinates.
    _CANVAS = _textured((90, 120), 3)
    _PREV = _CANVAS[15:75, 20:100]
    _NEXT = _CANVAS[13:73, 17:97]
    _EDGE_POINTS = np.array(
        [
            [0.0, 0.0], [3.0, 30.0], [6.5, 2.0], [40.0, 0.5], [30.0, 30.0],
            [72.0, 20.0], [76.5, 30.0], [77.0, 45.0], [79.0, 59.0],
            [75.0, 55.5], [40.0, 57.0], [60.0, 52.0],
        ]
    )

    @pytest.mark.parametrize("params", [None, LKParams(max_iterations=1)])
    def test_points_near_the_border(self, params):
        _assert_same_flow(self._PREV, self._NEXT, self._EDGE_POINTS, params)

    @pytest.mark.parametrize("pyramid_levels", [1, 3])
    def test_flow_leaving_the_frame(self, pyramid_levels):
        """A 5x5 window keeps points two pixels from the edge trackable, and
        the flow carries some of them past it: their last iterations and
        residual windows sample clamped coordinates."""
        params = LKParams(window_radius=2, pyramid_levels=pyramid_levels)
        result = _assert_same_flow(self._PREV, self._NEXT, self._EDGE_POINTS, params)
        assert (result.points > [79.0, 59.0]).any()

    def test_single_point(self):
        wl = workloads.make_lk_workload(num_points=40)
        _assert_same_flow(wl.pyramid_a, wl.pyramid_b, wl.points[:1], wl.params)

    def test_no_points(self):
        wl = workloads.make_lk_workload(num_points=40)
        empty = np.zeros((0, 2), dtype=np.float64)
        result = track_features(wl.pyramid_a, wl.pyramid_b, empty, wl.params)
        assert result.points.shape == (0, 2)


@st.composite
def _lk_cases(draw):
    """A textured frame pair, LK params, and points that stress the window
    support: within ``window_radius`` of every border, clustered so their
    windows overlap, repeated exactly, and outside the frame.  Sizes reach
    down to frames whose coarse levels are narrower than one window."""
    h = draw(st.integers(6, 72))
    w = draw(st.integers(6, 72))
    radius = draw(st.integers(1, 10))
    params = LKParams(
        window_radius=radius,
        pyramid_levels=draw(st.integers(1, 3)),
        max_iterations=draw(st.integers(1, 4)),
    )
    seed = draw(st.integers(0, 2**16))
    canvas = _textured((h + 4, w + 4), seed)
    dy, dx = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    prev, nxt = canvas[2 : h + 2, 2 : w + 2], canvas[dy : h + dy, dx : w + dx]

    def coord(extent: int):
        edge = min(radius, extent - 1)
        return st.one_of(
            st.sampled_from([float(edge), float(extent - 1 - edge)]),
            st.floats(0.0, float(edge)),
            st.floats(float(extent - 1 - edge), float(extent - 1)),
            st.floats(0.0, float(extent - 1)),
            st.floats(-12.0, -0.01),
            st.floats(extent - 0.99, extent + 12.0),
        )

    points = draw(st.lists(st.tuples(coord(w), coord(h)), min_size=1, max_size=16))
    centre = points[0]
    jitter = st.floats(-float(radius), float(radius))
    points += [
        (centre[0] + draw(jitter), centre[1] + draw(jitter))
        for _ in range(draw(st.integers(0, 8)))
    ]
    points += draw(st.lists(st.sampled_from(points), max_size=4))
    return prev, nxt, np.array(points, dtype=np.float64), params


class TestLKWindowGradients:
    """Scharr on the window support against the reference's full-frame
    Scharr, on generated inputs and at both sides of the switch to the
    full-level sweep."""

    @given(_lk_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_full_frame_scharr(self, case):
        prev, nxt, points, params = case
        _assert_same_flow(prev, nxt, points, params)

    @given(_lk_cases())
    @settings(max_examples=150, deadline=None)
    def test_planes_exact_on_every_tap(self, case):
        """Every pixel a window tap reads, at every level, holds the
        full-frame gradient bit for bit, even where no output depends on
        it.  The scratch planes are poisoned first, so a pixel the support
        misses reads NaN instead of a stale value that happens to be right."""
        from repro.vision.image import (
            _bilinear_taps,
            _scratch_buffer,
            build_pyramid,
            image_gradients,
        )
        from repro.vision.optical_flow import _window_axes, _window_gradients

        prev, _, points, params = case
        radius = params.window_radius
        images = build_pyramid(prev, params.pyramid_levels)
        taps = []
        for level, image in enumerate(images):
            # Per-axis window coordinates, as track_features builds them.
            wx, wy = _window_axes(points * 0.5**level, radius)
            taps.append(_bilinear_taps(image.shape, wx, wy))
            _scratch_buffer("lk.ix", image.shape)[...] = np.nan
            _scratch_buffer("lk.iy", image.shape)[...] = np.nan
        planes = _window_gradients(images, taps, radius)
        bits = np.uint64
        for image, level_taps, level_planes in zip(images, taps, planes):
            offsets = (0, 1, level_taps.width, level_taps.width + 1)
            read = np.concatenate([level_taps.base + offset for offset in offsets])
            for plane, full in zip(level_planes, image_gradients(image)):
                assert np.array_equal(
                    plane.ravel()[read].view(bits), full.ravel()[read].view(bits)
                )

    # A 64x64 level under 15x15 windows is a 4x4 grid of 16-pixel tiles,
    # one window's taps wide, and a window centred at 23 + 16k reads
    # exactly one tile.  With its 1-pixel halo a tile costs 18x18 pixels:
    # six stay under half the level, the most the support path takes, and
    # a seventh tips the level to the full sweep.
    _FRAME = _textured((64, 64), 9)
    _CENTRES = [(23.0 + 16 * i, 23.0 + 16 * j) for j in range(3) for i in range(3)]

    @pytest.mark.parametrize("tiles, full_sweep", [(1, False), (6, False), (7, True)])
    def test_support_switch(self, monkeypatch, tiles, full_sweep):
        from repro.vision import optical_flow

        calls = []
        on_tiles = optical_flow._gradients_on_tiles

        def spy(tiled, size):
            calls.extend(origins.shape[0] for _, origins, _, _ in tiled)
            return on_tiles(tiled, size)

        monkeypatch.setattr(optical_flow, "_gradients_on_tiles", spy)
        points = np.array(self._CENTRES[:tiles])
        nxt = np.roll(self._FRAME, (1, -1), axis=(0, 1))
        _assert_same_flow(self._FRAME, nxt, points, LKParams(pyramid_levels=1))
        assert calls == ([] if full_sweep else [tiles])


@st.composite
def _per_axis_cases(draw):
    """LK inputs aimed at the per-axis window coordinates.  Every case has
    a point past or on each of the four borders, so windows clamp at all
    of them; the coarsest level is at most three pixels wider than a
    window (or than 8 pixels, the least a halved level keeps); some
    coordinates sit within one ulp of an integer, at every level when
    the integer is a multiple of the coarsest level's scale; and the
    content shifts by up to six pixels either way, so flows carry
    windows off the frame."""
    radius = draw(st.integers(1, 7))
    levels = draw(st.integers(1, 3))
    # A pyramid halves (rounding up) only while its level is at least 16
    # pixels, so coarse levels of multi-level pyramids are at least 8 wide.
    narrowest = max(2 * radius + 1, 8 if levels > 1 else 2)
    scale = 2 ** (levels - 1)
    h, w = (
        draw(st.integers(narrowest, narrowest + 3)) * scale - draw(st.integers(0, 1))
        for _ in range(2)
    )
    params = LKParams(
        window_radius=radius,
        pyramid_levels=levels,
        max_iterations=draw(st.integers(1, 10)),
    )
    margin = 6
    canvas = _textured((h + 2 * margin, w + 2 * margin), draw(st.integers(0, 2**16)))
    dy, dx = (draw(st.integers(0, 2 * margin)) for _ in range(2))
    prev = canvas[margin : h + margin, margin : w + margin]
    nxt = canvas[dy : h + dy, dx : w + dx]

    def near_integer(extent: int) -> float:
        step = draw(st.sampled_from([1, scale]))
        whole = float(step * draw(st.integers(0, (extent - 1) // step)))
        return float(np.nextafter(whole, draw(st.sampled_from([-np.inf, np.inf]))))

    def near_edge(low: bool, extent: int) -> float:
        depth = draw(st.floats(-float(radius + 2), float(radius)))
        return depth if low else extent - 1 - depth

    def anywhere(extent: int) -> float:
        if draw(st.booleans()):
            return near_integer(extent)
        return draw(st.floats(0.0, float(extent - 1)))

    points = [
        (near_edge(True, w), anywhere(h)),
        (near_edge(False, w), anywhere(h)),
        (anywhere(w), near_edge(True, h)),
        (anywhere(w), near_edge(False, h)),
        (near_integer(w), near_integer(h)),
    ]
    points += draw(
        st.lists(
            st.tuples(st.floats(-3.0, w + 2.0), st.floats(-3.0, h + 2.0)),
            max_size=6,
        )
    )
    return prev, nxt, np.array(points, dtype=np.float64), params


class TestPerAxisTaps:
    """Window coordinates built per axis against the reference's full
    window grid."""

    @given(_per_axis_cases())
    @settings(max_examples=200, deadline=None)
    def test_flow_matches_reference_bit_for_bit(self, case):
        prev, nxt, points, params = case
        _assert_same_flow(prev, nxt, points, params)


class TestBlockMotionEquivalence:
    """The vectorised coarse-to-fine block matcher against the frozen
    per-block per-candidate Python scan, on the MVE bench workload and
    off-nominal variants (single-level search, tighter refine radius,
    larger blocks, wider frame gap)."""

    @pytest.mark.parametrize(
        "frame_gap, params",
        [
            (2, None),  # the bench workload itself
            (1, None),
            (4, None),  # larger motion -> more clipped candidates
            (2, BlockMotionParams(pyramid_levels=1)),
            (2, BlockMotionParams(refine_radius=1)),
            (2, BlockMotionParams(block_size=24, coarse_radius=2)),
        ],
    )
    def test_bitwise_identical_field(self, frame_gap, params):
        wl = workloads.make_mve_workload(frame_gap=frame_gap, params=params)
        _assert_same_field(wl.pyramid_a, wl.pyramid_b, wl.points, wl.params)

    # 32x40 frames keep three pyramid levels, the coarsest 8x10: narrower
    # than the (B+2r)-wide search window of most block sizes and radii
    # below.  Centres sit on the four frame corners and one pixel outside.
    _SMALL = (32, 40)
    _CORNERS = np.array(
        [
            [0.0, 0.0], [39.0, 0.0], [0.0, 31.0], [39.0, 31.0],
            [-1.0, -1.0], [40.0, -1.0], [-1.0, 32.0], [40.0, 32.0],
            [20.0, 16.0],
        ]
    )

    @pytest.mark.parametrize("block_size", [3, 5, 7])
    @pytest.mark.parametrize("radius", [1, 2, 3, 4])
    def test_odd_blocks_and_radii_at_frame_corners(self, block_size, radius):
        prev = _textured(self._SMALL, 1)
        nxt = np.roll(prev, (2, -3), axis=(0, 1))
        params = BlockMotionParams(
            block_size=block_size, coarse_radius=radius, refine_radius=radius
        )
        _assert_same_field(prev, nxt, self._CORNERS, params)

    @pytest.mark.parametrize("pyramid_levels, reach", [(1, 3), (3, 15)])
    def test_constant_frame_ties_go_to_the_first_candidate(
        self, pyramid_levels, reach
    ):
        """Every candidate's SAD is 0, so the first in row-major (dy, dx)
        order, (-r, -r), wins at every level and compounds to minus the
        full reach."""
        flat = np.full(self._SMALL, 0.5)
        params = BlockMotionParams(pyramid_levels=pyramid_levels)
        field = _assert_same_field(flat, flat, self._CORNERS, params)
        assert np.all(field.vectors == -reach)

    def test_single_block(self):
        wl = workloads.make_mve_workload()
        _assert_same_field(wl.pyramid_a, wl.pyramid_b, wl.points[:1], wl.params)

    def test_no_blocks(self):
        wl = workloads.make_mve_workload()
        empty = np.zeros((0, 2), dtype=np.float64)
        result = block_motion_field(wl.pyramid_a, wl.pyramid_b, empty, wl.params)
        assert result.vectors.shape == (0, 2)
        assert result.valid.shape == (0,)


@st.composite
def _sampling_cases(draw):
    """An image plus coordinates inside it, outside it, exactly on its last
    column or row, signed zeros and infinities.  Pixels are often signed
    zeros too: a ``-0.0`` coordinate changes the result's bits only where
    it meets a ``-0.0`` pixel."""
    h = draw(st.integers(2, 12))
    w = draw(st.integers(2, 12))
    pixels = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0, width=64))
    image = draw(hnp.arrays(np.float64, (h, w), elements=pixels))
    n = draw(st.integers(1, 24))

    def coords(extent: int):
        special = st.sampled_from([0.0, -0.0, float(extent - 1), np.inf, -np.inf])
        return st.lists(
            st.one_of(st.floats(-3.0, extent + 3.0, width=64), special),
            min_size=n,
            max_size=n,
        )

    return image, np.array(draw(coords(w))), np.array(draw(coords(h)))


class TestSamplerEquivalence:
    """The split bilinear sampler (coordinate pass + gather) against the
    frozen one-piece sampler, compared as raw bits, so even a flipped
    sign of zero fails."""

    @given(_sampling_cases())
    # np.maximum(-0.0, 0.0) can return +0.0 where np.clip keeps -0.0; this
    # case then reads -0.0 through np.clip and +0.0 through max/min clamps.
    @example((np.array([[-0.0, 1.0], [1.0, 1.0]]), np.array([-0.0]), np.array([-0.0])))
    @settings(max_examples=300, deadline=None)
    def test_live_sampler_matches_frozen_bit_for_bit(self, case):
        image, xs, ys = case
        expected = reference.sample_bilinear_reference(image, xs, ys)
        assert np.array_equal(
            sample_bilinear(image, xs, ys).view(np.uint64), expected.view(np.uint64)
        )

    @given(_sampling_cases())
    @settings(max_examples=200, deadline=None)
    def test_per_axis_sampling_matches_full_grid(self, case):
        """Columns passed as ``(1, n)`` and rows as ``(n, 1)``, the way
        Lucas-Kanade passes its windows, sample exactly what the frozen
        sampler reads on the meshgrid of the same coordinates."""
        image, xs, ys = case
        grid_x, grid_y = np.meshgrid(xs, ys)
        expected = reference.sample_bilinear_reference(image, grid_x, grid_y)
        got = sample_bilinear(image, xs[None, :], ys[:, None])
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestRenderEquivalence:
    """The renderer fast path (separable sampling, background memo, fused
    warp gather, memoized warp tables) against the frozen meshgrid
    reference — on static-camera, jittered, and panning scenes, so both
    the memo-hit and the memo-miss background paths are pinned."""

    @pytest.mark.parametrize(
        "scenario, seed",
        [
            ("highway_surveillance", 7),  # static camera: background memo path
            ("racetrack", 7),             # camera jitter: per-frame offsets
            ("car_highway", 3),           # camera pan + jitter
            ("meeting_room", 11),         # static, sparse scene
        ],
    )
    def test_render_frame_bitwise_identical(self, scenario, seed):
        from repro.video.dataset import make_clip

        clip = make_clip(scenario, seed=seed, num_frames=5)
        ref = reference.ReferenceFrameRenderer(clip.renderer.scene)
        for index in range(5):
            assert np.array_equal(
                clip.renderer.render_frame(index), ref.render_frame(index)
            ), f"{scenario} frame {index} diverged"

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    @pytest.mark.parametrize("age", [0, 3, 17])
    def test_warp_modulation_memo_bitwise_identical(self, seed, age):
        from repro.video.render import _warp_modulation

        expected = reference.warp_modulation_reference(seed, 24.0, age)
        # Twice: the first call fills the per-seed table memo, the second
        # reads it; both must reproduce the reference bit-for-bit.
        assert _warp_modulation(seed, 24.0, age) == expected
        assert _warp_modulation(seed, 24.0, age) == expected


class TestConvEquivalence:
    """The fused separable-convolution engine (batched tap sweeps, scratch
    reuse, blur+decimate pyramid) against the frozen allocate-per-tap
    references.  Shapes cover odd/even extents, the batch-dispatch
    threshold, and the tiny-image reflect-pad fallback; sigmas cover
    radius 2 through 9."""

    SHAPES = [(180, 320), (181, 321), (64, 48), (17, 33), (8, 8)]
    SIGMAS = [0.5, 1.0, 1.5, 3.0]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_gaussian_blur_bitwise_identical(self, shape, sigma):
        from repro.vision.image import gaussian_blur

        rng = np.random.default_rng(hash(shape) % 2**32)
        image = rng.standard_normal(shape)  # negatives and near-zeros included
        assert np.array_equal(
            gaussian_blur(image, sigma),
            reference.gaussian_blur_reference(image, sigma),
        )

    @pytest.mark.parametrize("channels, shape", [(3, (21, 41)), (4, (180, 320))])
    @pytest.mark.parametrize("sigma", [0.5, 1.5, 3.0])
    def test_batched_blur_matches_reference_per_channel(self, channels, shape, sigma):
        """Both dispatch arms — the (3,21,41) stack stays under the batch
        threshold, the (4,180,320) stack goes through the per-channel
        loop — must match the frozen single-image blur."""
        from repro.vision.image import gaussian_blur_batched

        rng = np.random.default_rng(99)
        stack = rng.random((channels, *shape))
        out = gaussian_blur_batched(stack, sigma)
        for c in range(channels):
            assert np.array_equal(
                out[c], reference.gaussian_blur_reference(stack[c], sigma)
            ), f"channel {c} diverged"

    @pytest.mark.parametrize(
        "shape", [(180, 320), (181, 321), (64, 48), (17, 33), (2, 2), (3, 3)]
    )
    def test_pyramid_down_bitwise_identical(self, shape):
        from repro.vision.image import pyramid_down

        rng = np.random.default_rng(5)
        image = rng.random(shape)
        assert np.array_equal(
            pyramid_down(image), reference.pyramid_down_reference(image)
        )

    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(180, 320), (181, 321)])
    def test_build_pyramid_bitwise_identical(self, levels, shape):
        from repro.vision.image import build_pyramid

        rng = np.random.default_rng(11)
        image = rng.random(shape)
        got = build_pyramid(image, levels)
        expected = reference.build_pyramid_reference(image, levels)
        assert len(got) == len(expected)
        for level, (a, b) in enumerate(zip(got, expected)):
            assert np.array_equal(a, b), f"level {level} diverged"

    @pytest.mark.parametrize(
        "shape", [(180, 320), (17, 33), (2, 9), (9, 2), (1, 9), (9, 1), (1, 1)]
    )
    def test_image_gradients_bitwise_identical(self, shape):
        """Including degenerate 1-pixel axes, where reflect padding
        becomes edge replication."""
        from repro.vision.image import image_gradients

        rng = np.random.default_rng(23)
        image = rng.standard_normal(shape)
        gx, gy = image_gradients(image)
        ex, ey = reference.image_gradients_reference(image)
        assert np.array_equal(gx, ex)
        assert np.array_equal(gy, ey)

    @pytest.mark.parametrize("window_sigma", [1.0, 1.5, 2.5])
    def test_shi_tomasi_bitwise_identical_on_bench_rois(self, window_sigma):
        from repro.vision.features import shi_tomasi_response

        wl = workloads.make_conv_workload(window_sigma=window_sigma)
        for roi in wl.rois:
            assert np.array_equal(
                shi_tomasi_response(roi, window_sigma),
                reference.shi_tomasi_response_reference(roi, window_sigma),
            )

    def test_shi_tomasi_bitwise_identical_full_frame(self):
        from repro.vision.features import shi_tomasi_response

        wl = workloads.make_conv_workload()
        assert np.array_equal(
            shi_tomasi_response(wl.frame),
            reference.shi_tomasi_response_reference(wl.frame),
        )

    def test_good_features_masked_and_unmasked_unchanged(self):
        """good_features_to_track is downstream of every fused kernel; its
        selections on the bench frame (with and without a mask) must be
        what the frozen response produces."""
        from repro.vision.features import (
            good_features_to_track,
            suppress_min_distance,
        )

        wl = workloads.make_conv_workload()
        frame = wl.frame
        mask = np.zeros(frame.shape, dtype=bool)
        mask[40:140, 60:260] = True
        for use_mask in (False, True):
            got = good_features_to_track(
                frame,
                max_corners=80,
                quality_level=0.02,
                min_distance=3.0,
                mask=mask if use_mask else None,
            )
            # Recompute the selection from the frozen response chain.
            response = reference.shi_tomasi_response_reference(frame)
            response[:1, :] = response[-1:, :] = 0.0
            response[:, :1] = response[:, -1:] = 0.0
            if use_mask:
                response[~mask] = 0.0
            peak = float(response.max())
            assert peak > 0.0
            ys, xs = np.nonzero(response > peak * 0.02)
            order = np.argsort(response[ys, xs])[::-1]
            expected = suppress_min_distance(
                xs[order], ys[order], frame.shape, 3.0, 80
            )
            assert np.array_equal(got, expected)

    def test_workload_rois_match_annotations(self):
        """The conv workload's ROIs are real annotated boxes of the bench
        frame (the scale the tracker actually runs Shi-Tomasi at)."""
        wl = workloads.make_conv_workload()
        assert len(wl.rois) >= 1
        assert wl.product_stack.shape == (3, *wl.rois[0].shape)
        for roi in wl.rois:
            assert roi.shape[0] >= 6 and roi.shape[1] >= 6
            assert roi.base is None  # owns its memory; benches reuse it
