"""The microbench suite: the named hot paths of the tracking stack.

Each bench times the live implementation over a seeded workload; the
optimised-in-place paths (good-features NMS, Lucas-Kanade iteration, and
the fused separable-convolution kernels) are also timed against their
frozen pre-PR implementations from :mod:`repro.perf.reference`, with an
output-equality assertion so the recorded speedup is a speedup of the
*same computation*.

``quick`` mode shrinks repeats (not workloads) so CI smoke runs finish in
seconds while timing the identical computation; ``render_frame``, whose
floor sits closest to its figure, keeps its full repeats.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.obs import WORK, work_since
from repro.perf import reference, workloads
from repro.perf.harness import BenchResult, time_callable, time_interleaved
from repro.tracking.mve import MVETracker, MVETrackerConfig
from repro.video import framestore
from repro.video.render import FrameRenderer
from repro.vision.block_motion import BlockMotionField, BlockMotionParams, block_motion_field
from repro.vision.features import shi_tomasi_response, suppress_min_distance
from repro.vision.image import gaussian_blur_batched
from repro.vision.optical_flow import FramePyramid, LKParams, track_features


def _repeats(quick: bool, full: int, number: int = 1) -> tuple[int, int]:
    return (3 if quick else full), number


def bench_gft_nms(quick: bool) -> BenchResult:
    """Good-features min-distance suppression (Shi-Tomasi NMS)."""
    wl = workloads.make_nms_workload()
    optimized = suppress_min_distance(
        wl.candidate_xs, wl.candidate_ys, wl.shape, wl.min_distance, wl.max_corners
    )
    ref = reference.suppress_min_distance_reference(
        wl.candidate_xs, wl.candidate_ys, wl.min_distance, wl.max_corners
    )
    if not np.array_equal(optimized, ref):
        raise AssertionError("NMS optimisation diverged from reference output")
    repeats, number = _repeats(quick, 20, 3)
    optimized_arm, reference_arm = time_interleaved(
        [
            lambda: suppress_min_distance(
                wl.candidate_xs, wl.candidate_ys, wl.shape,
                wl.min_distance, wl.max_corners,
            ),
            lambda: reference.suppress_min_distance_reference(
                wl.candidate_xs, wl.candidate_ys, wl.min_distance, wl.max_corners
            ),
        ],
        repeats, number,
    )
    return BenchResult(
        name="gft_nms",
        hot_path="repro.vision.features.suppress_min_distance",
        workload={
            "scenario": workloads.SCENARIO,
            "seed": workloads.SEED,
            "candidates": int(wl.candidate_xs.size),
            "min_distance": wl.min_distance,
            "max_corners": wl.max_corners,
        },
        optimized=optimized_arm,
        reference=reference_arm,
        notes="disk-stamped blocked raster vs. pure-Python occupancy-grid walk",
    )


def bench_lk_track(quick: bool) -> BenchResult:
    """Pyramidal Lucas-Kanade over prebuilt pyramids."""
    wl = workloads.make_lk_workload()

    def optimized_step():
        return track_features(wl.pyramid_a, wl.pyramid_b, wl.points, wl.params)

    def reference_step():
        return reference.track_features_reference(
            *wl.reference_pyramids, wl.points, wl.params
        )

    optimized, ref = optimized_step(), reference_step()
    if not (
        np.array_equal(optimized.points, ref.points)
        and np.array_equal(optimized.status, ref.status)
        and np.array_equal(optimized.residual, ref.residual)
    ):
        raise AssertionError("LK optimisation diverged from reference output")
    repeats, number = _repeats(quick, 15)
    optimized_arm, reference_arm = time_interleaved(
        [optimized_step, reference_step], repeats, 1
    )
    return BenchResult(
        name="lk_track",
        hot_path="repro.vision.optical_flow.track_features",
        workload={
            "scenario": workloads.SCENARIO,
            "seed": workloads.SEED,
            "points": int(wl.points.shape[0]),
            "frame_gap": 2,
            "frame_shape": list(wl.frame_a.shape),
        },
        optimized=optimized_arm,
        reference=reference_arm,
        notes=(
            "active-row gathering + one per-axis coordinate pass (window "
            "columns and rows clamped and weighted once, only the flat index "
            "broadcast) shared by the level image and both gradients + "
            "Scharr on the window support vs. full-grid resampling every "
            "iteration + full-level Scharr"
        ),
    )


def bench_block_motion_field(quick: bool) -> BenchResult:
    """Coarse-to-fine block matching vs. the frozen per-block reference."""
    wl = workloads.make_mve_workload()
    optimized = block_motion_field(wl.pyramid_a, wl.pyramid_b, wl.points, wl.params)
    ref = reference.block_motion_field_reference(
        *wl.reference_pyramids, wl.points, wl.params
    )
    if not (
        np.array_equal(optimized.vectors, ref.vectors)
        and np.array_equal(optimized.cost, ref.cost)
        and np.array_equal(optimized.valid, ref.valid)
    ):
        raise AssertionError("block matcher diverged from reference output")
    repeats, number = _repeats(quick, 20, 3)
    optimized_arm, reference_arm = time_interleaved(
        [
            lambda: block_motion_field(
                wl.pyramid_a, wl.pyramid_b, wl.points, wl.params
            ),
            lambda: reference.block_motion_field_reference(
                *wl.reference_pyramids, wl.points, wl.params
            ),
        ],
        repeats, number,
    )
    return BenchResult(
        name="block_motion_field",
        hot_path="repro.vision.block_motion.block_motion_field",
        workload={
            "scenario": workloads.SCENARIO,
            "seed": workloads.SEED,
            "blocks": int(wl.points.shape[0]),
            "boxes": len(wl.detections),
            "block_size": wl.params.block_size,
            "frame_gap": wl.frame_gap,
        },
        optimized=optimized_arm,
        reference=reference_arm,
        notes=(
            "one windowed SAD per pyramid level (clamped (N,B+2r,B+2r) "
            "search-window gather, strided candidate views, one reduction, "
            "first-minimum argmin) vs. frozen per-block per-candidate "
            "Python scan"
        ),
    )


class _PrebuiltClip:
    """The MVE bench's stand-in clip: its pyramids are prebuilt, as the
    frame store serves them, so timed steps match blocks but neither
    rebuild nor look up."""

    def __init__(self, wl: workloads.MVEWorkload) -> None:
        self.config = SimpleNamespace(
            frame_width=wl.frame_width, frame_height=wl.frame_height
        )
        self._pyramids = {0: wl.pyramid_a, wl.frame_gap: wl.pyramid_b}

    def motion(
        self, prev_index: int, next_index: int, points: np.ndarray, params: BlockMotionParams
    ) -> BlockMotionField:
        return block_motion_field(
            self._pyramids[prev_index], self._pyramids[next_index], points, params
        )


def bench_mve_track(quick: bool) -> BenchResult:
    """One full MVE tracker step, with the LK tier's step as the yardstick.

    The optimised arm seeds an :class:`MVETracker` from the bench clip's
    annotated detections and propagates one gap-2 step over cache-shared
    pyramids — seeding is free at this tier (no feature extraction), so
    the whole lifecycle slice is the per-step cost.  There is no frozen
    ``reference`` arm (the tier is new); instead ``extra`` records the LK
    tier's step — ``track_features`` over the same frame pair, the
    ``lk_track`` bench's exact computation, timed in turn with the MVE
    step — and the resulting ``speedup_vs_lk_track``, which CI floors
    at 5x.
    """
    wl = workloads.make_mve_workload()
    lk = workloads.make_lk_workload()
    clip = _PrebuiltClip(wl)
    config = MVETrackerConfig(block=wl.params)

    def mve_step():
        tracker = MVETracker(clip, config)
        tracker.initialize(0, wl.detections)
        return tracker.track_to(wl.frame_gap)

    step = mve_step()
    if not step.detections or step.num_features == 0:
        raise AssertionError("MVE bench step tracked nothing")

    def lk_step():
        return track_features(lk.pyramid_a, lk.pyramid_b, lk.points, lk.params)

    # The two steps take turns within each repeat, so host contention
    # moves both and not their ratio.
    repeats, number = _repeats(quick, 15)
    optimized, lk_measure = time_interleaved([mve_step, lk_step], repeats, 1)
    return BenchResult(
        name="mve_track",
        hot_path="repro.tracking.mve.MVETracker.track_to",
        workload={
            "scenario": workloads.SCENARIO,
            "seed": workloads.SEED,
            "boxes": len(wl.detections),
            "blocks": int(wl.points.shape[0]),
            "lk_points": int(lk.points.shape[0]),
            "frame_gap": wl.frame_gap,
        },
        optimized=optimized,
        notes=(
            "seed + one gap-2 propagation of the block-motion tier; extra "
            "records the LK tier's step (lk_track's computation) on the "
            "same frame pair"
        ),
        extra={
            "lk_track_per_call_s": lk_measure.per_call_s,
            "speedup_vs_lk_track": lk_measure.per_call_s / optimized.per_call_s,
        },
    )


def bench_gaussian_blur(quick: bool) -> BenchResult:
    """Batched structure-tensor blur vs. three frozen per-channel blurs.

    The Shi-Tomasi window blur is the only multi-channel blur in the
    pipeline: three ``(h, w)`` tensor products per box, all under the same
    kernel.  The fused engine pads and sweeps the ``(3, h, w)`` stack once;
    the reference is three independent allocate-per-tap blurs.
    """
    wl = workloads.make_conv_workload()
    stack = wl.product_stack
    sigma = wl.window_sigma
    optimized = gaussian_blur_batched(stack, sigma)
    for channel in range(stack.shape[0]):
        expected = reference.gaussian_blur_reference(stack[channel], sigma)
        if not np.array_equal(optimized[channel], expected):
            raise AssertionError("batched blur diverged from reference output")

    def batched() -> np.ndarray:
        return gaussian_blur_batched(stack, sigma)

    def per_channel_reference() -> np.ndarray:
        out = None
        for channel in range(stack.shape[0]):
            out = reference.gaussian_blur_reference(stack[channel], sigma)
        return out

    repeats, number = _repeats(quick, 20, 3)
    optimized_arm, reference_arm = time_interleaved(
        [batched, per_channel_reference], repeats, number
    )
    return BenchResult(
        name="gaussian_blur",
        hot_path="repro.vision.image.gaussian_blur_batched",
        workload={
            "scenario": workloads.SCENARIO,
            "seed": workloads.SEED,
            "stack_shape": list(stack.shape),
            "sigma": sigma,
        },
        optimized=optimized_arm,
        reference=reference_arm,
        notes=(
            "one padded (3,h,w) tap sweep into scratch vs. three frozen "
            "allocate-per-tap separable blurs"
        ),
    )


def bench_pyramid_build(quick: bool) -> BenchResult:
    """Fused blur+decimate pyramid construction vs. the frozen builder.

    The per-frame fixed cost of the tracking hot path: every
    :class:`FramePyramid` pays it on construction.  The fused
    ``pyramid_down`` computes only the retained ``[::2, ::2]`` samples
    (~4x fewer MACs per level) through reused scratch; the reference blurs
    every sample at full resolution, then subsamples.  Gradients are
    lazy on both sides and not part of construction.  The live arm builds
    from the ``float32`` frame as the store serves it, the reference from
    its ``float64`` widening.
    """
    wl = workloads.make_conv_workload()
    frame, levels = wl.frame, wl.levels
    optimized = FramePyramid(wl.served_frame, levels)
    expected = reference.build_pyramid_reference(frame, levels)
    if len(optimized.images) != len(expected) or not all(
        np.array_equal(a, b) for a, b in zip(optimized.images, expected)
    ):
        raise AssertionError("fused pyramid build diverged from reference output")

    repeats, number = _repeats(quick, 15)
    optimized_arm, reference_arm = time_interleaved(
        [
            lambda: FramePyramid(wl.served_frame, levels),
            lambda: reference.build_pyramid_reference(frame, levels),
        ],
        repeats, 1,
    )
    return BenchResult(
        name="pyramid_build",
        hot_path="repro.vision.image.pyramid_down",
        workload={
            "scenario": workloads.SCENARIO,
            "seed": workloads.SEED,
            "frame_shape": list(frame.shape),
            "levels": levels,
        },
        optimized=optimized_arm,
        reference=reference_arm,
        notes=(
            "decimated tap sweep (only the kept [::2,::2] samples) vs. "
            "frozen blur-everything-then-subsample"
        ),
    )


def bench_shi_tomasi_response(quick: bool) -> BenchResult:
    """Per-box corner response, fused engine vs. frozen reference.

    The tracker runs Shi-Tomasi inside every detected bounding box (paper
    §IV-C), so the bench sweeps the clip's real annotated-object ROIs —
    the scale where the shared gradient pad, the batched tensor blur, and
    ``out=`` eigenvalue arithmetic all land in cache.
    """
    wl = workloads.make_conv_workload()
    for roi in wl.rois:
        optimized = shi_tomasi_response(roi, wl.window_sigma)
        expected = reference.shi_tomasi_response_reference(roi, wl.window_sigma)
        if not np.array_equal(optimized, expected):
            raise AssertionError("fused Shi-Tomasi diverged from reference output")

    def fused_pass() -> np.ndarray:
        out = None
        for roi in wl.rois:
            out = shi_tomasi_response(roi, wl.window_sigma)
        return out

    def reference_pass() -> np.ndarray:
        out = None
        for roi in wl.rois:
            out = reference.shi_tomasi_response_reference(roi, wl.window_sigma)
        return out

    repeats, number = _repeats(quick, 20, 3)
    optimized_arm, reference_arm = time_interleaved(
        [fused_pass, reference_pass], repeats, number
    )
    return BenchResult(
        name="shi_tomasi_response",
        hot_path="repro.vision.features.shi_tomasi_response",
        workload={
            "scenario": workloads.SCENARIO,
            "seed": workloads.SEED,
            "boxes": len(wl.rois),
            "roi_shapes": [list(roi.shape) for roi in wl.rois],
            "sigma": wl.window_sigma,
        },
        optimized=optimized_arm,
        reference=reference_arm,
        notes=(
            "per detected-box pass: shared gradient pad + batched tensor "
            "blur + out= eigenvalue arithmetic vs. frozen out-of-place chain"
        ),
    )


def bench_render_frame(quick: bool) -> BenchResult:
    """Uncached frame rendering vs. the frozen pre-PR renderer.

    Times a fixed pass over the first frames of the render bench clip
    (fixed-camera, like the macro suite — see ``workloads.RENDER_SCENARIO``)
    through ``FrameRenderer.render_frame``, which bypasses the frame
    store, so this measures the separable-sampling fast path itself.
    Reported per frame.
    """
    num_frames = 8
    clip = workloads.render_bench_clip(num_frames=num_frames)
    renderer = clip.renderer
    ref = reference.ReferenceFrameRenderer(renderer.scene)
    for index in range(num_frames):
        if not np.array_equal(renderer.render_frame(index), ref.render_frame(index)):
            raise AssertionError("renderer fast path diverged from reference output")

    def optimized_pass() -> np.ndarray:
        frame = None
        for index in range(num_frames):
            frame = renderer.render_frame(index)
        return frame

    def reference_pass() -> np.ndarray:
        frame = None
        for index in range(num_frames):
            frame = ref.render_frame(index)
        return frame

    # Full repeats in quick runs too: best-of-3 read 1.58x against the
    # 1.6x floor where best-of-15 reads 1.76x (DESIGN.md §7).
    optimized, ref_measure = time_interleaved(
        [optimized_pass, reference_pass], 15, 1
    )
    optimized.best_s /= num_frames
    optimized.mean_s /= num_frames
    ref_measure.best_s /= num_frames
    ref_measure.mean_s /= num_frames
    return BenchResult(
        name="render_frame",
        hot_path="repro.video.render.FrameRenderer.render_frame",
        workload={
            "scenario": workloads.RENDER_SCENARIO,
            "seed": workloads.SEED,
            "num_frames": num_frames,
            "frame_shape": [
                renderer.scene.config.frame_height,
                renderer.scene.config.frame_width,
            ],
        },
        optimized=optimized,
        reference=ref_measure,
        notes=(
            "separable bilinear background + offset memo, fused object warp "
            "sampling, memoized warp tables vs. full-meshgrid reference; "
            "per frame, caches bypassed"
        ),
    )


def _store_counts(before: dict[str, int], kind: str) -> dict[str, int]:
    """The ``kind`` store hits and misses counted since ``before``."""
    counts = work_since(before)
    return {
        "store_hits": counts[f"store.{kind}.hit"],
        "store_misses": counts[f"store.{kind}.miss"],
    }


def bench_frame_store_sweep(quick: bool) -> BenchResult:
    """A repeat method's pass over a clip: frame-store hit vs. re-render.

    The sweep engine runs many methods over the same clip in one process;
    the first method fills the process-wide frame store, every later one
    reads it.  The optimised arm is that later method — a fresh renderer
    of the same scene whose every frame is a store hit; the reference arm
    is the pre-store steady state: every method renders every frame.
    Reported per 12-frame pass.
    """
    num_frames = 12
    clip = workloads.render_bench_clip(num_frames=num_frames)
    scene = clip.renderer.scene
    store = framestore.default_store()
    store.clear()
    before = WORK.counts()
    first_method = FrameRenderer(scene)
    repeat_method = FrameRenderer(scene)
    for index in range(num_frames):
        served = first_method.render(index)
        if not np.array_equal(served, repeat_method.render_frame(index)):
            raise AssertionError("store-served frame diverged from a direct render")
    primed = WORK.counts()

    def store_pass() -> np.ndarray:
        frame = None
        for index in range(num_frames):
            frame = repeat_method.render(index)
        return frame

    def rerender_pass() -> np.ndarray:
        frame = None
        for index in range(num_frames):
            frame = repeat_method.render_frame(index)
        return frame

    repeats, number = _repeats(quick, 15)
    optimized = time_callable(store_pass, repeats, 1)
    reference_measure = time_callable(rerender_pass, repeats, 1)
    if work_since(primed)["store.frame.miss"]:
        raise AssertionError("a repeat pass missed the frame store")
    return BenchResult(
        name="frame_store_sweep",
        hot_path="repro.video.framestore.FrameStore",
        workload={
            "scenario": workloads.RENDER_SCENARIO,
            "seed": workloads.SEED,
            "num_frames": num_frames,
            "store_mb": framestore.STORE_BYTES // framestore.BYTES_PER_MB,
        },
        optimized=optimized,
        reference=reference_measure,
        notes=(
            "a sweep's 2nd..Nth method per clip pass: process-wide store "
            "hits vs. the pre-store full re-render"
        ),
        extra=_store_counts(before, framestore.FRAME),
    )


def bench_pyramid_store_sweep(quick: bool) -> BenchResult:
    """A repeat arm's pyramid pass over a clip: frame-store hit vs rebuild.

    The sweep engine runs many method arms over the same clip; the first
    arm's pyramid reads fill the process-wide frame store, every later
    arm reads the pyramids back.  The optimised arm is that later arm —
    a fresh renderer of the same scene whose every pyramid is a store
    hit; the reference arm is the pre-store steady state: every arm
    rebuilds every pyramid from the raw frame.  Reported per 8-frame arm
    pass.
    """
    num_frames = 8
    levels = LKParams().pyramid_levels
    clip = workloads.bench_clip(num_frames=num_frames)
    store = framestore.default_store()
    store.clear()
    before = WORK.counts()
    frames = [np.asarray(clip.frame(i), dtype=np.float64) for i in range(num_frames)]
    # The first arm fills the store; the equality gate then pins every
    # store-served level image against a direct build.
    for index in range(num_frames):
        clip.pyramid(index, levels)
    repeat_arm = FrameRenderer(clip.scene)
    for index in range(num_frames):
        served = repeat_arm.pyramid(index, levels)
        direct = FramePyramid(frames[index], levels)
        for level in range(direct.levels):
            if not np.array_equal(served.images[level], direct.images[level]):
                raise AssertionError("store-served pyramid diverged from a rebuild")
    primed = WORK.counts()

    def store_pass() -> FramePyramid:
        pyramid = None
        for index in range(num_frames):
            pyramid = repeat_arm.pyramid(index, levels)
        return pyramid

    def rebuild_pass() -> FramePyramid:
        pyramid = None
        for index in range(num_frames):
            pyramid = FramePyramid(frames[index], levels)
        return pyramid

    repeats, number = _repeats(quick, 15)
    optimized = time_callable(store_pass, repeats, 1)
    reference_measure = time_callable(rebuild_pass, repeats, 1)
    if work_since(primed)["store.pyramid.miss"]:
        raise AssertionError("a repeat arm missed the frame store")
    return BenchResult(
        name="pyramid_store_sweep",
        hot_path="repro.video.render.FrameRenderer.pyramid",
        workload={
            "scenario": workloads.SCENARIO,
            "seed": workloads.SEED,
            "num_frames": num_frames,
            "levels": levels,
            "store_mb": framestore.STORE_BYTES // framestore.BYTES_PER_MB,
        },
        optimized=optimized,
        reference=reference_measure,
        notes=(
            "a sweep's 2nd..Nth method arm per clip pass: process-wide store "
            "pyramid reads vs. the pre-store full rebuild"
        ),
        extra=_store_counts(before, framestore.PYRAMID),
    )


def bench_serve_scheduler(quick: bool) -> BenchResult:
    """One serving-layer fleet tick-through: 32 streams, 4 simulated seconds.

    Times the pure scheduling machinery (event queue, admission queue,
    batch assembly, per-stream adaptation) with no pixels: the live
    decision-event scheduler against the frozen per-frame one, which
    fires one event per frame arrival.  Only ``run()`` is timed; every
    call gets a scheduler built beforehand, since building the streams'
    workload models is not scheduling.  The two arms take turns within
    each repeat, so host contention cannot favour one of them.  The
    correctness gate: the two schedulers' report digests are equal, and
    two live runs replay bit-identically, before timing starts.
    """
    from repro.serve import ServeConfig, ServeScheduler, fleet_configs

    num_streams = 32
    config = ServeConfig(duration_s=4.0, warmup_s=1.0)
    repeats, number = _repeats(quick, 10)

    def build(scheduler_class):
        return scheduler_class(fleet_configs(num_streams, seed=7), config)

    def prebuilt_runs(scheduler_class):
        # time_interleaved makes one warm-up call plus repeats * number.
        schedulers = iter([
            build(scheduler_class) for _ in range(1 + repeats * number)
        ])
        return lambda: next(schedulers).run()

    live = build(ServeScheduler)
    first = live.run()
    if first.digest() != build(ServeScheduler).run().digest():
        raise AssertionError("serve scheduler replay diverged between seeded runs")
    if first.digest() != build(reference.ReferenceServeScheduler).run().digest():
        raise AssertionError(
            "decision-event scheduler diverged from the per-frame reference"
        )

    optimized, reference_arm = time_interleaved(
        [prebuilt_runs(ServeScheduler),
         prebuilt_runs(reference.ReferenceServeScheduler)],
        repeats,
        number,
    )
    return BenchResult(
        name="serve_scheduler",
        hot_path="repro.serve.scheduler.ServeScheduler.run",
        workload={
            "streams": num_streams,
            "duration_s": config.duration_s,
            "seed": 7,
            "events": first.events_fired,
        },
        optimized=optimized,
        reference=reference_arm,
        notes=(
            "fleet run() in virtual time on prebuilt schedulers: heap events "
            "only for submitting arrivals and completions vs. the frozen "
            "one-event-per-frame-arrival scheduler; digests equal"
        ),
        extra={
            "served": first.served,
            "batches": first.batches,
            "heap_pops": live.heap_pops,
        },
    )


# Registry order is execution order for the default run.
BENCHES = {
    "gft_nms": bench_gft_nms,
    "lk_track": bench_lk_track,
    "block_motion_field": bench_block_motion_field,
    "mve_track": bench_mve_track,
    "gaussian_blur": bench_gaussian_blur,
    "pyramid_build": bench_pyramid_build,
    "shi_tomasi_response": bench_shi_tomasi_response,
    "render_frame": bench_render_frame,
    "frame_store_sweep": bench_frame_store_sweep,
    "pyramid_store_sweep": bench_pyramid_store_sweep,
    "serve_scheduler": bench_serve_scheduler,
}


def run_benchmarks(quick: bool = False, only: list[str] | None = None) -> list[BenchResult]:
    """Run the selected benches (all of them by default), in registry order
    for the default and in the caller's order for ``only``."""
    selected = list(BENCHES) if not only else only
    for name in selected:
        if name not in BENCHES:
            raise KeyError(f"unknown bench {name!r}; known: {', '.join(BENCHES)}")
    return [BENCHES[name](quick) for name in selected]
