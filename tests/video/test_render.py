"""Unit tests for the frame renderer."""

import numpy as np
import pytest

from repro.obs import WORK, InMemorySink, Telemetry, work_since
from repro.video.dataset import make_clip
from repro.video import framestore
from repro.video.framestore import FRAME, default_store
from repro.video.render import FrameRenderer, make_background, make_object_texture
from repro.video.scene import Scene
from repro.video.library import make_scenario


@pytest.fixture()
def store():
    """The process-wide frame store, emptied: renders below are real."""
    default_store().clear()
    return default_store()


@pytest.fixture(scope="module")
def clip():
    return make_clip("highway_surveillance", seed=21, num_frames=60)


class TestTextures:
    def test_texture_deterministic(self):
        a = make_object_texture(123, contrast=0.8)
        b = make_object_texture(123, contrast=0.8)
        assert np.array_equal(a, b)

    def test_texture_varies_by_seed(self):
        a = make_object_texture(1, contrast=0.8)
        b = make_object_texture(2, contrast=0.8)
        assert not np.array_equal(a, b)

    def test_texture_in_unit_range(self):
        tex = make_object_texture(5, contrast=1.0)
        assert tex.min() >= 0.0
        assert tex.max() <= 1.0

    def test_background_deterministic(self):
        assert np.array_equal(make_background(7, 0.25), make_background(7, 0.25))


class TestFrames:
    def test_frame_shape_and_dtype(self, clip):
        frame = clip.frame(0)
        assert frame.shape == (180, 320)
        assert frame.dtype == np.float32
        assert frame.min() >= 0.0
        assert frame.max() <= 1.0

    def test_frame_deterministic_across_renderers(self, clip):
        other = FrameRenderer(clip.scene)
        assert np.array_equal(clip.frame(5), other.render(5))

    def test_cache_returns_same_array(self, clip):
        assert clip.frame(3) is clip.frame(3)

    def test_objects_visible_in_frame(self, clip):
        """Object regions must differ from the pure background."""
        frame = np.asarray(clip.frame(0), dtype=np.float64)
        background = FrameRenderer(clip.scene)._render_background(0)
        ann = clip.annotation(0)
        assert len(ann.objects) > 0
        for obj in ann.objects:
            rows, cols = obj.box.pixel_slice(frame.shape)
            diff = np.abs(frame[rows, cols] - background[rows, cols]).mean()
            assert diff > 0.02, f"object {obj.object_id} invisible"

    def test_box_corners_show_background(self, clip):
        """The elliptical silhouette leaves box corners as background."""
        frame = np.asarray(clip.frame(0), dtype=np.float64)
        background = FrameRenderer(clip.scene)._render_background(0)
        ann = clip.annotation(0)
        # Find an unoccluded object fully inside the frame.
        for obj in ann.objects:
            box = obj.box
            if box.width < 25 or box.left < 1 or box.right > 318:
                continue
            others = [o for o in ann.objects if o.object_id != obj.object_id]
            if any(box.intersection(o.box).area > 0 for o in others):
                continue
            # Corner pixel of the box should still be background.
            y = int(box.top) + 1
            x = int(box.left) + 1
            assert abs(frame[y, x] - background[y, x]) < 0.1
            return
        pytest.skip("no unoccluded object in this frame")

    def test_moving_object_texture_translates(self):
        """Texture must move with the object for optical flow to work."""
        clip = make_clip("highway_surveillance", seed=33, num_frames=10,
                         sensor_noise=0.0)
        ann0, ann1 = clip.annotation(0), clip.annotation(1)
        common = set(o.object_id for o in ann0.objects) & set(
            o.object_id for o in ann1.objects
        )
        assert common
        oid = common.pop()
        box0 = next(o.box for o in ann0.objects if o.object_id == oid)
        box1 = next(o.box for o in ann1.objects if o.object_id == oid)
        dx = box1.left - box0.left
        frame0 = np.asarray(clip.frame(0), dtype=np.float64)
        frame1 = np.asarray(clip.frame(1), dtype=np.float64)
        # Sample the object interior in both frames at corresponding points.
        from repro.vision.image import sample_bilinear

        cx, cy = box0.center
        xs = np.linspace(cx - 4, cx + 4, 9)
        ys = np.full(9, cy)
        patch0 = sample_bilinear(frame0, xs, ys)
        patch1 = sample_bilinear(frame1, xs + dx, ys + (box1.top - box0.top))
        assert np.abs(patch0 - patch1).mean() < 0.06

    def test_sensor_noise_applied(self):
        noisy = make_clip("boat", seed=3, num_frames=4, sensor_noise=0.05)
        clean = make_clip("boat", seed=3, num_frames=4, sensor_noise=0.0)
        diff = np.abs(
            np.asarray(noisy.frame(0), dtype=np.float64)
            - np.asarray(clean.frame(0), dtype=np.float64)
        )
        assert 0.005 < diff.mean() < 0.1

    def test_cache_eviction_is_true_lru(self, monkeypatch):
        """A hit must refresh recency: re-reading frame 0 keeps it cached
        past the next eviction (insertion order would drop it)."""
        scene = Scene(make_scenario("boat", num_frames=40), seed=2)
        renderer = FrameRenderer(scene)
        four_frames = 4 * renderer.render_frame(0).nbytes
        small = framestore.FrameStore(four_frames)
        monkeypatch.setattr(framestore, "_default_store", small)
        before = WORK.counts()
        for i in range(4):
            renderer.render(i)
        renderer.render(0)  # hit: 0 becomes most-recent, 1 is now LRU
        renderer.render(4)  # evicts exactly one frame: 1, not 0
        assert work_since(before)["store.frame.evictions"] == 1
        assert small.stats()[FRAME]["entries"] == 4
        misses = work_since(before)["store.frame.miss"]
        renderer.render(0)
        assert work_since(before)["store.frame.miss"] == misses
        renderer.render(1)
        assert work_since(before)["store.frame.miss"] == misses + 1

    def test_second_pass_all_hits_with_large_cache(self, store):
        scene = Scene(make_scenario("boat", num_frames=10), seed=2)
        renderer = FrameRenderer(scene)
        for i in range(10):
            renderer.render(i)
        before = WORK.counts()
        for i in range(10):
            renderer.render(i)
        counts = work_since(before)
        assert counts["store.frame.miss"] == 0
        assert counts["store.frame.hit"] == 10


class TestCacheCounters:
    def test_hit_miss_counters(self, store):
        scene = Scene(make_scenario("boat", num_frames=8), seed=2)
        renderer = FrameRenderer(scene)
        before = WORK.counts()
        renderer.render(0)
        renderer.render(0)
        renderer.render(1)
        counts = work_since(before)
        assert counts["store.frame.miss"] == 2
        assert counts["store.frame.hit"] == 1

    def test_counters_recorded_via_obs(self, store):
        obs = Telemetry(InMemorySink())
        scene = Scene(make_scenario("boat", num_frames=8), seed=2)
        renderer = FrameRenderer(scene)
        before = WORK.counts()
        renderer.render(0)
        renderer.render(0)
        obs.add_counts(work_since(before))
        obs.flush()
        counters = {
            record["name"]: record["value"]
            for record in obs.sink.last_metrics()
            if record["kind"] == "counter"
        }
        assert counters["store.frame.miss"] == 1
        assert counters["store.frame.hit"] == 1

    def test_detaching_obs_keeps_plain_counters(self, store):
        # A telemetry holds only the counts added to it; the registry
        # counts on without one.
        obs = Telemetry(InMemorySink())
        scene = Scene(make_scenario("boat", num_frames=8), seed=2)
        renderer = FrameRenderer(scene)
        before = WORK.counts()
        renderer.render(0)
        obs.add_counts(work_since(before))
        renderer.render(0)
        assert work_since(before)["store.frame.hit"] == 1
        assert obs.counter("store.frame.hit").value == 0


class TestBackgroundMemoRace:
    """The live executor's camera and tracker threads render one clip at
    once; on a panning scene the background memo must never pair one
    frame's offset with another frame's pixels."""

    def test_threaded_renders_match_serial_renders(self):
        import random
        import threading

        scene = Scene(make_scenario("car_highway", num_frames=12), seed=8)
        serial = FrameRenderer(scene)
        expected = [serial.render_frame(index) for index in range(12)]
        assert len({scene.camera_offset(i) for i in range(12)}) == 12  # panning
        shared = FrameRenderer(scene)
        rounds = 4
        mismatches = []

        def worker(seed: int) -> None:
            order = [index for index in range(12) for _ in range(rounds)]
            random.Random(seed).shuffle(order)
            for index in order:
                if not np.array_equal(shared.render_frame(index), expected[index]):
                    mismatches.append(index)

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert mismatches == []


class TestLazyBackground:
    """The background canvas is built by the first rasterised frame, once."""

    @pytest.fixture
    def builds(self, monkeypatch):
        import repro.video.render as render_mod

        calls = []
        real = render_mod.make_background

        def counting(seed, contrast):
            calls.append(seed)
            return real(seed, contrast)

        monkeypatch.setattr(render_mod, "make_background", counting)
        return calls

    def test_construction_builds_nothing(self, builds):
        clip = make_clip("car_highway", seed=5, num_frames=8)
        FrameRenderer(clip.scene)
        assert builds == []

    def test_first_render_builds_once(self, builds, store):
        # A panning camera: every frame misses the static-offset memo.
        clip = make_clip("car_highway", seed=5, num_frames=8)
        clip.frame(0)
        assert len(builds) == 1
        for index in range(1, 8):
            clip.frame(index)
        assert len(builds) == 1

    def test_store_served_renderer_never_builds(self, builds, store):
        scene = Scene(make_scenario("car_highway", num_frames=6), seed=5)
        first = FrameRenderer(scene)
        for index in range(6):
            first.render(index)
        assert len(builds) == 1
        repeat = FrameRenderer(scene)
        for index in range(6):
            assert repeat.render(index) is first.render(index)
        assert len(builds) == 1

    def test_lazily_built_frame_matches_reference(self, builds, store):
        from repro.perf.reference import ReferenceFrameRenderer

        scene = Scene(make_scenario("car_highway", num_frames=4), seed=5)
        frame = FrameRenderer(scene).render(0)
        assert len(builds) == 1
        assert np.array_equal(frame, ReferenceFrameRenderer(scene).render_frame(0))
