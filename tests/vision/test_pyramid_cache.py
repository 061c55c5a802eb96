"""PyramidCache: prefix serving, counters, store read-through, tier sharing."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.detection.detector import Detection
from repro.obs import InMemorySink, Telemetry
from repro.tracking.mve import MVETracker, MVETrackerConfig
from repro.tracking.tracker import ObjectTracker, TrackerConfig
from repro.vision.artifact_store import BYTES_PER_MB, ArtifactStore, _PrivateBacking
from repro.vision.block_motion import BlockMotionParams
from repro.vision.optical_flow import FramePyramid, LKParams
from repro.vision.pyramid_cache import PyramidCache, counters_snapshot
from repro.video.dataset import make_clip


def _frame(seed: int, shape: tuple[int, int] = (48, 64)) -> np.ndarray:
    return np.random.default_rng(seed).random(shape)


@pytest.fixture()
def clip():
    return make_clip("highway_surveillance", seed=55, num_frames=24)


class TestBasics:
    def test_exact_hit_returns_same_object(self):
        cache = PyramidCache(capacity=2)
        first = cache.get(0, 3, lambda _: _frame(0))
        second = cache.get(0, 3, lambda _: _frame(0))
        assert second is first
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

    def test_lru_eviction_counts(self):
        cache = PyramidCache(capacity=1)
        cache.get(0, 3, lambda _: _frame(0))
        cache.get(1, 3, lambda _: _frame(1))
        assert cache.evictions == 1
        assert len(cache) == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            PyramidCache(capacity=0)


class TestPrefixServing:
    def test_shallower_request_served_from_deeper_entry(self):
        frame = _frame(1)
        cache = PyramidCache(capacity=4)
        deep = cache.get(0, 4, lambda _: frame)
        calls = []

        def provider(index):
            calls.append(index)
            return frame

        shallow = cache.get(0, 2, provider)
        assert calls == []  # served as a prefix view, never rebuilt
        assert cache.prefix_hits == 1 and cache.hits == 1
        # Bit-identical to a direct 2-level build.
        direct = FramePyramid(frame, 2)
        assert shallow.levels == direct.levels
        for level in range(direct.levels):
            assert np.array_equal(shallow.images[level], direct.images[level])
        # The prefix shares the parent's level images, not a copy.
        assert shallow.images[0] is deep.images[0]

    def test_prefix_result_is_cached_under_its_own_key(self):
        cache = PyramidCache(capacity=4)
        frame = _frame(2)
        cache.get(0, 4, lambda _: frame)
        first = cache.get(0, 2, lambda _: frame)
        second = cache.get(0, 2, lambda _: frame)
        assert second is first
        assert cache.prefix_hits == 1  # the repeat is an exact hit

    def test_deeper_request_misses(self):
        cache = PyramidCache(capacity=4)
        frame = _frame(3)
        cache.get(0, 2, lambda _: frame)
        cache.get(0, 4, lambda _: frame)
        assert cache.prefix_hits == 0
        assert cache.misses == 2

    def test_clamped_pyramid_prefix_is_safe(self):
        # A 12x12 frame clamps every request to one level; prefix serving
        # across different requested depths must stay bit-identical.
        frame = _frame(4, shape=(12, 12))
        cache = PyramidCache(capacity=4)
        deep = cache.get(0, 4, lambda _: frame)
        shallow = cache.get(0, 2, lambda _: frame)
        assert deep.levels == shallow.levels == 1
        assert np.array_equal(shallow.images[0], FramePyramid(frame, 2).images[0])


class TestCounters:
    def test_module_totals_snapshot_diffs(self):
        before = counters_snapshot()
        cache = PyramidCache(capacity=1)
        cache.get(0, 2, lambda _: _frame(5))
        cache.get(0, 2, lambda _: _frame(5))
        cache.get(1, 2, lambda _: _frame(6))
        after = counters_snapshot()
        assert after["hits"] - before["hits"] == 1
        assert after["misses"] - before["misses"] == 2
        assert after["evictions"] - before["evictions"] == 1

    def test_set_obs_emits_counters(self):
        obs = Telemetry(InMemorySink())
        cache = PyramidCache(capacity=1)
        cache.set_obs(obs)
        cache.get(0, 2, lambda _: _frame(7))
        cache.get(0, 2, lambda _: _frame(7))
        cache.get(1, 2, lambda _: _frame(8))
        obs.flush()
        counters = {
            record["name"]: record["value"]
            for record in obs.sink.last_metrics()
            if record["kind"] == "counter"
        }
        assert counters["pyramidcache.hit"] == 1
        assert counters["pyramidcache.miss"] == 2
        assert counters["pyramidcache.eviction"] == 1

    def test_set_obs_none_detaches(self):
        obs = Telemetry(InMemorySink())
        cache = PyramidCache(capacity=2)
        cache.set_obs(obs)
        cache.set_obs(None)
        cache.get(0, 2, lambda _: _frame(9))
        obs.flush()
        # Attaching registers the counters at zero; detaching must stop
        # the increments (the registered zeros remain in the sink).
        assert all(
            record["value"] == 0
            for record in obs.sink.last_metrics()
            if record["name"].startswith("pyramidcache.")
        )


class TestStoreReadThrough:
    def test_second_cache_is_served_without_building(self):
        store = ArtifactStore(_PrivateBacking(32 * BYTES_PER_MB))
        frame = _frame(10)
        writer = PyramidCache(capacity=2, fingerprint="fp", artifact_store=store)
        writer.get(0, 3, lambda _: frame)
        assert writer.store_misses == 1
        reader = PyramidCache(capacity=2, fingerprint="fp", artifact_store=store)
        calls = []

        def provider(index):
            calls.append(index)
            return frame

        served = reader.get(0, 3, provider)
        assert calls == []
        assert reader.store_hits == 1
        direct = FramePyramid(frame, 3)
        for level in range(direct.levels):
            assert np.array_equal(served.images[level], direct.images[level])

    def test_store_served_entries_hold_images_only(self):
        # The builder publishes the level images and nothing else, so a
        # stored artifact costs the pyramid's own bytes (under 4/3 of the float64 frame).
        store = ArtifactStore(_PrivateBacking(32 * BYTES_PER_MB))
        frame = _frame(11)
        served = PyramidCache(capacity=2, fingerprint="fp", artifact_store=store).get(
            0, 2, lambda _: frame
        )
        artifact = store.get("fp", 0, 2)
        assert [field.name for field in dataclasses.fields(artifact)] == ["images"]
        assert all(a is b for a, b in zip(artifact.images, served.images))
        assert artifact.nbytes == sum(image.nbytes for image in FramePyramid(frame, 2).images)
        assert artifact.nbytes < 1.34 * frame.astype(np.float64).nbytes

    def test_disabled_store_falls_back_to_local_build(self):
        store = ArtifactStore(_PrivateBacking(0))
        cache = PyramidCache(capacity=2, fingerprint="fp", artifact_store=store)
        cache.get(0, 2, lambda _: _frame(12))
        assert cache.store_hits == 0 and cache.store_misses == 0


def _detections(clip, frame: int = 0):
    return tuple(
        Detection(obj.label, obj.box, 0.9) for obj in clip.annotation(frame).objects
    )


class TestTierTransition:
    """ISSUE 10 satellite: an lk<->mve tier transition on the same frame
    must hit the shared cache instead of rebuilding pyramids."""

    def test_mve_after_lk_hits_shared_cache(self, clip):
        shared = PyramidCache(capacity=8)
        width = clip.config.frame_width
        height = clip.config.frame_height
        lk = ObjectTracker(
            clip.frame, width, height,
            TrackerConfig(lk=LKParams(pyramid_levels=4)),
            pyramid_cache=shared,
        )
        lk.initialize(0, _detections(clip))
        misses_after_lk = shared.misses
        mve = MVETracker(
            clip.frame, width, height,
            MVETrackerConfig(block=BlockMotionParams(pyramid_levels=3)),
            pyramid_cache=shared,
        )
        mve.initialize(0, _detections(clip))
        # The transition is a (prefix) hit: the MVE tier's 3-level request
        # is the leading slice of the LK tier's cached 4-level pyramid.
        assert shared.misses == misses_after_lk
        assert shared.prefix_hits >= 1

    def test_shared_cache_results_identical_across_tiers(self, clip):
        shared = PyramidCache(capacity=8)
        width = clip.config.frame_width
        height = clip.config.frame_height

        def run_pair(cache):
            lk = ObjectTracker(
                clip.frame, width, height, TrackerConfig(),
                seed=0, pyramid_cache=cache,
            )
            lk.initialize(0, _detections(clip))
            lk_steps = [lk.track_to(j).detections for j in (2, 4)]
            mve = MVETracker(
                clip.frame, width, height, MVETrackerConfig(), pyramid_cache=cache
            )
            mve.initialize(4, _detections(clip, 4))
            mve_steps = [mve.track_to(j).detections for j in (6, 8)]
            return lk_steps, mve_steps

        with_cache = run_pair(shared)
        without_cache = run_pair(None)
        assert with_cache == without_cache
        assert shared.hits > 0
