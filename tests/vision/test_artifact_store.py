"""Derived-artifact store: key scheme, freeze-on-store, process default."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vision.artifact_store import (
    BYTES_PER_MB,
    ArtifactStore,
    PyramidArtifact,
    _PrivateBacking,
    configure_default,
    default_store,
)
from repro.vision.optical_flow import FramePyramid
from repro.vision.pyramid_cache import PyramidCache


def _frame(seed: int, shape: tuple[int, int] = (48, 64)) -> np.ndarray:
    return np.random.default_rng(seed).random(shape)


def _assert_pyramids_equal(left: FramePyramid, right: FramePyramid) -> None:
    assert left.levels == right.levels
    for level in range(left.levels):
        assert np.array_equal(left.images[level], right.images[level])


class TestArtifactStoreSemantics:
    def _store(self, mb: int = 64) -> ArtifactStore:
        return ArtifactStore(_PrivateBacking(mb * BYTES_PER_MB))

    def test_get_put_roundtrip(self):
        store = self._store()
        assert store.get("fp", 0, 3) is None
        artifact = PyramidArtifact.from_pyramid(FramePyramid(_frame(8), 3))
        canonical = store.put("fp", 0, 3, artifact)
        served = store.get("fp", 0, 3)
        for level in range(artifact.levels):
            assert np.array_equal(served.images[level], artifact.images[level])
            assert np.array_equal(canonical.images[level], artifact.images[level])

    def test_key_separates_every_component(self):
        store = self._store()
        artifact = PyramidArtifact.from_pyramid(FramePyramid(_frame(9), 3))
        store.put("fp", 0, 3, artifact)
        assert store.get("fp", 0, 2) is None
        assert store.get("other", 0, 3) is None
        assert store.get("fp", 1, 3) is None
        assert store.get("fp", 0, 3) is not None

    def test_first_insert_wins_returns_canonical(self):
        store = self._store()
        first = PyramidArtifact.from_pyramid(FramePyramid(_frame(10), 2))
        second = PyramidArtifact.from_pyramid(FramePyramid(_frame(11), 2))
        store.put("fp", 0, 2, first)
        served = store.put("fp", 0, 2, second)
        # The racing put converges on the earlier insert's bytes.
        assert np.array_equal(served.images[0], first.images[0])

    def test_disabled_store_returns_callers_artifact(self):
        store = self._store(mb=0)
        assert not store.enabled
        artifact = PyramidArtifact.from_pyramid(FramePyramid(_frame(12), 2))
        assert store.put("fp", 0, 2, artifact) is artifact
        assert store.get("fp", 0, 2) is None

    def test_oversized_artifact_not_stored(self):
        store = ArtifactStore(_PrivateBacking(1024))  # 1 KiB: nothing fits
        artifact = PyramidArtifact.from_pyramid(FramePyramid(_frame(13), 2))
        served = store.put("fp", 0, 2, artifact)
        assert np.array_equal(served.images[0], artifact.images[0])
        assert store.stats()["entries"] == 0

    def test_stored_artifact_is_canonical_and_read_only(self):
        # The LRU holds artifacts as values: a hit returns the stored
        # object itself, and every plane is frozen so no arm can mutate
        # what the next arm reads.
        store = self._store()
        artifact = PyramidArtifact.from_pyramid(FramePyramid(_frame(14), 3))
        canonical = store.put("fp", 0, 3, artifact)
        assert canonical is artifact
        assert store.get("fp", 0, 3) is artifact
        assert artifact.images and all(not image.flags.writeable for image in artifact.images)
        assert store.stats()["current_bytes"] == artifact.nbytes

    def test_losing_duplicate_stays_writable(self):
        store = self._store()
        first = PyramidArtifact.from_pyramid(FramePyramid(_frame(15), 2))
        second = PyramidArtifact.from_pyramid(FramePyramid(_frame(15), 2))
        store.put("fp", 0, 2, first)
        assert store.put("fp", 0, 2, second) is first
        assert all(image.flags.writeable for image in second.images)


class TestProcessDefault:
    def test_unbound_cache_never_touches_a_store(self):
        # No fingerprint means no content address: even with a live
        # default store the cache must stay local.
        before = default_store().max_bytes
        try:
            store = configure_default(4 * BYTES_PER_MB)
            misses0 = store.stats()["misses"]
            cache = PyramidCache(capacity=2)
            cache.get(0, 2, lambda _: _frame(20))
            assert store.stats()["misses"] == misses0
            assert cache.store_hits == 0 and cache.store_misses == 0
        finally:
            configure_default(before)

    def test_configure_default_sets_budget(self):
        before = default_store().max_bytes
        try:
            store = configure_default(2 * BYTES_PER_MB)
            assert store.max_bytes == 2 * BYTES_PER_MB
            assert default_store().enabled
        finally:
            configure_default(before)


class TestStoreServedEqualsDirect:
    """Store-served pyramids are np.array_equal to direct FramePyramid
    construction — the store changes when work happens, never what the
    arrays are."""

    @settings(max_examples=30, deadline=None)
    @given(
        height=st.integers(min_value=8, max_value=56),
        width=st.integers(min_value=8, max_value=56),
        levels=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_roundtrip_matches_direct_build(self, height, width, levels, seed):
        frame = _frame(seed, shape=(height, width))
        direct = FramePyramid(frame, levels)
        store = ArtifactStore(_PrivateBacking(32 * BYTES_PER_MB))
        artifact = PyramidArtifact.from_pyramid(FramePyramid(frame, levels))
        store.put("fp", 0, levels, artifact)
        served = store.get("fp", 0, levels).to_pyramid()
        # Small frames clamp the level count identically on both paths.
        _assert_pyramids_equal(served, direct)

    @settings(max_examples=15, deadline=None)
    @given(
        levels=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_cache_readthrough_matches_direct_build(self, levels, seed):
        frame = _frame(seed)
        store = ArtifactStore(_PrivateBacking(32 * BYTES_PER_MB))
        writer = PyramidCache(capacity=2, fingerprint="fp", artifact_store=store)
        reader = PyramidCache(capacity=2, fingerprint="fp", artifact_store=store)
        writer.get(0, levels, lambda _: frame)
        calls = []

        def provider(index):
            calls.append(index)
            return frame

        served = reader.get(0, levels, provider)
        assert calls == []  # fully store-served, never rebuilt
        assert reader.store_hits == 1
        _assert_pyramids_equal(served, FramePyramid(frame, levels))
