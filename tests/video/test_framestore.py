"""The one frame store: budget accounting, eviction order, renderer wiring;
and the clip's Lucas-Kanade flows solved on its stored pyramids."""

from __future__ import annotations

import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.detector import Detection
from repro.obs import WORK, InMemorySink, Telemetry, work_since
from repro.tracking.mve import MVETracker, MVETrackerConfig
from repro.tracking.tracker import ObjectTracker, TrackerConfig
from repro.video import dataset, framestore
from repro.video.dataset import make_clip
from repro.video.framestore import (
    EVICTION_ORDER,
    FRAME,
    KINDS,
    PYRAMID,
    BYTES_PER_MB,
    STORE_BYTES,
    FrameStore,
    default_store,
    scene_fingerprint,
)
from repro.video.library import make_scenario
from repro.video.render import FrameRenderer
from repro.video.scene import Scene
from repro.vision.optical_flow import FlowResult, FramePyramid, LKParams, track_features
from tests.stand_ins import FrameClip


def _frame(nbytes: int, fill: int = 1) -> np.ndarray:
    return np.full(nbytes, fill, dtype=np.uint8)


def _pyramid(*level_bytes: int, fill: int = 1) -> SimpleNamespace:
    """A pyramid stand-in: the store reads only a pyramid's ``images``."""
    return SimpleNamespace(images=[_frame(n, fill) for n in level_bytes])


def _image(seed: int, shape: tuple[int, int] = (48, 64)) -> np.ndarray:
    return np.random.default_rng(seed).random(shape)


def _assert_pyramids_equal(left: FramePyramid, right: FramePyramid) -> None:
    assert left.levels == right.levels
    for level in range(left.levels):
        assert np.array_equal(left.images[level], right.images[level])


def _key(index: int, kind: str = FRAME, levels: int = 0, fingerprint: str = "fp") -> tuple:
    return (fingerprint, kind, index, levels)


def _counters(obs: Telemetry) -> dict[str, float]:
    obs.flush()
    return {
        record["name"]: record["value"]
        for record in obs.sink.last_metrics()
        if record["kind"] == "counter"
    }


def _delta(before: dict, after: dict, kind: str, name: str) -> int:
    """``kind``'s resident ``name`` between two :meth:`FrameStore.stats`."""
    return after[kind][name] - before[kind][name]


def _counted(before: dict, kind: str, name: str, after: dict | None = None) -> int:
    """The ``store.<kind>.<name>`` work counted between two ``WORK.counts()``
    snapshots; ``after`` defaults to now."""
    key = f"store.{kind}.{name}"
    return (WORK.counts() if after is None else after)[key] - before.get(key, 0)


@pytest.fixture()
def store():
    """The process-wide store, emptied."""
    default_store().clear()
    return default_store()


class TestFrameStoreCore:
    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FrameStore(-1)

    def test_default_store_has_the_constant_budget(self):
        assert default_store().max_bytes == STORE_BYTES == 88 * (1 << 20)

    def test_hit_miss_counters_and_roundtrip(self):
        store = FrameStore(1024)
        before = WORK.counts()
        assert store.get(_key(0)) is None
        frame = _frame(64)
        store.put(_key(0), frame)
        assert store.get(_key(0)) is frame
        assert _counted(before, FRAME, "miss") == 1 and _counted(before, FRAME, "hit") == 1
        assert _counted(before, PYRAMID, "miss") == 0 and _counted(before, PYRAMID, "hit") == 0

    def test_stored_frames_are_read_only(self):
        store = FrameStore(1024)
        store.put(_key(0), _frame(64))
        served = store.get(_key(0))
        with pytest.raises(ValueError):
            served[0] = 99

    def test_first_insert_wins(self):
        store = FrameStore(1024)
        first = _frame(64, fill=1)
        store.put(_key(0), first)
        store.put(_key(0), _frame(64, fill=2))
        assert store.get(_key(0)) is first
        assert store.current_bytes == 64

    def test_oversized_frame_not_stored(self):
        store = FrameStore(32)
        store.put(_key(0), _frame(64))
        store.put(_key(0, PYRAMID, 2), _pyramid(24, 16))
        assert len(store) == 0
        assert store.current_bytes == 0

    def test_lru_eviction_order_respects_gets(self):
        store = FrameStore(3 * 64)
        before = WORK.counts()
        for i in range(3):
            store.put(_key(i), _frame(64))
        store.get(_key(0))  # 0 becomes most-recent; 1 is now LRU
        store.put(_key(3), _frame(64))
        assert store.get(_key(1)) is None
        assert store.get(_key(0)) is not None
        assert _counted(before, FRAME, "evictions") == 1
        assert _counted(before, FRAME, "evicted_bytes") == 64

    def test_budget_is_exact(self):
        store = FrameStore(128)
        before = WORK.counts()
        store.put(_key(0), _frame(64))
        store.put(_key(1), _frame(64))
        assert _counted(before, FRAME, "evictions") == 0  # exactly full fits
        store.put(_key(2), _frame(1))  # one byte over evicts the LRU frame
        assert store.get(_key(0)) is None
        assert store.current_bytes == 65

    def test_pyramids_are_evicted_before_any_frame(self):
        store = FrameStore(3 * 64)
        before = WORK.counts()
        store.put(_key(0), _frame(64))
        store.put(_key(0, PYRAMID, 2), _pyramid(32, 32))
        store.put(_key(1, PYRAMID, 2), _pyramid(32, 32))
        store.get(_key(0, PYRAMID, 2))
        # Frame 0 is the least recently used entry, but a pyramid goes
        # first: the LRU one (frame 1's).
        store.put(_key(1), _frame(64))
        assert store.get(_key(1, PYRAMID, 2)) is None
        assert store.get(_key(0, PYRAMID, 2)) is not None
        store.put(_key(2), _frame(64))
        assert store.get(_key(0, PYRAMID, 2)) is None
        assert store.get(_key(0)) is not None  # now frame 1 is the LRU frame
        # No pyramid left to give, so the LRU frame goes.
        store.put(_key(3), _frame(64))
        assert store.stats()[PYRAMID]["entries"] == 0
        assert _counted(before, PYRAMID, "evictions") == 2
        assert _counted(before, FRAME, "evictions") == 1
        assert store.get(_key(1)) is None
        assert store.get(_key(0)) is not None

    def test_pyramid_on_its_stored_frame_is_charged_above_level0(self):
        store = FrameStore(1024)
        frame = store.put(_key(0), _frame(64))
        pyramid = SimpleNamespace(images=[frame, _frame(16), _frame(4)])
        store.put(_key(0, PYRAMID, 3), pyramid)
        assert store.stats()[PYRAMID]["bytes"] == 20
        assert store.current_bytes == 84

    def test_pyramid_on_an_unstored_frame_is_charged_in_full(self):
        store = FrameStore(1024)
        store.put(_key(0), _frame(64))
        # Equal bytes, but not the stored array: nothing is shared.
        store.put(_key(0, PYRAMID, 2), _pyramid(64, 16))
        # The frame of another index is not this pyramid's level 0 either.
        frame = store.get(_key(0))
        store.put(_key(1, PYRAMID, 2), SimpleNamespace(images=[frame, _frame(16)]))
        assert store.stats()[PYRAMID]["bytes"] == 2 * (64 + 16)

    def test_no_frame_is_evicted_while_a_pyramid_holds_it(self):
        store = FrameStore(3 * 64 + 20)
        before = WORK.counts()
        frame = store.put(_key(0), _frame(64))
        store.put(_key(0, PYRAMID, 2), SimpleNamespace(images=[frame, _frame(20)]))
        store.put(_key(1), _frame(64))
        store.put(_key(2), _frame(64))
        assert store.current_bytes == store.max_bytes
        # Frame 0 is the LRU entry, but its pyramid is resident: the
        # pyramid goes first, then the frame.
        store.put(_key(3), _frame(64))
        counted = WORK.counts()
        assert _counted(before, PYRAMID, "evictions", counted) == 1
        assert _counted(before, PYRAMID, "evicted_bytes", counted) == 20
        assert _counted(before, FRAME, "evictions", counted) == 1
        assert _counted(before, FRAME, "evicted_bytes", counted) == 64
        assert store.get(_key(0, PYRAMID, 2)) is None and store.get(_key(0)) is None
        assert store.stats()["current_bytes"] == 3 * 64

    def test_key_separates_every_component(self):
        store = FrameStore(1024)
        stored = _pyramid(16, 8)
        store.put(_key(3, PYRAMID, 2), stored)
        assert store.get(_key(3, PYRAMID, 2)) is stored
        for other in (
            _key(3, PYRAMID, 3),
            _key(4, PYRAMID, 2),
            _key(3, PYRAMID, 2, fingerprint="other"),
            _key(3, FRAME, 2),
        ):
            assert store.get(other) is None

    def test_stored_pyramid_is_canonical_and_read_only(self):
        store = FrameStore(1024)
        first = _pyramid(32, 8, fill=1)
        second = _pyramid(32, 8, fill=2)
        assert store.put(_key(0, PYRAMID, 2), first) is first
        assert store.put(_key(0, PYRAMID, 2), second) is first
        assert all(not image.flags.writeable for image in first.images)
        assert all(image.flags.writeable for image in second.images)
        assert store.stats()[PYRAMID]["bytes"] == 40

    def test_pyramid_get_put_roundtrip(self):
        store = FrameStore(BYTES_PER_MB)
        key = _key(0, PYRAMID, 3)
        before = WORK.counts()
        assert store.get(key) is None
        pyramid = FramePyramid(_image(8), 3)
        assert store.put(key, pyramid) is pyramid
        served = store.get(key)
        assert served is pyramid
        _assert_pyramids_equal(served, FramePyramid(_image(8), 3))
        assert _counted(before, PYRAMID, "hit") == _counted(before, PYRAMID, "miss") == 1
        assert store.stats()[PYRAMID]["entries"] == 1

    def test_first_pyramid_insert_wins(self):
        store = FrameStore(BYTES_PER_MB)
        first = FramePyramid(_image(10), 2)
        store.put(_key(0, PYRAMID, 2), first)
        served = store.put(_key(0, PYRAMID, 2), FramePyramid(_image(11), 2))
        # The racing put converges on the earlier insert's bytes.
        assert served is first
        _assert_pyramids_equal(store.get(_key(0, PYRAMID, 2)), FramePyramid(_image(10), 2))

    def test_oversized_pyramid_not_stored(self):
        store = FrameStore(1024)  # 1 KiB: no 48x64 pyramid fits
        before = WORK.counts()
        pyramid = FramePyramid(_image(13), 2)
        assert store.put(_key(0, PYRAMID, 2), pyramid) is pyramid
        assert all(image.flags.writeable for image in pyramid.images)
        assert store.get(_key(0, PYRAMID, 2)) is None
        assert store.stats()[PYRAMID]["entries"] == 0
        assert _counted(before, PYRAMID, "evictions") == 0

    def test_stats_snapshots_diff_per_kind(self):
        # Callers account a window of work by diffing two registry snapshots.
        store = FrameStore(40)
        store.put(_key(9), _frame(8))
        before = WORK.counts()
        for index in (0, 0, 1):
            key = _key(index, PYRAMID, 2)
            if store.get(key) is None:
                store.put(key, _pyramid(16, 8))
        counts = work_since(before)
        assert counts["store.pyramid.hit"] == 1
        assert counts["store.pyramid.miss"] == 2
        assert counts["store.pyramid.evictions"] == 1
        assert counts["store.pyramid.evicted_bytes"] == 24
        for name in ("hit", "miss", "evictions", "evicted_bytes"):
            assert counts[f"store.frame.{name}"] == 0

    def test_set_obs_emits_pyramid_counters(self):
        # The store's pyramid work reaches a telemetry as the counts added to it.
        obs = Telemetry(InMemorySink())
        store = FrameStore(24)  # room for one pyramid
        before = WORK.counts()
        for index in (0, 0, 1):
            key = _key(index, PYRAMID, 2)
            if store.get(key) is None:
                store.put(key, _pyramid(16, 8))
        obs.add_counts(work_since(before))
        counters = _counters(obs)
        assert counters["store.pyramid.hit"] == 1
        assert counters["store.pyramid.miss"] == 2
        assert counters["store.pyramid.evicted_bytes"] == 24
        assert counters["store.frame.hit"] == counters["store.frame.miss"] == 0

    def test_clear_keeps_budget_and_counters(self):
        store = FrameStore(1024)
        before = WORK.counts()
        store.put(_key(0), _frame(64))
        store.get(_key(0))
        store.clear()
        assert len(store) == 0
        assert store.max_bytes == 1024
        assert _counted(before, FRAME, "hit") == 1
        stats = store.stats()
        assert stats[FRAME]["entries"] == 0 and stats["current_bytes"] == 0

    def test_obs_counters_funnelled(self):
        # A telemetry gets the store's work as the counts added to it.
        obs = Telemetry(InMemorySink())
        store = FrameStore(96)
        before = WORK.counts()
        store.get(_key(0))
        store.put(_key(0), _frame(64))
        store.get(_key(0))
        store.get(_key(0, PYRAMID, 2))
        store.put(_key(0, PYRAMID, 2), _pyramid(16, 8))
        store.put(_key(1), _frame(16))  # evicts the pyramid's 24 bytes
        obs.add_counts(work_since(before))
        counters = _counters(obs)
        assert counters["store.frame.miss"] == 1
        assert counters["store.frame.hit"] == 1
        assert counters["store.pyramid.miss"] == 1
        assert counters["store.pyramid.evictions"] == 1
        assert counters["store.pyramid.evicted_bytes"] == 24
        assert counters["store.frame.evicted_bytes"] == 0


def _pyramid_levels(draw_bytes):
    return st.lists(draw_bytes, min_size=1, max_size=3)


_ENTRY = 64
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.sampled_from(KINDS),
            st.integers(min_value=0, max_value=5),  # frame index
            _pyramid_levels(st.integers(min_value=1, max_value=_ENTRY)),
        ),
        st.tuples(
            st.just("race"),  # racing duplicate puts of one key
            st.sampled_from(KINDS),
            st.integers(min_value=0, max_value=5),
            _pyramid_levels(st.integers(min_value=1, max_value=_ENTRY)),
        ),
        st.tuples(
            st.just("share"),  # a pyramid whose level 0 is the stored frame
            st.just(PYRAMID),
            st.integers(min_value=0, max_value=5),
            _pyramid_levels(st.integers(min_value=1, max_value=_ENTRY)),
        ),
        st.tuples(
            st.just("get"),
            st.sampled_from(KINDS),
            st.integers(min_value=0, max_value=5),
            _pyramid_levels(st.just(1)),  # only the depth matters
        ),
    ),
    max_size=40,
)


def _value(kind: str, level_bytes: list[int], fill: int):
    if kind == FRAME:
        return _frame(level_bytes[0], fill)
    return _pyramid(*level_bytes, fill=fill)


def _model_key(kind: str, index: int, level_bytes: list[int]) -> tuple:
    """One key per (kind, index, depth)."""
    return _key(index, kind, 0 if kind == FRAME else len(level_bytes))


def _nbytes(value) -> int:
    return sum(int(array.nbytes) for array in framestore._arrays(value))


def _assert_shared_frames_resident(store: FrameStore) -> None:
    """Every pyramid charged less than its arrays shares its level 0 with
    its frame, and that frame is resident: eviction never strands one."""
    frames = store._entries[FRAME]
    for key, (pyramid, charged) in store._entries[PYRAMID].items():
        if charged < _nbytes(pyramid):
            frame = frames.get(framestore._frame_key(key))
            assert frame is not None and frame[0] is pyramid.images[0]
            assert charged == _nbytes(pyramid) - pyramid.images[0].nbytes


class TestByteBudgetProperty:
    """Drawn get/put sequences over both kinds against a plain model.

    A ``share`` op inserts a pyramid built on the frame stored at its
    index, when one is, and the model charges it for levels 1 and up.
    Eviction takes pyramids, then frames.
    """

    @settings(max_examples=80, deadline=None)
    @given(budget=st.integers(min_value=0, max_value=4 * _ENTRY), ops=_OPS)
    def test_never_exceeds_budget_and_accounting_balances(self, budget, ops):
        store = FrameStore(budget)
        start = WORK.counts()
        first = {}  # key -> the value whose insert won
        inserted = {kind: [0, 0] for kind in KINDS}  # [count, bytes]
        gets = {kind: [0, 0] for kind in KINDS}  # [hits, misses]
        sizes = {}  # key -> level sizes: one key always holds the same bytes
        charged = {}  # key -> bytes its resident value was charged
        for op, kind, index, level_bytes in ops:
            key = _model_key(kind, index, level_bytes)
            evicted = {k: _counted(start, k, "evictions") for k in KINDS}
            if op == "get":
                got = store.get(key)
                if got is None:
                    gets[kind][1] += 1
                else:
                    gets[kind][0] += 1
                    # A hit is the object whose insert won, frozen.
                    assert got is first[key]
                    assert all(not array.flags.writeable for array in framestore._arrays(got))
                continue
            level_bytes = sizes.setdefault(key, level_bytes)
            resident = store.get(key) is not None
            gets[kind][0 if resident else 1] += 1
            # Bytes of the kinds evicted after this one: an insert that
            # does not fit beside them evicts itself.
            kept_bytes = sum(
                store.stats()[later]["bytes"]
                for later in EVICTION_ORDER[EVICTION_ORDER.index(kind) + 1 :]
            )
            racers = 3 if op == "race" else 1
            values = [_value(kind, level_bytes, fill) for fill in range(1, racers + 1)]
            stored_frame = store._entries[FRAME].get(_key(index))
            shared = op == "share" and stored_frame is not None
            if shared:
                for value in values:
                    value.images[0] = stored_frame[0]
            returned = [None] * racers
            barrier = threading.Barrier(racers)

            def insert(slot: int) -> None:
                if racers > 1:
                    barrier.wait()
                returned[slot] = store.put(key, values[slot])

            threads = [threading.Thread(target=insert, args=(i,)) for i in range(racers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            nbytes = _nbytes(values[0])
            if shared:
                nbytes -= values[0].images[0].nbytes
            if resident:
                # The first insert wins: every racer gets the stored value.
                assert all(value is first[key] for value in returned)
            elif nbytes > budget:
                # Too big to store: each caller keeps its own, writable.
                assert all(mine is value for mine, value in zip(returned, values))
                assert all(
                    array.flags.writeable
                    for value in values
                    for array in framestore._arrays(value)[1 if shared else 0 :]
                )
            elif kept_bytes + nbytes > budget:
                # No room beside the kinds evicted later: each insert
                # evicts itself and its caller keeps its own value.
                assert all(mine is value for mine, value in zip(returned, values))
                inserted[kind][0] += racers
                inserted[kind][1] += racers * nbytes
            else:
                winner = returned[0]
                assert all(value is winner for value in returned)
                assert any(winner is value for value in values)
                first[key] = winner
                charged[key] = nbytes
                inserted[kind][0] += 1
                inserted[kind][1] += nbytes
            assert store.current_bytes <= budget
            _assert_shared_frames_resident(store)
            for rank, evicted_kind in enumerate(EVICTION_ORDER):
                if _counted(start, evicted_kind, "evictions") > evicted[evicted_kind]:
                    # A kind only goes once no entry of an earlier kind is left.
                    for earlier in EVICTION_ORDER[:rank]:
                        assert store.stats()[earlier]["entries"] == 0
        stats = store.stats()
        assert stats["max_bytes"] == budget
        assert stats["current_bytes"] == sum(stats[kind]["bytes"] for kind in KINDS)
        counted = WORK.counts()
        for kind in KINDS:
            resident = stats[kind]
            counts = {
                name: _counted(start, kind, name, counted)
                for name in ("hit", "miss", "evictions", "evicted_bytes")
            }
            assert [counts["hit"], counts["miss"]] == gets[kind]
            # Everything inserted is either resident or was evicted.
            assert resident["entries"] + counts["evictions"] == inserted[kind][0]
            assert resident["bytes"] + counts["evicted_bytes"] == inserted[kind][1]
            assert resident["entries"] == len(store._entries[kind])
            assert resident["bytes"] == sum(charged[key] for key in store._entries[kind])


class TestSceneFingerprint:
    def test_same_spec_same_fingerprint(self):
        a = Scene(make_scenario("boat", num_frames=8), seed=2)
        b = Scene(make_scenario("boat", num_frames=8), seed=2)
        assert scene_fingerprint(a) == scene_fingerprint(b)

    def test_differs_by_seed_and_scenario(self):
        base = Scene(make_scenario("boat", num_frames=8), seed=2)
        other_seed = Scene(make_scenario("boat", num_frames=8), seed=3)
        other_scene = Scene(make_scenario("intersection", num_frames=8), seed=2)
        assert scene_fingerprint(base) != scene_fingerprint(other_seed)
        assert scene_fingerprint(base) != scene_fingerprint(other_scene)


class TestRendererIntegration:
    def test_store_served_frames_match_direct_render(self, store):
        scene = Scene(make_scenario("intersection", num_frames=6), seed=5)
        writer = FrameRenderer(scene)
        reader = FrameRenderer(scene)
        direct = FrameRenderer(scene)
        before = WORK.counts()
        for index in range(6):
            writer.render(index)
        for index in range(6):
            assert np.array_equal(reader.render(index), direct.render_frame(index))
        assert _counted(before, FRAME, "miss") == 6
        assert _counted(before, FRAME, "hit") == 6

    def test_equal_spec_renderers_share_entries(self, store):
        a = FrameRenderer(Scene(make_scenario("boat", num_frames=4), seed=9))
        b = FrameRenderer(Scene(make_scenario("boat", num_frames=4), seed=9))
        before = WORK.counts()
        assert a.render(0) is b.render(0)
        assert _counted(before, FRAME, "miss") == 1
        assert _counted(before, FRAME, "hit") == 1

    def test_default_store_resolved_lazily(self, monkeypatch):
        scene = Scene(make_scenario("boat", num_frames=4), seed=9)
        renderer = FrameRenderer(scene)
        replacement = FrameStore()
        monkeypatch.setattr(framestore, "_default_store", replacement)
        renderer.render(0)
        assert replacement.stats()[FRAME]["entries"] == 1


def _detections(clip, frame: int = 0):
    return tuple(
        Detection(obj.label, obj.box, 0.9) for obj in clip.annotation(frame).objects
    )


@pytest.fixture()
def clip():
    return make_clip("highway_surveillance", seed=55, num_frames=24)


class TestRendererPyramids:
    def test_repeat_pyramid_read_returns_same_object(self, store, clip):
        first = clip.pyramid(0, 3)
        assert clip.pyramid(0, 3) is first
        assert all(not image.flags.writeable for image in first.images)

    def test_second_renderer_is_served_without_building(self, store, clip, monkeypatch):
        clip.pyramid(0, 3)
        reader = FrameRenderer(clip.scene)

        def render_frame(_index):
            raise AssertionError("a stored pyramid was rebuilt")

        monkeypatch.setattr(reader, "render_frame", render_frame)
        before = WORK.counts()
        served = reader.pyramid(0, 3)
        assert _counted(before, PYRAMID, "hit") == 1
        direct = FramePyramid(clip.renderer.render_frame(0), 3)
        for level in range(direct.levels):
            assert np.array_equal(served.images[level], direct.images[level])

    def test_stored_pyramid_holds_images_only(self, store, clip):
        # An entry costs the pyramid's own level images above level 0,
        # which is the stored frame and is charged as a frame.
        before = store.stats()
        pyramid = clip.pyramid(0, 3)
        added = store.stats()[PYRAMID]["bytes"] - before[PYRAMID]["bytes"]
        assert added == sum(image.nbytes for image in pyramid.images[1:])
        assert added < 0.67 * clip.frame(0).nbytes

    def test_level0_is_the_stored_frame(self, store, clip):
        pyramid = clip.pyramid(0, 3)
        frame = clip.frame(0)
        assert pyramid.images[0] is frame
        assert frame.dtype == np.float32
        assert not frame.flags.writeable
        assert all(image.dtype == np.float64 for image in pyramid.images[1:])

    def test_store_built_pyramid_is_charged_144000_bytes(self, store, clip):
        assert (clip.config.frame_height, clip.config.frame_width) == (180, 320)
        before = store.stats()
        clip.pyramid(0, 3)
        after = store.stats()
        assert _delta(before, after, FRAME, "bytes") == 180 * 320 * 4
        assert _delta(before, after, PYRAMID, "bytes") == 90 * 160 * 8 + 45 * 80 * 8
        assert _delta(before, after, PYRAMID, "bytes") == 144_000

    @settings(max_examples=10, deadline=None)
    @given(levels=st.integers(min_value=1, max_value=4), index=st.integers(0, 5))
    def test_read_through_matches_direct_build(self, levels, index):
        clip = make_clip("intersection", seed=3, num_frames=6)
        served = clip.pyramid(index, levels)
        direct = FramePyramid(clip.renderer.render_frame(index), levels)
        assert served.levels == direct.levels
        for level in range(direct.levels):
            assert np.array_equal(served.images[level], direct.images[level])

    def test_mve_after_lk_reads_the_stored_pyramid(self, store, clip):
        lk = ObjectTracker(clip, TrackerConfig())
        lk.initialize(0, _detections(clip))
        # The LK step's solve builds frames 0 and 2's pyramids.
        lk.track_to(2)
        before = WORK.counts()
        mve = MVETracker(clip, MVETrackerConfig())
        mve.initialize(2, _detections(clip, 2))
        # Seeding this tier reads no pixels.
        assert WORK.counts() == before
        mve.track_to(4)
        # Both tiers default to 3 levels, so a tier switch on one frame
        # is a store hit, not a rebuild: the step builds frame 4's only.
        assert _counted(before, PYRAMID, "miss") == 1
        assert _counted(before, PYRAMID, "hit") == 1

    def test_store_served_tiers_track_like_fresh_builds(self, store, clip):
        def run_pair(tracked):
            lk = ObjectTracker(tracked, TrackerConfig(), seed=0)
            lk.initialize(0, _detections(clip))
            lk_steps = [lk.track_to(j).detections for j in (2, 4)]
            mve = MVETracker(tracked, MVETrackerConfig())
            mve.initialize(4, _detections(clip, 4))
            mve_steps = [mve.track_to(j).detections for j in (6, 8)]
            return lk_steps, mve_steps

        before = WORK.counts()
        assert run_pair(clip) == run_pair(_fresh(clip))
        assert _counted(before, PYRAMID, "hit") > 0

    def test_zero_budget_store_falls_back_to_local_build(self, clip, monkeypatch):
        # A store that keeps nothing still serves correct pyramids: each
        # read builds afresh from a fresh render.
        empty = FrameStore(0)
        monkeypatch.setattr(framestore, "_default_store", empty)
        before = WORK.counts()
        first = clip.pyramid(0, 2)
        second = clip.pyramid(0, 2)
        assert first is not second
        _assert_pyramids_equal(first, FramePyramid(clip.renderer.render_frame(0), 2))
        _assert_pyramids_equal(second, first)
        assert _counted(before, PYRAMID, "miss") == 2 and _counted(before, PYRAMID, "hit") == 0
        assert empty.stats()["current_bytes"] == 0


_POINTS = np.array([[100.5, 60.25], [160.0, 90.0], [40.0, 120.0]])


def _fresh(clip) -> FrameClip:
    """``clip``'s frames, rendered, built and solved afresh on every read."""
    width, height = clip.config.frame_width, clip.config.frame_height
    return FrameClip(clip.renderer.render_frame, width, height)


def _direct_flow(clip, prev_index: int, next_index: int, points, params) -> FlowResult:
    return _fresh(clip).flow(prev_index, next_index, points, params)


def _assert_flows_equal(left: FlowResult, right: FlowResult) -> None:
    for name in ("points", "status", "residual"):
        a, b = getattr(left, name), getattr(right, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name


@pytest.fixture()
def solves(monkeypatch):
    """The point arrays the clip hands to ``track_features``, one per call."""
    calls = []

    def counting(prev, next_, points, params):
        calls.append(np.array(points))
        return track_features(prev, next_, points, params)

    monkeypatch.setattr(dataset, "track_features", counting)
    return calls


def _solved_since(before: dict) -> tuple[int, int]:
    """``(track_features calls, points solved)`` by clips since ``before``."""
    counts = work_since(before)
    return counts["lk.solves"], counts["lk.points"]


class TestClipFlows:
    def test_duplicate_points_in_one_call_are_solved_once(
        self, store, clip, solves
    ):
        params = LKParams()
        repeated = _POINTS[[2, 0, 1, 0, 2, 2, 1]]
        before = WORK.counts()
        served = clip.flow(0, 2, repeated, params)
        assert _solved_since(before) == (1, 3)
        assert len(solves) == 1 and len(solves[0]) == 3
        assert {point.tobytes() for point in solves[0]} == {p.tobytes() for p in _POINTS}
        _assert_flows_equal(served, _direct_flow(clip, 0, 2, repeated, params))
        # Each row is its point's row, whichever others share the call.
        alone = clip.flow(0, 2, _POINTS, params)
        for name in ("points", "status", "residual"):
            rows = getattr(alone, name)[[2, 0, 1, 0, 2, 2, 1]]
            assert getattr(served, name).tobytes() == rows.tobytes(), name

    def test_one_bit_of_one_point_is_solved_separately(self, store, clip, solves):
        params = LKParams()
        nudged = _POINTS[1].copy()
        nudged.view(np.uint64)[0] ^= 1  # the lowest mantissa bit
        points = np.vstack([_POINTS, nudged[None, :]])
        before = WORK.counts()
        served = clip.flow(0, 2, points, params)
        assert _solved_since(before) == (1, 4)
        assert len(solves[0]) == 4
        _assert_flows_equal(served, _direct_flow(clip, 0, 2, points, params))

    def test_served_flows_are_fresh_arrays(self, store, clip):
        # Rows are scattered into new arrays: a caller that writes into
        # one leaves later calls, and the other rows, intact.
        params = LKParams()
        repeated = _POINTS[[0, 0, 1]]
        first = clip.flow(0, 2, repeated, params)
        expected = _direct_flow(clip, 0, 2, repeated, params)
        assert not np.shares_memory(first.points[0], first.points[1])
        first.points[0] = -1.0
        assert first.points[1].tobytes() == expected.points[1].tobytes()
        first.points[:] = -1.0
        first.status[:] = False
        first.residual[:] = 9.0
        served = clip.flow(0, 2, repeated, params)
        assert served.points.flags.c_contiguous and served.points.flags.writeable
        _assert_flows_equal(served, expected)

    def test_threads_racing_on_shared_points_agree(self, store, clip):
        """Threads tracking overlapping point sets between the same two
        frames each get the direct solve's rows."""
        params = LKParams()
        grid = np.stack(
            np.meshgrid(np.arange(20.0, 300.0, 35.0), np.arange(15.0, 170.0, 30.0)), axis=-1
        ).reshape(-1, 2)
        sets = [grid[start::3] for start in range(3)] + [grid[::2], grid[::-1]]
        expected = [_direct_flow(clip, 0, 2, points, params) for points in sets]
        served = [None] * len(sets)
        barrier = threading.Barrier(len(sets))

        def track(slot):
            barrier.wait()
            served[slot] = make_clip(
                "highway_surveillance", seed=55, num_frames=24
            ).flow(0, 2, sets[slot], params)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=track, args=(i,)) for i in range(len(sets))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(served, expected):
            _assert_flows_equal(got, want)

    def test_empty_call_touches_nothing(self, store, clip, solves):
        before, counts = store.stats(), WORK.counts()
        served = clip.flow(0, 2, np.zeros((0, 2)), LKParams())
        assert solves == [] and store.stats() == before and WORK.counts() == counts
        _assert_flows_equal(served, _direct_flow(clip, 0, 2, np.zeros((0, 2)), LKParams()))

    @settings(max_examples=25, deadline=None)
    @given(
        step=st.sampled_from([(0, 1), (0, 2), (1, 3), (2, 5)]),
        distinct=st.lists(
            st.tuples(
                st.one_of(st.floats(0.0, 319.0), st.sampled_from([0.0, -0.0])),
                st.one_of(st.floats(0.0, 179.0), st.sampled_from([0.0, -0.0])),
            ),
            min_size=1,
            max_size=12,
        ),
        picks=st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=30),
    )
    def test_drawn_duplicates_match_a_direct_solve(self, step, distinct, picks):
        """Drawn points, repeated and shuffled, on rendered frames: the
        rows are the direct solve's, and one call solves each point whose
        bytes differ from the others' once."""
        clip = make_clip("intersection", seed=3, num_frames=6)
        base = np.array(distinct, dtype=np.float64)
        points = base[[pick % len(base) for pick in picks]]
        before = WORK.counts()
        served = clip.flow(*step, points, LKParams())
        assert _solved_since(before) == (1, len({point.tobytes() for point in points}))
        _assert_flows_equal(served, _direct_flow(clip, *step, points, LKParams()))


class TestTrackerFlows:
    def test_seeding_and_pointless_steps_read_no_pyramid(self, store, clip):
        tracker = ObjectTracker(clip)
        before = WORK.counts()
        tracker.initialize(0, _detections(clip))
        empty = ObjectTracker(clip)
        empty.initialize(0, ())
        empty.track_to(2)
        assert _counted(before, PYRAMID, "hit") == 0
        assert _counted(before, PYRAMID, "miss") == 0
        assert _solved_since(before) == (0, 0)

    def test_a_second_arm_solves_again_on_stored_pyramids(self, store, clip, solves):
        """No flow is stored: an arm tracking the points another arm
        tracked solves them again, on the pyramids the first one built."""

        def arm(tracked):
            tracker = ObjectTracker(tracked, seed=4)
            tracker.initialize(0, _detections(clip))
            return [tracker.track_to(j).detections for j in (2, 4, 5)]

        before = WORK.counts()
        first = arm(clip)
        middle = WORK.counts()
        second = arm(clip)
        assert len(solves) == 6 and sum(len(points) for points in solves) > 0
        for once, again in zip(solves[:3], solves[3:]):
            assert once.tobytes() == again.tobytes()
        assert _counted(before, PYRAMID, "miss", middle) == 4
        assert _counted(middle, PYRAMID, "miss") == 0
        assert _counted(middle, PYRAMID, "hit") == 6
        assert first == second == arm(_fresh(clip))


class TestStoreServedEqualsDirect:
    """A stored pyramid is np.array_equal to a direct FramePyramid build:
    the store changes when work happens, never what the arrays are."""

    @settings(max_examples=30, deadline=None)
    @given(
        height=st.integers(min_value=8, max_value=56),
        width=st.integers(min_value=8, max_value=56),
        levels=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_roundtrip_matches_direct_build(self, height, width, levels, seed):
        frame = _image(seed, shape=(height, width))
        store = FrameStore(BYTES_PER_MB)
        store.put(_key(0, PYRAMID, levels), FramePyramid(frame.copy(), levels))
        served = store.get(_key(0, PYRAMID, levels))
        # Small frames clamp the level count identically on both paths.
        _assert_pyramids_equal(served, FramePyramid(frame, levels))


class TestPutReturnContract:
    def test_put_returns_stored_frame_frozen(self):
        store = FrameStore(1024)
        frame = _frame(64)
        assert store.put(_key(0), frame) is frame
        assert not frame.flags.writeable

    def test_rejected_duplicate_stays_writable(self):
        # Regression: put() used to freeze the caller's array *before*
        # the duplicate-key check, so the loser of a racing double
        # insert got its own freshly rendered frame frozen under it.
        store = FrameStore(1024)
        winner = _frame(64, fill=1)
        store.put(_key(0), winner)
        loser = _frame(64, fill=2)
        returned = store.put(_key(0), loser)
        assert returned is winner
        assert loser.flags.writeable
        loser[0] = 99  # the loser still owns its array

    def test_zero_budget_store_returns_callers_pyramid(self):
        store = FrameStore(0)
        pyramid = FramePyramid(_image(12), 2)
        assert store.put(_key(0, PYRAMID, 2), pyramid) is pyramid
        assert store.get(_key(0, PYRAMID, 2)) is None
        assert len(store) == 0

    def test_rejected_duplicate_pyramid_stays_writable(self):
        store = FrameStore(BYTES_PER_MB)
        first = FramePyramid(_image(15), 2)
        second = FramePyramid(_image(15), 2)
        store.put(_key(0, PYRAMID, 2), first)
        assert store.put(_key(0, PYRAMID, 2), second) is first
        assert all(image.flags.writeable for image in second.images)

    def test_disabled_and_oversized_puts_leave_frame_writable(self):
        empty = FrameStore(0)
        frame = _frame(64)
        assert empty.put(_key(0), frame) is frame
        assert frame.flags.writeable
        tiny = FrameStore(32)
        big = _frame(64)
        assert tiny.put(_key(0), big) is big
        assert big.flags.writeable
        pyramid = _pyramid(24, 16)
        assert tiny.put(_key(0, PYRAMID, 2), pyramid) is pyramid
        assert all(image.flags.writeable for image in pyramid.images)
