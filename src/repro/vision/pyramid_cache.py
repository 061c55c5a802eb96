"""Clip-scoped LRU cache of :class:`FramePyramid` objects.

Pyramid construction (Gaussian blur + subsample per level) is the fixed
per-frame cost of the tracking hot path.  Within one pipeline run the
same frame's pyramid is requested more than once — most visibly in the
live executor, where a tracking task often steps onto the very frame
whose detection then seeds the next task — and benchmark/experiment code
replays the same clip repeatedly.  Caching by frame index is safe because
a clip's frames are a pure function of the index, and a
:class:`FramePyramid` is immutable, so a cache hit is bit-identical to a
rebuild.

One cache instance must only ever serve one clip: the key is the frame
*index*, not the frame content.  The pipelines create a fresh cache per
run.  ``get`` is thread-safe (the live executor shares a cache across
sequential tracker generations while other threads run), though a
concurrent miss on the same key may build the pyramid twice — harmless,
since both builds are identical (the insert is first-insert-wins, so all
callers converge on one canonical pyramid).

Two reuse paths beyond the exact-key hit:

- **Prefix serving.** ``build_pyramid`` computes level ``i``
  independently of how many levels were requested, so a cached pyramid
  built for ``L`` levels *contains* the pyramid for any ``k <= L`` as its
  leading slice.  A request for fewer levels than a cached entry is
  served as a :meth:`FramePyramid.prefix` view — no rebuild.  This is
  what makes an lk↔mve tracker-tier transition on the same frame a hit
  even when the tiers configure different ``pyramid_levels``.
- **Artifact-store read-through.** When the cache is bound to a scene
  fingerprint and an :class:`~repro.vision.artifact_store.ArtifactStore`
  is active (explicitly, or via the process default the sweep engine
  budgets), a local miss first consults the store, and a local build
  publishes its artifact back.  Store-served pyramids are bit-identical
  to fresh builds, so this only changes *when* work happens — across a
  sweep, each distinct pyramid is built once per clip instead of once
  per method arm.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.vision.optical_flow import FramePyramid

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (see artifact_store)
    from repro.vision.artifact_store import ArtifactStore

# Process-wide counter totals across every PyramidCache instance.  The
# sweep engine's run_shard cannot reach the per-run caches (they live
# inside pipeline runs), so it diffs this aggregate around each shard to
# funnel per-shard sweep.pyramid_* metrics — same idea as diffing the
# frame store's stats().
_TOTALS_LOCK = threading.Lock()
_TOTALS = {"hits": 0, "misses": 0, "evictions": 0}


def counters_snapshot() -> dict[str, int]:
    """Point-in-time copy of the process-wide PyramidCache totals."""
    with _TOTALS_LOCK:
        return dict(_TOTALS)


def _bump_total(key: str, amount: int = 1) -> None:
    with _TOTALS_LOCK:
        _TOTALS[key] += amount


class PyramidCache:
    """LRU cache mapping ``(frame_index, levels)`` to a built pyramid.

    ``fingerprint`` binds the cache to one scene's identity and enables
    the artifact-store read-through; without it the cache never touches
    a store (frame indices alone are not content-addressed).
    ``artifact_store`` overrides the process-default store for tests and
    benches.
    """

    def __init__(
        self,
        capacity: int = 4,
        fingerprint: str | None = None,
        artifact_store: "ArtifactStore | None" = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.fingerprint = fingerprint
        self._store_override = artifact_store
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.prefix_hits = 0
        self.store_hits = 0
        self.store_misses = 0
        self._hit_counter = None
        self._miss_counter = None
        self._eviction_counter = None
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[int, int], FramePyramid] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def set_obs(self, obs=None) -> None:
        """Emit hit/miss/eviction counters to ``obs`` (None detaches)."""
        if obs is None:
            self._hit_counter = None
            self._miss_counter = None
            self._eviction_counter = None
            return
        self._hit_counter = obs.counter("pyramidcache.hit")
        self._miss_counter = obs.counter("pyramidcache.miss")
        self._eviction_counter = obs.counter("pyramidcache.eviction")

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "prefix_hits": self.prefix_hits,
                "store_hits": self.store_hits,
                "store_misses": self.store_misses,
            }

    def _resolve_store(self) -> "ArtifactStore | None":
        """The store to read through, or None (unbound / disabled)."""
        if self.fingerprint is None:
            return None
        if self._store_override is not None:
            return self._store_override if self._store_override.enabled else None
        from repro.vision.artifact_store import default_store

        store = default_store()
        return store if store.enabled else None

    def get(
        self,
        frame_index: int,
        levels: int,
        frame_provider: Callable[[int], np.ndarray],
    ) -> FramePyramid:
        """The pyramid for ``frame_index``, building it on a miss."""
        key = (frame_index, levels)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                hit_counter = self._hit_counter
            else:
                # A deeper cached pyramid for the same frame contains this
                # one as its leading slice (level i is independent of the
                # requested total; see module docstring).
                parent_key = None
                for (entry_frame, entry_levels), entry in self._entries.items():
                    if entry_frame == frame_index and entry_levels >= levels:
                        parent_key = (entry_frame, entry_levels)
                        cached = entry
                        break
                if parent_key is not None:
                    self._entries.move_to_end(parent_key)
                    cached = cached.prefix(levels)
                    self._entries[key] = cached
                    self.hits += 1
                    self.prefix_hits += 1
                    hit_counter = self._hit_counter
        if cached is not None:
            _bump_total("hits")
            if hit_counter is not None:
                hit_counter.inc()
            return cached

        # Miss path, outside the lock: construction (or a store fetch) is
        # the expensive part and must not serialise readers of other keys.
        store = self._resolve_store()
        pyramid: FramePyramid | None = None
        from_store = False
        if store is not None:
            artifact = store.get(self.fingerprint, frame_index, levels)
            if artifact is not None:
                pyramid = artifact.to_pyramid()
                from_store = True
        if pyramid is None:
            pyramid = FramePyramid(frame_provider(frame_index), levels)
            if store is not None:
                # Publish and adopt the canonical stored copy so every
                # consumer shares the same (frozen) arrays.
                from repro.vision.artifact_store import PyramidArtifact

                canonical = store.put(
                    self.fingerprint,
                    frame_index,
                    levels,
                    PyramidArtifact.from_pyramid(pyramid),
                )
                pyramid = canonical.to_pyramid()
        with self._lock:
            self.misses += 1
            if from_store:
                self.store_hits += 1
            elif store is not None:
                self.store_misses += 1
            existing = self._entries.get(key)
            if existing is not None:
                # A racing builder published first; converge on its copy.
                self._entries.move_to_end(key)
                pyramid = existing
            else:
                self._entries[key] = pyramid
                self._entries.move_to_end(key)
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.evictions += 1
                    _bump_total("evictions")
                    if self._eviction_counter is not None:
                        self._eviction_counter.inc()
            miss_counter = self._miss_counter
        _bump_total("misses")
        if miss_counter is not None:
            miss_counter.inc()
        return pyramid

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
