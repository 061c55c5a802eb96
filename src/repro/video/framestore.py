"""Process-wide shared frame cache: render every frame once per process.

A sweep runs many methods over the same clips — fig6 alone runs 13
methods over 3 clips — and every method walks its clip from frame 0.
The per-renderer cache cannot help across methods (it is cold again by
the time the next method starts), so without sharing, each synthetic
frame is rasterised once *per method* in every worker.  Frame synthesis
stands in for the camera in this reproduction; the paper's pipeline is
supposed to be the bottleneck, not the frame source.

:class:`FrameStore` is a byte-budgeted LRU shared by every
:class:`~repro.video.render.FrameRenderer` in the process.  Keys are
``(scene fingerprint, frame_index)``: the fingerprint digests everything
that determines a scene's pixel stream (scenario config + seed), so two
renderers built from the same spec — e.g. the worker clip LRU rebuilding
a clip, or two methods sharing a suite clip — read and write the same
entries.  Rendering is deterministic, so a stored frame is bit-identical
to a fresh render; the store can only change *when* pixels are computed,
never *what* they are.

The store is disabled until given a budget (``max_bytes == 0`` makes
``get``/``put`` no-ops), so existing single-run paths pay nothing unless
an experiment opts in via ``PipelineConfig.frame_store_mb`` or the
``--frame-store-mb`` CLI flag.  See DESIGN.md §9.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (render imports us)
    from repro.video.scene import Scene

BYTES_PER_MB = 1 << 20


def scene_fingerprint(scene: "Scene") -> str:
    """Stable digest of everything that determines a scene's pixels.

    Frames are a pure function of ``(scenario config, scene seed,
    frame_index)``; the config's dataclass ``repr`` covers every field,
    including nested spawn specs and phases, so two scenes with equal
    fingerprints render bit-identical frame streams.  The digest is
    content-based (not ``id``-based) on purpose: worker processes rebuild
    clips from specs and must land on the same keys as the parent.
    """
    payload = repr((scene.config, scene.seed))
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


class FrameStore:
    """Byte-budgeted LRU of rendered frames, shared across renderers.

    Thread-safe: the live executor renders from multiple threads through
    one process-wide instance.  Accounting is by ``frame.nbytes`` — the
    budget bounds pixel payload, not Python object overhead, which for
    float32 frames is negligible in comparison.

    Stored frames are marked read-only: every renderer (and every method
    sharing the store) hands out the *same* array object, so an in-place
    mutation would silently corrupt other methods' inputs.
    """

    # Metric-name prefix for the obs counters.  Subclasses that recycle
    # this LRU for other payloads (the derived-artifact store) override
    # it so their traffic is attributed to the right subsystem.
    _METRIC_PREFIX = "framestore"

    @staticmethod
    def _freeze(frame: np.ndarray) -> None:
        """Make a value read-only on insert (overridden per payload type)."""
        frame.setflags(write=False)

    def __init__(self, max_bytes: int = 0) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative (0 disables)")
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[str, int], np.ndarray] = OrderedDict()
        self.max_bytes = int(max_bytes)
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.evicted_bytes = 0
        self.set_obs(None)

    # -- observability -------------------------------------------------------

    def set_obs(self, obs=None) -> None:
        """Attach telemetry for the hit/miss/eviction counters (None detaches).

        Mirrors ``FrameRenderer.set_obs``: instruments are resolved once,
        so the hot path pays one no-op method call when observability is
        off.  The sweep engine additionally funnels per-shard deltas to
        the parent sink (workers cannot share it) — see
        ``repro.parallel.engine``.
        """
        from repro.obs import NULL_TELEMETRY

        telemetry = obs if obs is not None else NULL_TELEMETRY
        self._obs_hit = telemetry.counter(f"{self._METRIC_PREFIX}.hit")
        self._obs_miss = telemetry.counter(f"{self._METRIC_PREFIX}.miss")
        self._obs_evicted = telemetry.counter(f"{self._METRIC_PREFIX}.evicted_bytes")

    # -- core ----------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.max_bytes > 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, fingerprint: str, frame_index: int) -> np.ndarray | None:
        """The stored frame, or ``None``.  Disabled stores never count."""
        if self.max_bytes <= 0:
            return None
        key = (fingerprint, frame_index)
        with self._lock:
            frame = self._entries.get(key)
            if frame is None:
                self.misses += 1
                self._obs_miss.inc()
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            self._obs_hit.inc()
            return frame

    def put(self, fingerprint: str, frame_index: int, frame: np.ndarray) -> np.ndarray:
        """Insert a freshly rendered frame, evicting LRU entries over budget.

        A frame larger than the whole budget is not stored (it would evict
        everything and then be evicted itself by the next insert).  On a
        racing double-insert the first entry wins — both arrays hold
        identical bytes, so the choice is invisible to callers.

        Returns the canonical array for the key: the stored frame when the
        insert (or an earlier racing one) succeeded, the caller's own array
        untouched when nothing was stored.  Only frames actually stored are
        frozen — a rejected duplicate must stay writable, because the
        losing caller still owns it.
        """
        if self.max_bytes <= 0:
            return frame
        nbytes = int(frame.nbytes)
        if nbytes > self.max_bytes:
            return frame
        key = (fingerprint, frame_index)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                return existing
            self._freeze(frame)
            self._entries[key] = frame
            self.current_bytes += nbytes
            self._evict_over_budget()
        return frame

    def _evict_over_budget(self) -> None:
        """Evict least-recently-used entries until within budget (lock held)."""
        while self.current_bytes > self.max_bytes and self._entries:
            _, evicted = self._entries.popitem(last=False)
            nbytes = int(evicted.nbytes)
            self.current_bytes -= nbytes
            self.evictions += 1
            self.evicted_bytes += nbytes
            self._obs_evicted.inc(nbytes)

    # -- management ----------------------------------------------------------

    def set_budget(self, max_bytes: int) -> None:
        """Change the byte budget; shrinking evicts LRU entries immediately."""
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative (0 disables)")
        with self._lock:
            self.max_bytes = int(max_bytes)
            if self.max_bytes == 0:
                # Disabling drops the payload: a disabled store should not
                # pin tens of megabytes of frames nobody can reach.
                self._entries.clear()
                self.current_bytes = 0
            else:
                self._evict_over_budget()

    def clear(self) -> None:
        """Drop every entry (budget and counters are kept)."""
        with self._lock:
            self._entries.clear()
            self.current_bytes = 0

    def stats(self) -> dict:
        """Counter snapshot, e.g. for bench documents and summaries.

        Taken under the store lock, so a snapshot is internally consistent
        even while other threads hit the store — callers that need deltas
        (the sweep engine's per-shard accounting) must diff two snapshots
        instead of reading the bare counters twice.
        """
        with self._lock:
            return {
                "max_bytes": self.max_bytes,
                "current_bytes": self.current_bytes,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "evicted_bytes": self.evicted_bytes,
            }


# The process-wide default instance.  Renderers constructed without an
# explicit store resolve this at render time, so configuring it *after*
# clips were built still takes effect — the sweep engine relies on that
# for its inline (jobs=1) path, where the caller owns the clips.
_default_store = FrameStore(0)


def default_store() -> FrameStore:
    """The process-wide store (disabled until configured)."""
    return _default_store


def configure_default(max_bytes: int) -> FrameStore:
    """Set the process-wide store's budget and return it.

    Called from the sweep engine in the parent (inline path) and in every
    worker before each cell, so one ``--frame-store-mb`` knob reaches
    every process of a sweep.  Re-applying an unchanged budget evicts
    nothing, which is what makes the per-cell call free.
    """
    _default_store.set_budget(max_bytes)
    return _default_store


