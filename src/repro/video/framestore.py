"""The process's one cache of rendered frames and their pyramids.

A sweep runs many method arms over the same clips — fig6 alone runs 13
arms over each clip — and every arm walks its clip from frame 0, renders
frames and builds the pyramids its tracker reads.  Both are pure
functions of the scene, so one process-wide :class:`FrameStore` holds
them for every renderer in the process.  There are two kinds of key:

    ``(scene fingerprint, FRAME, frame_index, 0)``
    ``(scene fingerprint, PYRAMID, frame_index, levels)``

Every key is content-based, never ``id``-based.  The fingerprint digests
everything that determines a scene's pixel stream (scenario config +
seed), so two renderers built from the same spec — a worker rebuilding
a clip from its spec, or two arms sharing a suite clip — read and write
the same entries.  A stored value is bit-identical to a fresh render or
build: the store changes *when* work happens, never *what* it computes.

A pyramid built from a stored frame holds that frame as its level 0
(:class:`~repro.vision.optical_flow.FramePyramid` does not copy it), so
the store charges such a pyramid only for levels 1 and up: 144,000
bytes at 180x320, beside the frame's 230,400.

:meth:`repro.video.render.FrameRenderer.render` and
:meth:`~repro.video.render.FrameRenderer.pyramid` are the only callers,
so the key format lives in that module.  Lucas-Kanade flows are not
stored: method arms that track the same points share their solves inside
one merged call (see :meth:`repro.video.dataset.VideoClip.flow` and
:mod:`repro.parallel.lockstep`).  See DESIGN.md §9.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.obs import WORK

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (render imports us)
    from repro.video.scene import Scene

BYTES_PER_MB = 1 << 20

FRAME = "frame"
PYRAMID = "pyramid"
KINDS = (FRAME, PYRAMID)
# Over budget, the least recently used entry of the first resident kind
# here goes: see :meth:`FrameStore._evict_over_budget`.
EVICTION_ORDER = (PYRAMID, FRAME)

# One budget for the process, not an option.  Replaying the logged frame
# and pyramid reads of the fig6-reuse, eval-wide and clip-stream
# workloads (seeds 0 and 13), 88 MiB renders and builds exactly what the
# four caches this store replaced did: clip-stream keeps its renders from
# 76 MiB, the sweeps keep their pyramid builds from 48 MiB.  DESIGN.md §9
# has the replay.
STORE_BYTES = 88 * BYTES_PER_MB

# Per kind, the store's ``hit``, ``miss``, ``evictions`` and
# ``evicted_bytes`` counters in the process's one account of pixel work.
_COUNTERS = {
    kind: {
        name: WORK.counter(f"store.{kind}.{name}")
        for name in ("hit", "miss", "evictions", "evicted_bytes")
    }
    for kind in KINDS
}


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


def _arrays(value: Any) -> tuple[np.ndarray, ...]:
    """The arrays a stored frame or pyramid holds: the frame, or the
    pyramid's level images."""
    if isinstance(value, np.ndarray):
        return (value,)
    return tuple(value.images)


def _frame_key(key: tuple) -> tuple:
    """The key of the frame a pyramid key's pyramid is built from."""
    fingerprint, _kind, frame_index, _levels = key
    return (fingerprint, FRAME, frame_index, 0)


class FrameStore:
    """Byte-budgeted LRU of frames and pyramids, shared across renderers.

    Thread-safe: the live executor renders and tracks from several
    threads through the one process-wide instance.  Accounting is by the
    arrays' ``nbytes`` — the budget bounds pixel payload, not Python
    object overhead.

    A pyramid whose level 0 *is* its resident stored frame is charged for
    levels 1 and up only; any other pyramid for all its levels.  Each
    entry keeps the bytes it was charged, and eviction refunds exactly
    those.

    Over budget, the least recently used *pyramid* goes first; a frame is
    evicted only when no pyramid is resident.  So no frame is evicted
    while a resident pyramid holds it as level 0, and the bytes a shared
    pyramid was not charged stay resident — and charged to the frame —
    for as long as the pyramid is.  A frame also saves 2-5x more time per
    byte than a pyramid: rendering 230,400 bytes (one 180x320 float32
    frame) takes 2.3-4.1 ms, building the 144,000 bytes its pyramid adds
    0.55-0.66 ms, and a pyramid miss on a resident frame skips the render
    anyway.  A plain LRU across both kinds re-renders 604 instead of 399
    clip-stream frames at every budget up to 192 MiB.

    Stored arrays are made read-only: every renderer (and every arm
    sharing the store) gets the *same* arrays, so an in-place mutation
    would silently corrupt other arms' inputs.
    """

    def __init__(self, max_bytes: int = STORE_BYTES) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        # key -> (value, bytes charged for it)
        self._entries: dict[str, OrderedDict[tuple, tuple[Any, int]]] = {
            kind: OrderedDict() for kind in KINDS
        }
        self._bytes = dict.fromkeys(KINDS, 0)

    @property
    def current_bytes(self) -> int:
        return sum(self._bytes.values())

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._entries.values())

    def get(self, key: tuple) -> Any:
        """The stored value for ``key`` (see the module docstring), or ``None``."""
        kind = key[1]
        entries = self._entries[kind]
        with self._lock:
            entry = entries.get(key)
            if entry is not None:
                entries.move_to_end(key)
        if entry is None:
            _COUNTERS[kind]["miss"].inc()
            return None
        _COUNTERS[kind]["hit"].inc()
        return entry[0]

    def put(self, key: tuple, value: Any) -> Any:
        """Insert a fresh frame or pyramid, evicting over budget.

        A value larger than the whole budget is not stored.  On a racing
        double insert the first entry wins — both hold identical bytes.
        Returns the canonical value for the key: the stored one when this
        insert (or an earlier racing one) succeeded, the caller's own value
        untouched when nothing was stored.  Only stored values are frozen;
        a rejected duplicate stays writable, because its caller owns it.
        """
        kind = key[1]
        entries = self._entries[kind]
        arrays = _arrays(value)
        with self._lock:
            existing = entries.get(key)
            if existing is not None:
                return existing[0]
            if kind == PYRAMID and self._holds_frame(key, arrays[0]):
                arrays = arrays[1:]
            nbytes = sum(int(array.nbytes) for array in arrays)
            if nbytes > self.max_bytes:
                return value
            for array in arrays:
                array.setflags(write=False)
            entries[key] = (value, nbytes)
            self._bytes[kind] += nbytes
            self._evict_over_budget()
        return value

    def _holds_frame(self, key: tuple, level0: np.ndarray) -> bool:
        """Whether ``level0`` is the stored frame of pyramid ``key`` (lock held)."""
        frame = self._entries[FRAME].get(_frame_key(key))
        return frame is not None and frame[0] is level0

    def _evict_over_budget(self) -> None:
        """Evict LRU pyramids, then LRU frames, until within budget (lock held).

        Pyramids first is what keeps every shared level 0 resident: a
        frame goes only once no pyramid, and so none holding it, is left.
        """
        over = self.current_bytes - self.max_bytes
        while over > 0:
            kind = next(kind for kind in EVICTION_ORDER if self._entries[kind])
            _, (_, nbytes) = self._entries[kind].popitem(last=False)
            over -= nbytes
            self._bytes[kind] -= nbytes
            _COUNTERS[kind]["evictions"].inc()
            _COUNTERS[kind]["evicted_bytes"].inc(nbytes)

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            for kind in KINDS:
                self._entries[kind].clear()
                self._bytes[kind] = 0

    def stats(self) -> dict:
        """Residency snapshot: the budget, and per kind the resident
        entries and bytes, taken under the store lock.

        What the store did — hits, misses, evictions and evicted bytes —
        is counted in :data:`repro.obs.WORK` as ``store.<kind>.*``.
        """
        with self._lock:
            doc: dict = {"max_bytes": self.max_bytes, "current_bytes": self.current_bytes}
            for kind in KINDS:
                doc[kind] = {"entries": len(self._entries[kind]), "bytes": self._bytes[kind]}
            return doc


# The process-wide instance.  Renderers resolve it at render time.
_default_store = FrameStore()


def default_store() -> FrameStore:
    """The process-wide store."""
    return _default_store
