"""Store of derived vision artifacts: pyramids built once per worker.

:mod:`repro.video.framestore` renders every raw frame once per process,
but every derived artifact would still be recomputed per method arm: a
fig6 sweep runs ~8 method arms over the same clips, and each arm would
rebuild identical :class:`~repro.vision.optical_flow.FramePyramid` levels
and Scharr gradients from scratch, because the
:class:`~repro.vision.pyramid_cache.PyramidCache` is per-run.  This
module is the frame store one layer up: a content-addressed,
byte-budgeted store of **pyramid artifacts** — the per-level images plus
(optionally) the warmed ``(Ix, Iy)`` gradient pairs — keyed by

    ``(scene fingerprint, frame_index, pyramid_levels, warm_gradients)``

so two arms requesting the same frame's pyramid land on the same entry.
Pyramid construction is a pure function of the rendered frame, which is
itself a pure function of the scene fingerprint and frame index, so a
stored artifact is bit-identical to a fresh build: the store changes
*when* pyramids are computed, never *what* they are.

The backing is literally the frame store's LRU (byte-budgeted,
freeze-on-store, first-insert-wins) holding :class:`PyramidArtifact`
values directly.  The sweep engine hands a worker every cell of a clip
in turn, so one process-private store sees all the reuse a clip offers.
See DESIGN.md §13.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.video.framestore import (
    BYTES_PER_MB,  # noqa: F401 - re-exported convenience
    FrameStore,
)
from repro.vision.optical_flow import FramePyramid


@dataclass(frozen=True)
class PyramidArtifact:
    """One frame's derived pyramid payload: level images + optional gradients.

    ``images`` is exactly what :func:`~repro.vision.image.build_pyramid`
    produces (finest first); ``gradients`` is ``None`` for a lazy
    artifact or one ``(Ix, Iy)`` pair per level for a warmed one.  The
    warm flag is part of the store key, so lazy and warmed artifacts for
    the same frame are distinct entries — a reader asking for gradients
    never lands on an entry that lacks them.
    """

    images: tuple[np.ndarray, ...]
    gradients: tuple[tuple[np.ndarray, np.ndarray], ...] | None = None

    @property
    def warmed(self) -> bool:
        return self.gradients is not None

    @property
    def levels(self) -> int:
        return len(self.images)

    @property
    def planes(self) -> tuple[np.ndarray, ...]:
        """Every array the artifact holds: level images, then gradients."""
        pairs = self.gradients or ()
        return self.images + tuple(plane for pair in pairs for plane in pair)

    @property
    def nbytes(self) -> int:
        return sum(int(plane.nbytes) for plane in self.planes)

    @classmethod
    def from_pyramid(cls, pyramid: FramePyramid, warmed: bool) -> "PyramidArtifact":
        """Capture a built pyramid (warming its gradients when asked)."""
        images = tuple(pyramid.images)
        if not warmed:
            return cls(images=images, gradients=None)
        pyramid.warm_gradients()
        return cls(
            images=images,
            gradients=tuple(pyramid.gradients(level) for level in range(pyramid.levels)),
        )

    def to_pyramid(self) -> FramePyramid:
        """Reconstruct the pyramid without rebuilding anything."""
        return FramePyramid.from_arrays(self.images, self.gradients)


class _PrivateBacking(FrameStore):
    """In-process byte-budgeted LRU of :class:`PyramidArtifact` values."""

    _METRIC_PREFIX = "artifactstore"

    @staticmethod
    def _freeze(artifact: PyramidArtifact) -> None:
        for plane in artifact.planes:
            plane.setflags(write=False)


class ArtifactStore:
    """Typed facade over the artifact LRU.

    Encodes the 4-tuple artifact key into the backing's
    ``(fingerprint, frame_index)`` key space (the levels/warm columns fold
    into the fingerprint string).  ``stats``/``set_budget``/``clear``
    delegate, so the sweep engine manages this store exactly like the
    frame store.
    """

    def __init__(self, backing: _PrivateBacking) -> None:
        self.backing = backing

    # -- key scheme ----------------------------------------------------------

    @staticmethod
    def _backing_fingerprint(fingerprint: str, levels: int, warmed: bool) -> str:
        return f"{fingerprint}|pyr:{int(levels)}:{1 if warmed else 0}"

    # -- delegated state -----------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.backing.enabled

    @property
    def max_bytes(self) -> int:
        return self.backing.max_bytes

    def set_obs(self, obs=None) -> None:
        self.backing.set_obs(obs)

    def stats(self) -> dict:
        return self.backing.stats()

    def set_budget(self, max_bytes: int) -> None:
        self.backing.set_budget(max_bytes)

    def clear(self) -> None:
        self.backing.clear()

    # -- core ----------------------------------------------------------------

    def get(
        self, fingerprint: str, frame_index: int, levels: int, warmed: bool
    ) -> PyramidArtifact | None:
        """The stored artifact, or ``None``."""
        return self.backing.get(
            self._backing_fingerprint(fingerprint, levels, warmed), frame_index
        )

    def put(
        self,
        fingerprint: str,
        frame_index: int,
        levels: int,
        warmed: bool,
        artifact: PyramidArtifact,
    ) -> PyramidArtifact:
        """Publish a built artifact; first insert wins.

        Returns the canonical artifact for the key: the stored (frozen)
        one when the insert — or an earlier racing one — succeeded, the
        caller's own artifact unchanged when nothing was stored (store
        disabled, artifact over budget).  Callers should adopt the return
        value so every arm reads the same arrays.
        """
        return self.backing.put(
            self._backing_fingerprint(fingerprint, levels, warmed), frame_index, artifact
        )


# -- process-wide default ------------------------------------------------------
#
# Mirrors repro.video.framestore: a disabled-by-default process instance
# and a configure hook the engine (and --artifact-store-mb) drive.
# Pyramid caches resolve the default lazily at get() time, so configuring
# it after pipelines were built still takes effect.

_default_store = ArtifactStore(_PrivateBacking(0))


def default_store() -> ArtifactStore:
    """The process-wide artifact store (disabled until configured)."""
    return _default_store


def configure_default(max_bytes: int) -> ArtifactStore:
    """Set the process-wide store's budget and return it."""
    _default_store.set_budget(max_bytes)
    return _default_store
