"""Store of derived vision artifacts: pyramids built once per worker.

:mod:`repro.video.framestore` renders every raw frame once per process,
but every derived artifact would still be recomputed per method arm: a
fig6 sweep runs ~8 method arms over the same clips, and each arm would
rebuild identical :class:`~repro.vision.optical_flow.FramePyramid` levels
from scratch, because the :class:`~repro.vision.pyramid_cache.PyramidCache`
is per-run.  This module is the frame store one layer up: a
content-addressed, byte-budgeted store of **pyramid artifacts** — the
per-level images, about 1.31x the frame's float64 finest level — keyed
by

    ``(scene fingerprint, frame_index, pyramid_levels)``

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
    """One frame's derived pyramid payload: its level images.

    ``images`` is exactly what :func:`~repro.vision.image.build_pyramid`
    produces (finest first).  Gradients are not stored: Lucas-Kanade
    computes them on its own window support.
    """

    images: tuple[np.ndarray, ...]

    @property
    def levels(self) -> int:
        return len(self.images)

    @property
    def nbytes(self) -> int:
        return sum(int(image.nbytes) for image in self.images)

    @classmethod
    def from_pyramid(cls, pyramid: FramePyramid) -> "PyramidArtifact":
        """Capture a built pyramid's level images."""
        return cls(images=tuple(pyramid.images))

    def to_pyramid(self) -> FramePyramid:
        """Reconstruct the pyramid without rebuilding anything."""
        return FramePyramid.from_arrays(self.images)


class _PrivateBacking(FrameStore):
    """In-process byte-budgeted LRU of :class:`PyramidArtifact` values."""

    _METRIC_PREFIX = "artifactstore"

    @staticmethod
    def _freeze(artifact: PyramidArtifact) -> None:
        for image in artifact.images:
            image.setflags(write=False)


class ArtifactStore:
    """Typed facade over the artifact LRU.

    Encodes the 3-tuple artifact key into the backing's
    ``(fingerprint, frame_index)`` key space (the levels column folds into
    the fingerprint string).  ``stats``/``set_budget``/``clear``
    delegate, so the sweep engine manages this store exactly like the
    frame store.
    """

    def __init__(self, backing: _PrivateBacking) -> None:
        self.backing = backing

    # -- key scheme ----------------------------------------------------------

    @staticmethod
    def _backing_fingerprint(fingerprint: str, levels: int) -> str:
        return f"{fingerprint}|pyr:{int(levels)}"

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
        self, fingerprint: str, frame_index: int, levels: int
    ) -> PyramidArtifact | None:
        """The stored artifact, or ``None``."""
        return self.backing.get(self._backing_fingerprint(fingerprint, levels), frame_index)

    def put(
        self,
        fingerprint: str,
        frame_index: int,
        levels: int,
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
            self._backing_fingerprint(fingerprint, levels), frame_index, artifact
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
