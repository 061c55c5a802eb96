"""Thread-safe frame buffer (paper §V: "implemented by using Queue").

Used by the threaded live executor.  The camera thread pushes
``(frame_index, frame)`` pairs; the detector fetches the *newest* frame
(dropping its backlog view), while the tracker reads a contiguous range.
A bounded capacity models the device's real memory limit: when full, the
oldest frames are dropped, exactly what happens on a device whose pipeline
falls behind the camera.

The buffer optionally records telemetry (pushes, drops, occupancy) into a
:class:`repro.obs.Telemetry`; counters are incremented while holding the
buffer lock, so the ``buffer.dropped`` counter always agrees with the
``dropped`` attribute, even under contention.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.obs import NULL_TELEMETRY, Telemetry


class FrameBuffer:
    """Bounded, lock-protected store of recent frames keyed by index."""

    def __init__(self, capacity: int = 64, obs: Telemetry | None = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._frames: OrderedDict[int, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self.dropped = 0
        self._obs = obs or NULL_TELEMETRY

    def push(self, frame_index: int, frame: np.ndarray) -> None:
        """Add a captured frame, evicting the oldest if at capacity."""
        with self._not_empty:
            if self._frames and frame_index <= next(reversed(self._frames)):
                raise ValueError(
                    f"frame {frame_index} pushed out of order "
                    f"(newest is {next(reversed(self._frames))})"
                )
            while len(self._frames) >= self.capacity:
                self._frames.popitem(last=False)
                self.dropped += 1
                self._obs.counter("buffer.dropped").inc()
            self._frames[frame_index] = frame
            self._obs.counter("buffer.pushed").inc()
            self._obs.gauge("buffer.occupancy").set(len(self._frames))
            self._not_empty.notify_all()

    def newest_index(self) -> int | None:
        with self._lock:
            if not self._frames:
                return None
            return next(reversed(self._frames))

    def fetch_newest(self, timeout: float | None = None) -> tuple[int, np.ndarray] | None:
        """The most recent frame, blocking up to ``timeout`` for one to exist."""
        with self._not_empty:
            if not self._frames and not self._not_empty.wait_for(
                lambda: bool(self._frames), timeout=timeout
            ):
                return None
            index = next(reversed(self._frames))
            return index, self._frames[index]

    def get(self, frame_index: int) -> np.ndarray | None:
        """A specific frame, or ``None`` if it was evicted / never captured."""
        with self._lock:
            return self._frames.get(frame_index)

    def __len__(self) -> int:
        with self._lock:
            return len(self._frames)
