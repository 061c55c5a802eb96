"""Camera source: timestamps a clip's frames like a live camera feed.

The runtime pipeline never sees a "video file"; it sees a camera that
produces frame ``i`` at time ``i / fps`` and a frame buffer that fills up
while the detector is busy.  :class:`CameraSource` provides the timing
arithmetic both the discrete-event simulator and the threaded live
executor share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.video.dataset import VideoClip


@dataclass(frozen=True)
class CameraSource:
    """Maps between capture timestamps and frame indices for one clip."""

    clip: VideoClip

    @property
    def fps(self) -> float:
        return self.clip.fps

    @property
    def frame_interval(self) -> float:
        return 1.0 / self.clip.fps

    @property
    def num_frames(self) -> int:
        return self.clip.num_frames

    @property
    def duration(self) -> float:
        """Time at which the last frame has been captured."""
        return self.num_frames * self.frame_interval

    def capture_time(self, frame_index: int) -> float:
        """The wall-clock time at which ``frame_index`` becomes available."""
        if not 0 <= frame_index < self.num_frames:
            raise IndexError(f"frame {frame_index} out of range")
        return frame_index * self.frame_interval

    def newest_frame_at(self, time: float) -> int:
        """Index of the newest frame captured at or before ``time``.

        Clamped to the final frame once the video has ended; negative times
        (before frame 0 exists) raise, since the pipeline starts at t=0 with
        frame 0 already captured.
        """
        if time < 0:
            raise ValueError("time must be non-negative")
        index = int(math.floor(time * self.fps + 1e-9))
        return min(index, self.num_frames - 1)
