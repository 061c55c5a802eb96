"""Export/import clips: rendered frames + ground truth as ``.npz``.

Lets a downstream user inspect the synthetic videos with external tools,
pin an exact workload for regression comparisons across library versions,
or feed recorded ground truth into another system.  The archive holds the
rendered frames, per-frame box arrays, labels, object ids, and the
difficulty series.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.geometry import Box
from repro.video.dataset import VideoClip
from repro.video.scene import FrameAnnotation, GroundTruthObject
from repro.vision.block_motion import BlockMotionField, BlockMotionParams, block_motion_field
from repro.vision.features import SeedParams, seed_features
from repro.vision.optical_flow import FlowResult, LKParams, track_features

_FORMAT_VERSION = 1


def export_clip(clip: VideoClip, path: str | Path) -> Path:
    """Write a clip's frames and ground truth to ``path`` (``.npz``)."""
    path = Path(path)
    frames = np.stack([clip.frame(i) for i in range(clip.num_frames)])
    boxes, labels, object_ids, frame_index = [], [], [], []
    for i in range(clip.num_frames):
        for obj in clip.annotation(i).objects:
            frame_index.append(i)
            object_ids.append(obj.object_id)
            labels.append(obj.label)
            boxes.append(obj.box.as_tuple())
    metadata = {
        "format_version": _FORMAT_VERSION,
        "name": clip.name,
        "fps": clip.fps,
        "num_frames": clip.num_frames,
        "frame_width": clip.config.frame_width,
        "frame_height": clip.config.frame_height,
    }
    np.savez_compressed(
        path,
        frames=frames.astype(np.float32),
        boxes=np.asarray(boxes, dtype=np.float64).reshape(-1, 4),
        labels=np.asarray(labels, dtype=object),
        object_ids=np.asarray(object_ids, dtype=np.int64),
        frame_index=np.asarray(frame_index, dtype=np.int64),
        difficulty=np.asarray(
            [clip.scene.difficulty(i) for i in range(clip.num_frames)]
        ),
        metadata=json.dumps(metadata),
    )
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


class ExportedClip:
    """Read-only view over an exported clip archive.

    Provides the same ``frame``/``flow``/``features``/``motion``/
    ``annotation``/``num_frames`` surface the pipelines consume, so an
    exported workload can be re-run without the generator
    (``MPDTPipeline(...).run(exported)`` works via duck typing — except
    that ``scene`` is a lightweight shim exposing ``annotations()`` and
    ``difficulty()`` only).  ``flow``, ``features`` and ``motion`` build
    and compute on every call: an exported clip has no store.
    """

    class _SceneShim:
        def __init__(self, owner: "ExportedClip") -> None:
            self._owner = owner

        def annotations(self) -> list[FrameAnnotation]:
            return [self._owner.annotation(i) for i in range(self._owner.num_frames)]

        def difficulty(self, frame_index: int) -> float:
            return float(self._owner._difficulty[frame_index])

    def __init__(self, path: str | Path) -> None:
        archive = np.load(Path(path), allow_pickle=True)
        metadata = json.loads(str(archive["metadata"]))
        if metadata.get("format_version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported clip archive version {metadata.get('format_version')}"
            )
        self.name: str = metadata["name"]
        self.fps: float = metadata["fps"]
        self.num_frames: int = metadata["num_frames"]
        self.frame_width: int = metadata["frame_width"]
        self.frame_height: int = metadata["frame_height"]
        self._frames = archive["frames"]
        self._difficulty = archive["difficulty"]
        self._annotations: list[FrameAnnotation] = self._build_annotations(archive)
        self.scene = ExportedClip._SceneShim(self)
        # Namespace matching VideoClip.config for the fields pipelines read.
        from types import SimpleNamespace

        self.config = SimpleNamespace(
            frame_width=self.frame_width,
            frame_height=self.frame_height,
            fps=self.fps,
            num_frames=self.num_frames,
            frame_interval=1.0 / self.fps,
        )

    def _build_annotations(self, archive) -> list[FrameAnnotation]:
        per_frame: list[list[GroundTruthObject]] = [
            [] for _ in range(self.num_frames)
        ]
        boxes = archive["boxes"]
        labels = archive["labels"]
        object_ids = archive["object_ids"]
        frame_index = archive["frame_index"]
        for i in range(len(frame_index)):
            per_frame[int(frame_index[i])].append(
                GroundTruthObject(
                    object_id=int(object_ids[i]),
                    label=str(labels[i]),
                    box=Box(*(float(v) for v in boxes[i])),
                )
            )
        return [
            FrameAnnotation(
                frame_index=i,
                objects=tuple(objs),
                difficulty=float(self._difficulty[i]),
            )
            for i, objs in enumerate(per_frame)
        ]

    def frame(self, index: int) -> np.ndarray:
        return self._frames[index]

    def flow(
        self, prev_index: int, next_index: int, points: np.ndarray, params: LKParams
    ) -> FlowResult:
        return track_features(self.frame(prev_index), self.frame(next_index), points, params)

    def features(
        self, index: int, boxes: Sequence[Box], params: SeedParams
    ) -> list[np.ndarray]:
        return seed_features(self.frame(index), boxes, params)

    def motion(
        self, prev_index: int, next_index: int, points: np.ndarray, params: BlockMotionParams
    ) -> BlockMotionField:
        return block_motion_field(self.frame(prev_index), self.frame(next_index), points, params)

    def annotation(self, index: int) -> FrameAnnotation:
        return self._annotations[index]
