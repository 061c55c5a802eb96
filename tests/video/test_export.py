"""Tests for clip export/import."""

import numpy as np
import pytest

from repro.video.dataset import make_clip
from repro.video.export import ExportedClip, export_clip


@pytest.fixture(scope="module")
def roundtrip(tmp_path_factory):
    clip = make_clip("intersection", seed=5, num_frames=40)
    path = tmp_path_factory.mktemp("export") / "clip.npz"
    export_clip(clip, path)
    return clip, ExportedClip(path)


class TestRoundtrip:
    def test_metadata(self, roundtrip):
        clip, loaded = roundtrip
        assert loaded.name == clip.name
        assert loaded.num_frames == clip.num_frames
        assert loaded.fps == clip.fps
        assert loaded.config.frame_width == clip.config.frame_width

    def test_frames_identical(self, roundtrip):
        clip, loaded = roundtrip
        for i in (0, 17, 39):
            assert np.allclose(loaded.frame(i), clip.frame(i))

    def test_annotations_identical(self, roundtrip):
        clip, loaded = roundtrip
        for i in (0, 20, 39):
            original = clip.annotation(i)
            restored = loaded.annotation(i)
            assert len(restored.objects) == len(original.objects)
            for a, b in zip(original.objects, restored.objects):
                assert a.label == b.label
                assert a.object_id == b.object_id
                assert a.box.as_tuple() == pytest.approx(b.box.as_tuple())
            assert restored.difficulty == pytest.approx(original.difficulty)

    @pytest.mark.parametrize("method", ["mpdt-512", "marlin-512", "mve"])
    def test_pipeline_runs_on_exported_clip(self, roundtrip, method):
        """An exported workload re-runs with identical results: the
        archive's pyramids and flows track as the store's do, on both
        tracker tiers (``mve`` runs the block-motion tier)."""
        clip, loaded = roundtrip
        from repro.experiments.runners import make_method, run_method_on_clip

        original = run_method_on_clip(make_method(method), clip)
        replayed = run_method_on_clip(make_method(method), loaded)
        assert [r.detections for r in original.results] == [
            r.detections for r in replayed.results
        ]

    def test_scene_shim(self, roundtrip):
        clip, loaded = roundtrip
        assert len(loaded.scene.annotations()) == clip.num_frames
        assert loaded.scene.difficulty(3) == pytest.approx(clip.scene.difficulty(3))

    def test_version_check(self, tmp_path):
        import json

        bad = tmp_path / "bad.npz"
        np.savez(bad, metadata=json.dumps({"format_version": 99}))
        with pytest.raises(ValueError):
            ExportedClip(bad)
