"""Picklability and reconstruction fidelity of the sweep work units."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.parallel import ClipSpec, MethodSpec, ShardResult, ShardSpec
from repro.video.dataset import make_clip


class TestClipSpec:
    def test_round_trip_rebuilds_identical_clip(self):
        clip = make_clip("intersection", seed=11, num_frames=12)
        spec = ClipSpec.from_clip(clip)
        rebuilt = spec.build()
        assert rebuilt.name == clip.name
        assert rebuilt.num_frames == clip.num_frames
        for index in (0, 5, 11):
            # A fresh render: clip.frame would read the shared store.
            np.testing.assert_array_equal(
                rebuilt.renderer.render_frame(index), clip.frame(index)
            )
        for index in range(clip.num_frames):
            a, b = clip.annotation(index), rebuilt.annotation(index)
            assert [o.box.as_tuple() for o in a.objects] == [
                o.box.as_tuple() for o in b.objects
            ]

    def test_spec_is_hashable(self):
        clip = make_clip("intersection", seed=11, num_frames=4)
        spec = ClipSpec.from_clip(clip)
        assert spec in {spec}
        assert hash(spec) == hash(ClipSpec.from_clip(clip))


class TestPickling:
    def _shard(self, **overrides) -> ShardSpec:
        clip = make_clip("residential", seed=3, num_frames=6)
        fields = dict(
            index=2,
            method=MethodSpec(
                name="marlin-512", config=PipelineConfig(detector_seed=4)
            ),
            clip=ClipSpec.from_clip(clip),
            clip_index=0,
        )
        fields.update(overrides)
        return ShardSpec(**fields)

    def test_shard_spec_round_trips(self):
        spec = self._shard(keep_run=True, collect_obs=True, attempt=1)
        restored = pickle.loads(pickle.dumps(spec))
        assert restored == spec
        assert restored.method.config.detector_seed == 4

    def test_shard_result_round_trips(self):
        result = ShardResult(
            index=0,
            method="adavp",
            clip_name="residential-3",
            clip_index=0,
            accuracy=0.5,
            mean_f1=0.6,
            error=None,
        )
        restored = pickle.loads(pickle.dumps(result))
        assert restored.ok
        assert restored.accuracy == 0.5

    def test_failed_result_is_not_ok(self):
        result = ShardResult(
            index=0, method="adavp", clip_name="x", clip_index=0, error="boom"
        )
        assert not result.ok


class TestShardSpecDefaults:
    def test_grid_defaults(self):
        spec = ShardSpec(
            index=0,
            method=MethodSpec(name="adavp"),
            clip=ClipSpec.from_clip(make_clip("intersection", seed=1, num_frames=2)),
            clip_index=0,
        )
        assert spec.alpha == pytest.approx(0.7)
        assert spec.iou_threshold == pytest.approx(0.5)
        assert not spec.keep_run
        assert not spec.collect_obs
        assert spec.attempt == 0


class TestStoreBudgetValidation:
    def test_build_no_longer_reconfigures_the_store(self):
        # Regression: ClipSpec.build() used to call configure_default per
        # clip, silently re-budgeting (and possibly evicting) the
        # process-wide store mid-sweep.  The store's budget is a constant.
        from repro.video.framestore import default_store

        before = default_store().max_bytes
        ClipSpec.from_clip(make_clip("intersection", seed=1, num_frames=2)).build()
        assert default_store().max_bytes == before


