"""Shard cost model and LPT scheduling order."""

from __future__ import annotations

from repro.parallel import (
    ClipSpec,
    MethodSpec,
    ShardSpec,
    clip_units,
    estimate_shard_cost,
    method_family,
    order_shards,
)
from repro.video.dataset import make_clip


def _shard(
    index: int, method: str, frames: int = 60, clip_index: int = 0
) -> ShardSpec:
    clip = make_clip("intersection", seed=1, num_frames=frames)
    return ShardSpec(
        index=index,
        method=MethodSpec(name=method),
        clip=ClipSpec.from_clip(clip),
        clip_index=clip_index,
    )


def _grid(methods, clip_frames) -> list[ShardSpec]:
    """A method-major grid over clips of the given lengths."""
    return [
        _shard(mi * len(clip_frames) + ci, name, frames, clip_index=ci)
        for mi, name in enumerate(methods)
        for ci, frames in enumerate(clip_frames)
    ]


class TestMethodFamily:
    def test_known_families(self):
        assert method_family("adavp") == "adavp"
        assert method_family("mpdt-416") == "mpdt"
        assert method_family("marlin-608") == "marlin"
        assert method_family("no-tracking-320") == "no-tracking"

    def test_unknown_name_falls_back_to_prefix(self):
        assert method_family("someother-512") == "someother"


class TestEstimateShardCost:
    def test_family_ordering_matches_measured_wall_time(self):
        # Measured on the bench clips: adavp > mpdt > marlin >> no-tracking.
        costs = {
            name: estimate_shard_cost(_shard(0, name))
            for name in ("adavp", "mpdt-416", "marlin-416", "no-tracking-416")
        }
        assert costs["adavp"] > costs["mpdt-416"]
        assert costs["mpdt-416"] > costs["marlin-416"]
        assert costs["marlin-416"] > 5 * costs["no-tracking-416"]

    def test_scales_with_clip_length(self):
        short = estimate_shard_cost(_shard(0, "mpdt-416", frames=30))
        long = estimate_shard_cost(_shard(0, "mpdt-416", frames=120))
        assert long == 4 * short

    def test_detector_size_nudges_within_family(self):
        small = estimate_shard_cost(_shard(0, "mpdt-320"))
        big = estimate_shard_cost(_shard(0, "mpdt-608"))
        assert big > small
        # The nudge stays a nudge: family dominates, size refines.
        assert big < 2 * small

    def test_positive_even_for_unknown_method(self):
        assert estimate_shard_cost(_shard(0, "mystery-method")) > 0


class TestOrderShards:
    def test_longest_first_cheapest_last(self):
        shards = [
            _shard(0, "no-tracking-320"),
            _shard(1, "adavp"),
            _shard(2, "mpdt-416"),
        ]
        ordered = list(order_shards(shards))
        assert [s.method.name for s in ordered] == [
            "adavp",
            "mpdt-416",
            "no-tracking-320",
        ]

    def test_ties_break_on_grid_index(self):
        shards = [_shard(i, "mpdt-416") for i in (3, 1, 2, 0)]
        ordered = list(order_shards(shards))
        assert [s.index for s in ordered] == [0, 1, 2, 3]

    def test_order_is_a_permutation(self):
        shards = [
            _shard(i, name)
            for i, name in enumerate(
                ("adavp", "mpdt-320", "mpdt-608", "no-tracking-416", "marlin-512")
            )
        ]
        ordered = list(order_shards(shards))
        assert sorted(s.index for s in ordered) == list(range(5))


class TestClipUnits:
    def test_one_unit_per_clip_in_grid_order(self):
        shards = _grid(("adavp", "mpdt-416", "no-tracking-320"), (60, 60, 60))
        units = list(clip_units(shards, jobs=2))
        assert len(units) == 3
        for unit in units:
            assert len({s.clip_index for s in unit}) == 1
            assert [s.index for s in unit] == sorted(s.index for s in unit)

    def test_units_ordered_longest_first(self):
        shards = _grid(("adavp", "mpdt-416"), (30, 120, 60))
        units = list(clip_units(shards, jobs=2))
        assert [unit[0].clip_index for unit in units] == [1, 2, 0]

    def test_fewer_clips_than_jobs_splits_the_costliest_unit(self):
        shards = _grid(("adavp", "mpdt-416", "marlin-416", "no-tracking-320"), (60,))
        units = list(clip_units(shards, jobs=2))
        assert len(units) == 2
        # Dealt alternately from longest-first order: the halves pair the
        # most and least expensive cells.
        assert [[s.method.name for s in unit] for unit in units] == [
            ["adavp", "marlin-416"],
            ["mpdt-416", "no-tracking-320"],
        ]

    def test_split_stops_at_single_cells(self):
        shards = _grid(("adavp", "mpdt-416"), (60,))
        assert len(clip_units(shards, jobs=4)) == 2

    def test_units_partition_the_grid(self):
        shards = _grid(("adavp", "mpdt-320", "no-tracking-416"), (30, 60))
        for jobs in (1, 2, 3, 8):
            indices = [s.index for unit in clip_units(shards, jobs) for s in unit]
            assert sorted(indices) == list(range(len(shards)))
