"""Unit tests for the scenario preset library."""

import numpy as np
import pytest

from repro.video.library import SCENARIO_PRESETS, list_scenarios, make_scenario
from repro.video.scene import Scene


class TestPresets:
    def test_fourteen_families(self):
        """The paper's corpus spans 14 scenario families."""
        assert len(SCENARIO_PRESETS) == 14

    def test_list_sorted(self):
        names = list_scenarios()
        assert names == sorted(names)

    @pytest.mark.parametrize("name", sorted(SCENARIO_PRESETS))
    def test_every_preset_instantiates(self, name):
        cfg = make_scenario(name, num_frames=30)
        scene = Scene(cfg, seed=0)
        ann = scene.annotation(0)
        # Every preset must put at least one object on screen at t=0.
        assert len(ann.objects) >= 1

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            make_scenario("the_moon")

    def test_overrides_applied(self):
        cfg = make_scenario("boat", num_frames=77, fps=60.0)
        assert cfg.num_frames == 77
        assert cfg.fps == 60.0

    def test_speed_regimes_ordered(self):
        """Fast presets must actually be faster than slow presets."""
        fast = make_scenario("racetrack").content_speed_hint()
        medium = make_scenario("intersection").content_speed_hint()
        slow = make_scenario("meeting_room").content_speed_hint()
        assert fast > medium > slow

    def test_car_mounted_has_pan(self):
        assert make_scenario("car_highway").camera_pan[0] > 0
        assert make_scenario("intersection").camera_pan == (0.0, 0.0)

    @pytest.mark.parametrize("name", sorted(SCENARIO_PRESETS))
    def test_object_density_reasonable(self, name):
        """Presets should produce realistic per-frame object counts."""
        cfg = make_scenario(name, num_frames=200)
        scene = Scene(cfg, seed=11)
        mean_count = np.mean([len(scene.annotation(i).objects) for i in range(0, 200, 10)])
        assert 0.5 <= mean_count <= 12.0, f"{name}: {mean_count}"
