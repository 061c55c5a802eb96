"""The LK microbenches time real solves, never a frame-store flow hit."""

from __future__ import annotations

import numpy as np
import pytest

from repro.perf.benches import (
    _flow_lookups,
    bench_lk_track,
    bench_mve_track,
    no_flow_lookups,
)
from repro.video.dataset import make_clip
from repro.vision.optical_flow import LKParams, track_features

_POINTS = np.array([[100.5, 60.25], [160.0, 90.0]])


class TestNoFlowLookups:
    def test_direct_solves_pass(self):
        clip = make_clip("boat", seed=4, num_frames=3)
        with no_flow_lookups("direct"):
            track_features(clip.frame(0), clip.frame(2), _POINTS)

    def test_a_store_read_fails(self):
        clip = make_clip("boat", seed=4, num_frames=3)
        with pytest.raises(AssertionError, match="looked up the flow store"):
            with no_flow_lookups("stored"):
                clip.flow(0, 2, _POINTS, LKParams())

    @pytest.mark.parametrize("bench", [bench_lk_track, bench_mve_track])
    def test_lk_benches_make_no_flow_lookups(self, bench):
        before = _flow_lookups()
        bench(quick=True)
        assert _flow_lookups() == before
