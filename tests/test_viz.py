"""Unit tests for the ASCII visualisation helpers."""

import numpy as np
import pytest

from repro.detection.detector import Detection
from repro.geometry import Box
from repro.viz import frame_to_ascii


class TestFrameToAscii:
    def test_dimensions(self):
        art = frame_to_ascii(np.zeros((90, 160)), width=64)
        lines = art.splitlines()
        assert all(len(line) == 64 for line in lines)
        # height ~ width * (90/160) * 0.5 = 18.
        assert 14 <= len(lines) <= 22

    def test_intensity_mapping(self):
        dark = frame_to_ascii(np.zeros((20, 40)), width=20)
        bright = frame_to_ascii(np.ones((20, 40)), width=20)
        assert set(dark.replace("\n", "")) == {" "}
        assert set(bright.replace("\n", "")) == {"@"}

    def test_box_drawn(self):
        frame = np.full((90, 160), 0.5)
        det = Detection("car", Box(40, 20, 60, 40), 0.9)
        art = frame_to_ascii(frame, width=80, boxes=[det])
        assert "+" in art
        assert "C" in art  # label initial
        assert "|" in art and "-" in art

    def test_box_outside_frame_ignored(self):
        frame = np.full((90, 160), 0.5)
        det = Detection("car", Box(500, 500, 10, 10), 0.9)
        art = frame_to_ascii(frame, width=40, boxes=[det])
        assert "+" not in art

    def test_validation(self):
        with pytest.raises(ValueError):
            frame_to_ascii(np.zeros((4, 4, 3)))
        with pytest.raises(ValueError):
            frame_to_ascii(np.zeros((10, 10)), width=4)

