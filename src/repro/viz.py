"""Terminal visualisation: render frames and boxes as ASCII art.

No display server exists in this environment, so the examples and the CLI
"show" frames by mapping grayscale intensity to ASCII density and drawing
box outlines with labelled corners.  Good enough to eyeball what the
detector sees and where the tracker put its boxes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.detection.detector import Detection
from repro.geometry import Box

# From dark to bright.
_RAMP = " .:-=+*#%@"


def frame_to_ascii(
    frame: np.ndarray,
    width: int = 96,
    boxes: Sequence[Detection] | None = None,
) -> str:
    """Render a grayscale frame (values in [0, 1]) as ASCII art.

    ``width`` is the output character width; height follows the frame's
    aspect ratio, compensating for terminal cells being ~2x taller than
    wide.  ``boxes`` are drawn as outlines with the label's first letter in
    the top-left corner.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 2:
        raise ValueError("frame_to_ascii expects a 2-D grayscale frame")
    if width < 8:
        raise ValueError("width must be at least 8 characters")
    frame_h, frame_w = frame.shape
    height = max(4, int(round(width * frame_h / frame_w * 0.5)))

    # Downsample by block averaging onto the character grid.
    ys = np.linspace(0, frame_h, height + 1).astype(int)
    xs = np.linspace(0, frame_w, width + 1).astype(int)
    grid = np.empty((height, width))
    for i in range(height):
        for j in range(width):
            block = frame[ys[i] : max(ys[i + 1], ys[i] + 1),
                          xs[j] : max(xs[j + 1], xs[j] + 1)]
            grid[i, j] = block.mean()
    levels = np.clip((grid * (len(_RAMP) - 1)).round().astype(int), 0, len(_RAMP) - 1)
    canvas = [[_RAMP[v] for v in row] for row in levels]

    if boxes:
        sx = width / frame_w
        sy = height / frame_h
        for det in boxes:
            _draw_box(canvas, det.box, det.label, sx, sy)
    return "\n".join("".join(row) for row in canvas)


def _draw_box(canvas: list[list[str]], box: Box, label: str, sx: float, sy: float) -> None:
    height = len(canvas)
    width = len(canvas[0])
    x0 = int(round(box.left * sx))
    y0 = int(round(box.top * sy))
    x1 = int(round(box.right * sx)) - 1
    y1 = int(round(box.bottom * sy)) - 1
    x0c, x1c = max(0, x0), min(width - 1, x1)
    y0c, y1c = max(0, y0), min(height - 1, y1)
    if x0c > x1c or y0c > y1c:
        return
    for x in range(x0c, x1c + 1):
        if 0 <= y0 < height:
            canvas[y0][x] = "-"
        if 0 <= y1 < height:
            canvas[y1][x] = "-"
    for y in range(y0c, y1c + 1):
        if 0 <= x0 < width:
            canvas[y][x0] = "|"
        if 0 <= x1 < width:
            canvas[y][x1] = "|"
    if 0 <= y0 < height and 0 <= x0 < width:
        canvas[y0][x0] = "+"
        if x0 + 1 <= x1c and label:
            canvas[y0][min(x0 + 1, width - 1)] = label[0].upper()
    for y, x in ((y0, x1), (y1, x0), (y1, x1)):
        if 0 <= y < height and 0 <= x < width:
            canvas[y][x] = "+"
