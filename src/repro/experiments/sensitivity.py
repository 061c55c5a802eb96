"""Sensitivity studies beyond the paper's tables.

The paper's introduction targets "30 or 60 FPS" cameras but evaluates at
30.  :func:`run_fps_sweep` measures how the methods behave at 60 FPS:
detection latency is unchanged, so twice as many frames accumulate per
cycle and the tracker must skip more aggressively — smaller settings gain
relative value.

:func:`run_resolution_sweep` checks that the substrate's conclusions are
not an artifact of the default 320x180 render size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.report import format_table
from repro.parallel import run_sweep
from repro.video.dataset import VideoClip, VideoSuite, make_clip


@dataclass(frozen=True)
class SweepResult:
    title: str
    rows: list[tuple]  # (condition, method, accuracy, cycles)

    def report(self) -> str:
        return format_table(
            self.title, ("condition", "method", "accuracy", "cycles"), self.rows
        )

    def accuracy(self, condition, method) -> float:
        for row in self.rows:
            if row[0] == condition and row[1] == method:
                return row[2]
        raise KeyError((condition, method))

    def cycles(self, condition, method) -> int:
        for row in self.rows:
            if row[0] == condition and row[1] == method:
                return row[3]
        raise KeyError((condition, method))


def _condition_rows(
    condition: str, clip: VideoClip, methods: tuple[str, ...]
) -> list[tuple]:
    """One row per method on ``clip``: the methods run in one sweep, so
    their arms track in lockstep and share each Lucas-Kanade step."""
    sweep = run_sweep(methods, VideoSuite(name=condition, clips=[clip]), keep_runs=True)
    sweep.raise_if_failed()
    return [
        (
            condition,
            name,
            sweep.results[name].per_video_accuracy[0],
            len(sweep.results[name].runs[0].cycles),
        )
        for name in methods
    ]


def run_fps_sweep(
    scenario: str = "intersection",
    seed: int = 1201,
    seconds: float = 8.0,
    methods: tuple[str, ...] = ("adavp", "mpdt-512"),
    fps_values: tuple[float, ...] = (30.0, 60.0),
) -> SweepResult:
    """The same *physical* content captured at different camera rates.

    Scenario speeds are defined in pixels per frame at 30 fps; a 60 fps
    camera sees the same physical motion as half the per-frame speed, so
    the spawn specs are rescaled by ``30 / fps`` before building the clip.
    """
    from dataclasses import replace

    from repro.video.library import make_scenario

    rows = []
    for fps in fps_values:
        scale = 30.0 / fps
        config = make_scenario(scenario, num_frames=int(seconds * fps), fps=fps)
        config = replace(
            config,
            spawns=tuple(
                replace(
                    spec,
                    speed_min=spec.speed_min * scale,
                    speed_max=spec.speed_max * scale,
                    arrival_rate=spec.arrival_rate * scale,
                )
                for spec in config.spawns
            ),
        )
        rows += _condition_rows(f"{fps:g}fps", make_clip(config, seed=seed), methods)
    return SweepResult(
        title=f"FPS sensitivity on {scenario} ({seconds:g}s of content)",
        rows=rows,
    )


def run_resolution_sweep(
    scenario: str = "intersection",
    seed: int = 1301,
    num_frames: int = 240,
    methods: tuple[str, ...] = ("mpdt-512",),
    scales: tuple[float, ...] = (1.0, 1.5),
) -> SweepResult:
    """Same scenario rendered at different frame sizes.

    Object sizes and speeds are specified in pixels of the default
    320x180 canvas, so scaling the canvas without scaling content would
    change the workload; instead we scale the canvas and rely on the
    scenario's own absolute units — the point is that orderings, not
    values, survive.
    """
    rows = []
    for scale in scales:
        width = int(320 * scale)
        height = int(180 * scale)
        clip = make_clip(
            scenario, seed=seed, num_frames=num_frames,
            frame_width=width, frame_height=height,
        )
        rows += _condition_rows(f"{width}x{height}", clip, methods)
    return SweepResult(
        title=f"Render-resolution sensitivity on {scenario}", rows=rows
    )


if __name__ == "__main__":
    print(run_fps_sweep().report())
    print()
    print(run_resolution_sweep().report())
