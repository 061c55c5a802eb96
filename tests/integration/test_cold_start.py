"""Import contract: a cold process loads only what it runs.

SciPy is a test-only dependency — only the optional Hungarian matcher
uses it, and imports it on first use.  These tests pin that every
runtime path (the pipelines, ``evaluate_run``, serving, the CLI and
experiment modules, and sweep pool workers) runs with numpy alone.

The sweep runner below is a module-level function so the spawn start
method can pickle it by reference and reimport it inside the worker.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro
from repro.experiments.workloads import quick_suite
from repro.parallel import SweepEngine, run_shard
from repro.video.dataset import VideoSuite

_SRC = str(Path(repro.__file__).resolve().parent.parent)

# The default work every cold-start case runs: the runtime entry modules,
# two tracker tiers through the evaluation path, and a small serve fleet.
_DEFAULT_WORK = """
import repro, repro.cli, repro.serve, repro.parallel
import repro.experiments.fig6_overall
from repro.experiments.runners import evaluate_run, make_method, run_method_on_clip
from repro.serve import ServeConfig, fleet_configs, serve_fleet
from repro.video.dataset import make_clip

clip = make_clip("racetrack", seed=3, num_frames=30)
for name in ("adavp", "mve"):
    run = run_method_on_clip(make_method(name), clip)
    accuracy, f1 = evaluate_run(run, clip)
    assert 0.0 <= accuracy <= 1.0 and len(f1) == 30, (name, accuracy)
report = serve_fleet(fleet_configs(16, seed=7), ServeConfig(duration_s=2.0))
assert len(report.streams) == 16 and report.digest()
"""


def _run_script(prelude: str, epilogue: str) -> subprocess.CompletedProcess:
    """Run ``prelude``, the default work, then ``epilogue`` in a fresh process."""
    body = textwrap.dedent(prelude) + _DEFAULT_WORK + textwrap.dedent(epilogue)
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", body],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed


def test_runtime_runs_with_scipy_blocked():
    completed = _run_script(
        """
        import sys
        sys.modules["scipy"] = None  # any ``import scipy...`` now fails
        """,
        """
        from repro.detection.detector import Detection
        from repro.geometry import Box
        from repro.metrics.matching import match_detections
        from repro.video.scene import FrameAnnotation, GroundTruthObject

        box = Box(10.0, 10.0, 40.0, 40.0)
        annotation = FrameAnnotation(0, (GroundTruthObject(1, "car", box),))
        detections = [Detection("car", box, 0.9)]
        assert match_detections(detections, annotation).true_positives == 1
        try:
            match_detections(detections, annotation, method="hungarian")
        except ImportError:
            print("hungarian-needs-scipy")
        """,
    )
    assert "hungarian-needs-scipy" in completed.stdout


def test_default_work_never_loads_scipy():
    completed = _run_script(
        "",
        """
        import sys
        print("scipy-loaded" if "scipy" in sys.modules else "scipy-absent")
        """,
    )
    assert "scipy-absent" in completed.stdout


def scipy_probe_runner(spec, clip=None, obs=None):
    """``run_shard`` that also records whether SciPy is loaded in its process."""
    result = run_shard(spec, clip=clip, obs=obs)
    result.scipy_loaded = "scipy" in sys.modules
    return result


def test_sweep_workers_never_load_scipy():
    suite = quick_suite(frames=24)
    suite = VideoSuite(name=suite.name, clips=suite.clips[:2])
    settled = []
    with SweepEngine(jobs=2) as engine:
        sweep = engine.run(
            ["adavp", "mve"],
            suite,
            progress=lambda done, total, result: settled.append(result),
            shard_runner=scipy_probe_runner,
        )
    assert not sweep.failures
    assert len(settled) == 4
    assert all(result.worker_pid != os.getpid() for result in settled)
    assert [result.scipy_loaded for result in settled] == [False] * 4
