"""The outside-in tracer: restores what it wraps, tolerates deletions, adds up."""

from bench.trace import PROBES, ROOT, Probe, Tracer, _resolve
from bench.workloads import WORKLOADS, ClipWorkload


def _originals():
    found = {}
    for probe in PROBES:
        target = _resolve(probe)
        if target is not None:
            owner, name = target
            found[(id(owner), name)] = (owner, name, vars(owner)[name])
    return found


def _tiny_clips():
    return WORKLOADS["clip-stream"].inputs(seed=0, tiny=True)


def _run_tiny_clip_units(tracer, clips):
    from repro.experiments import runners

    for method in WORKLOADS["clip-stream"].methods:
        for clip in clips:
            tracer.call(ROOT, ClipWorkload._unit, runners, method, clip)


def test_every_probe_resolves_today():
    assert [p for p in PROBES if _resolve(p) is None] == []


def test_wrappers_are_restored_after_a_traced_run():
    clips = _tiny_clips()
    before = _originals()
    with Tracer() as tracer:
        _run_tiny_clip_units(tracer, clips)
        wrapped = _originals()
        assert all(wrapped[key][2] is not original for key, (_, _, original) in before.items())
    after = _originals()
    assert {k: v[2] for k, v in after.items()} == {k: v[2] for k, v in before.items()}


def test_absent_symbols_are_reported_not_fatal():
    tracer = Tracer()
    absent = tracer.install(
        (
            Probe("gone.module", "repro.no_such_module", "f"),
            Probe("gone.method", "repro.video.render", "FrameRenderer.no_such_method"),
            Probe("gone.class", "repro.video.render", "NoSuchClass.method"),
            Probe("video.frame", "repro.video.render", "FrameRenderer.render"),
        )
    )
    try:
        assert len(absent) == 3
    finally:
        tracer.uninstall()


def test_self_times_sum_to_the_unit_time():
    clips = _tiny_clips()
    with Tracer() as tracer:
        _run_tiny_clip_units(tracer, clips)
    stats = tracer.snapshot()
    calls, root_total, root_self = stats[ROOT]
    units = len(ClipWorkload.CLIPS) * len(WORKLOADS["clip-stream"].methods)
    assert calls == units
    total_self = sum(entry[2] for entry in stats.values())
    assert abs(total_self - root_total) <= 1e-6 * root_total
    # The part no layer claims stays under 5% of the unit time.
    assert root_self <= 0.05 * root_total
    assert stats["core.pipeline"][0] == units and stats["vision.lk"][0] > 0


def test_artifact_backing_calls_are_not_frame_store_traffic():
    from repro.vision import artifact_store
    from repro.vision.optical_flow import FramePyramid
    import numpy as np

    store = artifact_store.ArtifactStore(artifact_store._PrivateBacking(1 << 24))
    artifact = artifact_store.PyramidArtifact.from_pyramid(
        FramePyramid(np.zeros((32, 32)), 2), warmed=True
    )
    with Tracer() as tracer:
        store.put("fp", 0, 2, True, artifact)
        assert store.get("fp", 0, 2, True) is not None
    stats = tracer.snapshot()
    assert stats["vision.artifact_store.get"][0] == 1
    assert stats["vision.artifact_store.put"][0] == 1
    assert "video.frame_store.get" not in stats and "video.frame_store.put" not in stats
