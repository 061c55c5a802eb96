"""Golden-trace digests for the serving layer.

Pins the full report digest of a seeded 64-stream run (which covers
every stream's rolling event digest, all class ledgers, and the
overload-transition trace), plus a saturated 512-stream run whose queue
fills, so the reject and shed paths and every overload level are pinned
too, and a set of *tie* fleets whose arrival and completion instants
are exact binary fractions, so same-instant events are common and their
firing order is pinned.  Any behavioural change to the scheduler,
admission queue, stream model, detector pricing, or report serialisation
shifts these hex strings — which is the point: serving determinism is an
API, and breaking it must be a conscious decision.

Regenerate after an intentional change with::

    PYTHONPATH=src python tests/serve/test_golden_serve.py
"""

from dataclasses import dataclass

from repro.perf.reference import ReferenceServeScheduler
from repro.serve import (
    QOS_BEST_EFFORT,
    QOS_REALTIME,
    ServeConfig,
    ServeScheduler,
    SimStream,
    StreamConfig,
    fleet_configs,
    serve_fleet,
)

_STREAMS = 64
_CONFIG = dict(duration_s=6.0, warmup_s=2.0)

GOLDEN_DIGESTS = {
    7: "f56c2bcc55d0f72c6189851eaf927c3e4a4cdfb043c89473b656ca5ce2143a69",
    21: "7b0617dc69339d7c64afc50eb64150ae0d92050085c10f797b68f46723e5e1d4",
}

# 512 streams against the default 256-deep queue: the queue fills within
# the first frame period, so requests are rejected and shed and the
# fleet walks through every overload level before it drains.
_SATURATED_STREAMS = 512
_SATURATED_CONFIG = dict(duration_s=5.0, warmup_s=2.0)
SATURATED_DIGEST = "7a4a3af9777508811b5339c7537f978083d43588d9890869908b91d89ad3ab29"

# Tie fleets: fps-32 streams whose ids are multiples of 97 share the
# phase offset 0, so every arrival lands on start_at + (k + 1) / 32 and,
# with a fixed-latency detector, every completion on a sum of binary
# fractions too.  Arrivals of different streams tie at every frame, and
# completions tie arrivals whenever the latency is a multiple of 1/fps.
# The latencies sit below, equal to, and at a multiple of 1/fps; the
# burst fleet adds a second cohort at start_at=1.0, and the tight queue
# makes the tied events reject, shed and change tiers.
_TIE_FPS = 32.0
_TIE_SCENARIOS = ("intersection", "racetrack", "meeting_room", "city_street")
_TIGHT_QUEUE = dict(
    queue_depth=6,
    degrade_mve_high=3,
    degrade_high=4,
    degrade_realtime_high=5,
    recover_low=1,
)
TIE_CASES = {
    # name: (latency_s, [(count, start_at)], ServeConfig kwargs)
    "below-period": (1 / 64, [(16, 0.0)], dict(duration_s=3.0)),
    "one-period": (1 / 32, [(16, 0.0)], dict(duration_s=3.0)),
    "three-periods": (3 / 32, [(16, 0.0)], dict(duration_s=3.0, **_TIGHT_QUEUE)),
    "burst": (
        1 / 32,
        [(8, 0.0), (8, 1.0)],
        dict(duration_s=3.0, max_batch=4, **_TIGHT_QUEUE),
    ),
}
# name: (report digest, events_fired)
TIE_GOLDENS = {
    "below-period": ("68c6c4ed83174a4fa7d54a3ee27ea7a1f7a33d77bcd64a9c15bebde0aade1b32", 1730),
    "one-period": ("c384ec7e57437a65b28f099ad13fc5f8cdbf3bf7f21e7597e69249394615274f", 1639),
    "three-periods": ("420d471d9557073a21a34b0909fca81454ed70496517a3f2cc3d9f5fd03cc863", 1569),
    "burst": ("3a153401500ec6d145e66a5bc7e1b5c23373bb081d096eb390ade2e06bc77ad1", 1378),
}


@dataclass(frozen=True)
class FixedLatencyDetector:
    """A batch detector that takes the same time for every batch."""

    latency_s: float

    def batch_latency(self, batch, now):
        return self.latency_s


def _tie_fleet(cohorts):
    configs = []
    for count, start_at in cohorts:
        for _ in range(count):
            i = len(configs)
            configs.append(
                StreamConfig(
                    stream_id=97 * i,
                    qos=QOS_REALTIME if i % 4 == 0 else QOS_BEST_EFFORT,
                    fps=_TIE_FPS,
                    scenario=_TIE_SCENARIOS[i % len(_TIE_SCENARIOS)],
                    seed=7,
                    start_at=start_at,
                )
            )
    return configs


def _run_tie(name: str):
    latency, cohorts, config = TIE_CASES[name]
    scheduler = ServeScheduler(
        _tie_fleet(cohorts),
        ServeConfig(**config),
        detector=FixedLatencyDetector(latency),
    )
    return scheduler, scheduler.run()


def _run(seed: int):
    return serve_fleet(fleet_configs(_STREAMS, seed=seed), ServeConfig(**_CONFIG))


def _run_saturated(obs=None):
    scheduler = ServeScheduler(
        fleet_configs(_SATURATED_STREAMS, seed=7),
        ServeConfig(**_SATURATED_CONFIG),
        obs=obs,
    )
    return scheduler, scheduler.run()


def test_seeded_fleet_matches_golden_digest():
    for seed, expected in GOLDEN_DIGESTS.items():
        report = _run(seed)
        assert report.digest() == expected, (
            f"seed {seed}: serve digest changed — if intentional, regenerate "
            f"with `python {__file__}`"
        )


def test_saturated_fleet_matches_golden_digest():
    scheduler, report = _run_saturated()
    counters = scheduler.queue.counters
    assert (counters.rejected, counters.shed) == (4654, 72)
    assert {level for _, level in report.overload_transitions} == {0, 1, 2, 3}
    assert report.final_depth == 0
    # Only decisions reach the heap: pops stay within twice the
    # submits, batches, tier transitions and initial pushes, far below
    # the modelled per-arrival event count.
    assert scheduler.heap_pops <= 2 * (
        report.submitted
        + report.batches
        + report.tier_transitions
        + report.num_streams
    )
    assert report.events_fired == report.batches + sum(
        s.frames_arrived for s in report.streams
    )
    assert report.digest() == SATURATED_DIGEST, (
        "saturated serve digest changed — if intentional, regenerate "
        f"with `python {__file__}`"
    )


def test_saturated_fleet_builds_requests_only_for_admissions(monkeypatch):
    """The queue decides a refusal before a request exists: only admitted
    submissions build one.  A refused stream waits for the batch in
    flight, so its whole run of refusals costs one heap pop: 4,654
    refusals and 361 admissions take 1,993 pops (5,648 when each refusal
    was a pop of its own)."""
    built = []
    make_request = SimStream.make_request

    def counting(self, frame_index, now):
        built.append(frame_index)
        return make_request(self, frame_index, now)

    monkeypatch.setattr(SimStream, "make_request", counting)
    scheduler, report = _run_saturated()
    assert len(built) == scheduler.queue.counters.admitted == 361
    assert scheduler.heap_pops == 1993
    assert report.digest() == SATURATED_DIGEST


def _record_refusals(scheduler, monkeypatch):
    """Log, in firing order, each dispatched batch's completion time,
    each refused run's arrival times and each stream's heap pushes."""
    log = []
    schedule = scheduler.events.schedule_ordered

    def recording(time, order, action, *args):
        if action == scheduler._on_batch_done:
            log.append(("dispatch", None, time))
        else:
            log.append(("push", args[0].lane.stream.config.stream_id, time))
        schedule(time, order, action, *args)

    on_rejected = SimStream.on_rejected

    def refusing(self, frames, times):
        log.append(("refuse", self.config.stream_id, list(times)))
        on_rejected(self, frames, times)

    monkeypatch.setattr(scheduler.events, "schedule_ordered", recording)
    monkeypatch.setattr(SimStream, "on_rejected", refusing)
    return log


def _check_refusal_runs(log):
    """Check each refused run against the batch in flight; returns the
    refusals, the refusals at the completion instant itself, and the
    re-arms on that instant.

    A run's first arrival fires at or before the completion (at it only
    when it ties the completion and fires first), every later one
    strictly before, and the stream's next heap entry is at or after it.
    """
    completion = None
    waiting = {}
    refused = tied = rearmed_on_completion = 0
    for kind, stream_id, value in log:
        if kind == "dispatch":
            completion = value
        elif kind == "refuse":
            assert value[0] <= completion
            assert all(at < completion for at in value[1:])
            refused += len(value)
            tied += value[0] == completion
            waiting[stream_id] = completion
        elif stream_id in waiting:
            due = waiting.pop(stream_id)
            assert value >= due
            rearmed_on_completion += value == due
    return refused, tied, rearmed_on_completion


def test_a_refused_stream_waits_for_the_batch_in_flight(monkeypatch):
    """On the saturated golden, every refused frame arrives before the
    in-flight batch completes, and the refused stream's next heap entry
    is at or after that completion."""
    scheduler = ServeScheduler(
        fleet_configs(_SATURATED_STREAMS, seed=7), ServeConfig(**_SATURATED_CONFIG)
    )
    log = _record_refusals(scheduler, monkeypatch)
    report = scheduler.run()
    refused, tied, _ = _check_refusal_runs(log)
    assert refused == scheduler.queue.counters.rejected == 4654
    assert tied == 0
    runs = sum(kind == "refuse" for kind, _, _ in log)
    assert runs < refused
    assert report.digest() == SATURATED_DIGEST


def test_rearm_on_a_completion_instant_matches_reference(monkeypatch):
    """fps-32 streams against a 4/32-s detector and a two-deep queue: at
    the full queue's overload level the realtime streams submit every
    second frame, so refused runs span several frames and often re-arm
    exactly on the completion instant, where the arrival keeps its
    causal tie order with the completion.  Digests equal the per-frame
    scheduler's."""
    streams = [
        StreamConfig(
            stream_id=97 * i,
            qos=QOS_REALTIME if i % 2 == 0 else QOS_BEST_EFFORT,
            fps=_TIE_FPS,
            scenario="racetrack",
            seed=7,
            mve_interval=2,
            keyframe_interval=2,
        )
        for i in range(8)
    ]
    config = ServeConfig(
        duration_s=2.0,
        max_batch=1,
        queue_depth=2,
        degrade_mve_high=2,
        degrade_high=2,
        degrade_realtime_high=2,
        recover_low=1,
    )
    detector = FixedLatencyDetector(4 / 32)
    scheduler = ServeScheduler(streams, config, detector=detector)
    log = _record_refusals(scheduler, monkeypatch)
    report = scheduler.run()
    refused, _, rearmed_on_completion = _check_refusal_runs(log)
    assert refused == scheduler.queue.counters.rejected
    assert sum(kind == "refuse" for kind, _, _ in log) < refused
    assert rearmed_on_completion > 0
    reference = ReferenceServeScheduler(streams, config, detector=detector).run()
    assert report.digest() == reference.digest()
    assert report.to_dict() == reference.to_dict()


def test_tie_fleets_match_golden_digests():
    for name, (digest, events_fired) in TIE_GOLDENS.items():
        _, report = _run_tie(name)
        assert (report.digest(), report.events_fired) == (digest, events_fired), (
            f"tie fleet {name}: serve digest changed — if intentional, "
            f"regenerate with `python {__file__}`"
        )
    assert set(TIE_GOLDENS) == set(TIE_CASES)


def test_two_invocations_are_bit_identical():
    """The replay contract itself: same seed, same everything."""
    first, second = _run(7), _run(7)
    assert first.to_dict() == second.to_dict()
    assert first.digest() == second.digest()
    # Per-stream event digests agree stream by stream, not just in bulk.
    for a, b in zip(first.streams, second.streams):
        assert a.digest == b.digest


def test_digest_covers_stream_events():
    """Digest is not just totals: it must see per-stream event order."""
    report = _run(7)
    doc = report.to_dict()
    doc["streams"][0]["digest"] = "0" * 64
    import hashlib
    import json

    tampered = hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    assert tampered != report.digest()


def _regenerate() -> None:
    for seed in GOLDEN_DIGESTS:
        print(f"    {seed}: \"{_run(seed).digest()}\",")
    print(f"SATURATED_DIGEST = \"{_run_saturated()[1].digest()}\"")
    for name in TIE_CASES:
        report = _run_tie(name)[1]
        print(f"    \"{name}\": (\"{report.digest()}\", {report.events_fired}),")


if __name__ == "__main__":
    _regenerate()
