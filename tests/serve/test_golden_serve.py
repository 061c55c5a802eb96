"""Golden-trace digests for the serving layer.

Pins the full report digest of a seeded 64-stream run (which covers
every stream's rolling event digest, all class ledgers, and the
overload-transition trace), plus a saturated 512-stream run whose queue
fills, so the reject and shed paths and every overload level are pinned
too.  Any behavioural change to the scheduler, admission queue, stream
model, detector pricing, or report serialisation shifts these hex strings — which is the point: serving
determinism is an API, and breaking it must be a conscious decision.

Regenerate after an intentional change with::

    PYTHONPATH=src python tests/serve/test_golden_serve.py
"""

from repro.serve import ServeConfig, ServeScheduler, fleet_configs, serve_fleet

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


def _run(seed: int):
    return serve_fleet(fleet_configs(_STREAMS, seed=seed), ServeConfig(**_CONFIG))


def _run_saturated():
    scheduler = ServeScheduler(
        fleet_configs(_SATURATED_STREAMS, seed=7), ServeConfig(**_SATURATED_CONFIG)
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
    assert report.digest() == SATURATED_DIGEST, (
        "saturated serve digest changed — if intentional, regenerate "
        f"with `python {__file__}`"
    )


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


if __name__ == "__main__":
    _regenerate()
