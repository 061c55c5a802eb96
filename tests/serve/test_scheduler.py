"""Scheduler-level tests: conservation, replay identity, QoS behaviour,
watermark resolution, and obs reconciliation."""

import pytest

from repro.obs import InMemorySink, Telemetry
from repro.serve import (
    QOS_BEST_EFFORT,
    QOS_REALTIME,
    ServeConfig,
    ServeScheduler,
    StreamConfig,
    fleet_configs,
    serve_fleet,
)
from tests.serve.test_golden_serve import SATURATED_DIGEST, _run_saturated


def _small_fleet(count=12, **kwargs):
    return fleet_configs(count, seed=7, **kwargs)


class TestConservation:
    def test_nothing_vanishes(self):
        report = serve_fleet(_small_fleet(), ServeConfig(duration_s=5.0))
        # The run drains: arrivals stop at duration_s and the queue empties.
        assert report.final_depth == 0
        assert report.submitted == report.served + report.dropped
        # Per-stream counters add up to the fleet totals.
        assert report.submitted == sum(s.submitted for s in report.streams)
        assert report.served == sum(s.served for s in report.streams)
        assert report.dropped == sum(s.dropped for s in report.streams)
        # Class ledgers add up too.
        assert report.submitted == sum(
            c.submitted for c in report.classes.values()
        )
        assert report.served == sum(c.served for c in report.classes.values())

    def test_events_fired_counts_every_arrival_and_batch(self):
        """The report counts modelled events, one per frame arrival and
        one per batch completion, although only decisions are fired."""
        fleet = _small_fleet(24)
        scheduler = ServeScheduler(fleet, ServeConfig(duration_s=5.0))
        report = scheduler.run()
        assert report.events_fired == report.batches + sum(
            s.frames_arrived for s in report.streams
        )
        # Every stream saw every arrival up to the end of the run: frame k
        # lands at (phase offset) + (k + 1) / fps.
        for cfg, stream in zip(fleet, report.streams):
            origin = cfg.start_at + (cfg.stream_id % 97) / 97.0 / cfg.fps
            arrivals = sum(
                1 for k in range(200) if origin + (k + 1) / cfg.fps <= 5.0
            )
            assert stream.frames_arrived == arrivals
        assert scheduler.heap_pops < report.events_fired

    def test_conservation_under_tiny_queue(self):
        """A queue far smaller than the fleet forces shed/reject paths."""
        config = ServeConfig(
            duration_s=5.0,
            queue_depth=4,
            degrade_high=3,
            degrade_realtime_high=4,
            recover_low=1,
        )
        report = serve_fleet(_small_fleet(24), config)
        assert report.dropped > 0
        assert report.submitted == report.served + report.dropped
        assert report.peak_depth <= 4


class TestReplayIdentity:
    def test_same_seed_same_digest(self):
        config = ServeConfig(duration_s=4.0)
        a = serve_fleet(_small_fleet(), config)
        b = serve_fleet(_small_fleet(), config)
        assert a.digest() == b.digest()
        assert a.to_dict() == b.to_dict()

    def test_different_seed_different_digest(self):
        config = ServeConfig(duration_s=4.0)
        a = serve_fleet(fleet_configs(12, seed=7), config)
        b = serve_fleet(fleet_configs(12, seed=8), config)
        assert a.digest() != b.digest()

    def test_detector_seed_matters(self):
        a = serve_fleet(_small_fleet(), ServeConfig(duration_s=4.0, detector_seed=0))
        b = serve_fleet(_small_fleet(), ServeConfig(duration_s=4.0, detector_seed=1))
        assert a.digest() != b.digest()


class TestQoS:
    def test_realtime_waits_less_than_best_effort(self):
        report = serve_fleet(
            _small_fleet(32), ServeConfig(duration_s=8.0, warmup_s=2.0)
        )
        realtime = report.classes[QOS_REALTIME]
        best_effort = report.classes[QOS_BEST_EFFORT]
        assert realtime.wait_p99_s is not None
        assert best_effort.wait_p99_s is not None
        assert realtime.wait_p99_s < best_effort.wait_p99_s

    def test_warmup_excludes_startup_transient(self):
        cold = serve_fleet(_small_fleet(16), ServeConfig(duration_s=6.0))
        warm = serve_fleet(
            _small_fleet(16), ServeConfig(duration_s=6.0, warmup_s=2.0)
        )
        cold_rt, warm_rt = (
            r.classes[QOS_REALTIME] for r in (cold, warm)
        )
        assert warm_rt.slo_eligible < cold_rt.slo_eligible
        # Excluding the t=0 herd cannot worsen the p99.
        assert warm_rt.wait_p99_s <= cold_rt.wait_p99_s


class TestBackpressure:
    def test_overload_degrades_and_recovers(self):
        report = serve_fleet(_small_fleet(32), ServeConfig(duration_s=8.0))
        assert report.degrade_events >= 1
        assert report.recover_events >= 1
        # Transition levels are consistent: first transition raises from 0.
        assert report.overload_transitions[0][1] > 0
        assert report.overload_transitions[-1][1] == 0
        # Degraded episodes landed on actual streams.
        assert sum(s.degraded_episodes for s in report.streams) > 0

    def test_watermarks_scale_with_fleet(self):
        config = ServeConfig()
        mve_small, high_small, rt_small, low_small = config.resolve_watermarks(16)
        mve_big, high_big, rt_big, low_big = config.resolve_watermarks(200)
        assert high_small < high_big
        assert 0 < low_small < mve_small <= high_small <= rt_small <= config.queue_depth
        assert 0 < low_big < mve_big <= high_big <= rt_big <= config.queue_depth
        # Watermarks never exceed the hard queue bound even for huge fleets.
        _, _, rt_huge, _ = config.resolve_watermarks(10_000)
        assert rt_huge <= config.queue_depth

    def test_explicit_watermarks_win(self):
        config = ServeConfig(
            degrade_mve_high=4,
            degrade_high=5,
            degrade_realtime_high=6,
            recover_low=2,
        )
        assert config.resolve_watermarks(100) == (4, 5, 6, 2)

    def test_bad_watermarks_rejected(self):
        with pytest.raises(ValueError):
            ServeConfig(
                degrade_high=2, degrade_realtime_high=1, recover_low=3
            ).resolve_watermarks(10)


def _assert_counters_reconcile(obs: Telemetry, report) -> None:
    """Every obs counter total equals the report's own ledger figure."""

    def total(name: str) -> int:
        return sum(
            inst.value
            for inst in obs.metrics.instruments()
            if inst.name == name
        )

    assert total("serve.submitted") == report.submitted
    assert total("serve.served") == report.served
    assert total("serve.dropped") == report.dropped
    assert total("serve.degrade_events") == report.degrade_events
    assert total("serve.recover_events") == report.recover_events
    assert total("serve.tier_transitions") == report.tier_transitions


class TestObsReconciliation:
    def test_report_matches_telemetry(self):
        """The obs layer is a pure observer: its counters must agree with
        the report computed from the scheduler's own ledger."""
        obs = Telemetry(InMemorySink())
        report = serve_fleet(
            _small_fleet(16), ServeConfig(duration_s=5.0), obs=obs
        )
        _assert_counters_reconcile(obs, report)

    def test_null_telemetry_changes_nothing(self):
        """Observability off and on produce bit-identical reports."""
        plain = serve_fleet(_small_fleet(), ServeConfig(duration_s=4.0))
        observed = serve_fleet(
            _small_fleet(),
            ServeConfig(duration_s=4.0),
            obs=Telemetry(InMemorySink()),
        )
        assert plain.digest() == observed.digest()

    def test_saturated_fleet_reconciles(self):
        """Under shedding and rejection obs stays a pure observer: the
        digest is equal with obs on and off, the counters reconcile, and
        the final gauges read the report's end state."""
        # 48 streams against a 16-deep queue: requests are rejected and
        # shed, and the fleet visits every overload level before it drains.
        fleet = _small_fleet(48)
        config = ServeConfig(duration_s=4.0, queue_depth=16)
        obs = Telemetry(InMemorySink())
        scheduler = ServeScheduler(fleet, config, obs=obs)
        observed = scheduler.run()
        assert scheduler.queue.counters.rejected > 0
        assert scheduler.queue.counters.shed > 0
        assert {level for _, level in observed.overload_transitions} == {0, 1, 2, 3}

        assert serve_fleet(fleet, config).digest() == observed.digest()
        _assert_counters_reconcile(obs, observed)
        metrics = obs.metrics
        assert metrics.find("serve.queue_depth").value == observed.final_depth
        assert (
            metrics.find("serve.overload_level").value
            == observed.overload_transitions[-1][1]
        )


    def test_saturated_golden_reconciles_by_reason_and_class(self):
        """The saturated golden rejects most submissions without building
        a request; obs still sees each one, by reason and by class."""
        obs = Telemetry(InMemorySink())
        scheduler, report = _run_saturated(obs)
        assert report.digest() == SATURATED_DIGEST
        _assert_counters_reconcile(obs, report)
        metrics = obs.metrics
        rejected = sum(
            inst.value
            for inst in metrics.instruments()
            if inst.name == "serve.dropped" and inst.labels["reason"] == "rejected"
        )
        assert rejected == scheduler.queue.counters.rejected == 4654
        for qos, cls in report.classes.items():
            assert metrics.find("serve.submitted", qos=qos).value == cls.submitted
        assert metrics.find("serve.queue_depth").value == report.final_depth


class TestValidation:
    def test_duplicate_stream_ids_rejected(self):
        configs = [StreamConfig(stream_id=1), StreamConfig(stream_id=1)]
        with pytest.raises(ValueError):
            ServeScheduler(configs)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            ServeScheduler([])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration_s": 0},
            {"max_batch": 0},
            {"queue_depth": 0},
            {"slo_realtime_s": 0},
            {"warmup_s": 10.0, "duration_s": 10.0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

    def test_fleet_configs_realtime_fraction(self):
        configs = fleet_configs(100, realtime_fraction=0.25)
        realtime = [c for c in configs if c.qos == QOS_REALTIME]
        assert len(realtime) == 25
        # Spread through the id space, not clustered at the front.
        assert any(c.stream_id >= 50 for c in realtime)
        assert any(c.stream_id < 50 for c in realtime)
