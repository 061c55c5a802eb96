"""End-to-end telemetry: pipelines emit spans/metrics that reconcile with
their own :class:`PipelineRun` summaries, and observability never changes
pipeline output (the no-op default is bit-identical).
"""

import pytest

from repro.baselines.marlin import MarlinPipeline
from repro.baselines.no_tracking import NoTrackingPipeline
from repro.core.adaptation import collect_training_data, train_threshold_table
from repro.core.adavp import AdaVP
from repro.core.mpdt import FixedSettingPolicy, MPDTPipeline
from repro.obs import InMemorySink, Telemetry
from repro.video.dataset import make_clip


@pytest.fixture(scope="module")
def adavp_instrumented():
    """One AdaVP run (setting switches included) with in-memory telemetry."""
    clip = make_clip("racetrack", seed=7, num_frames=120)
    sink = InMemorySink()
    obs = Telemetry(sink)
    run = AdaVP(obs=obs).process(clip)
    obs.flush()
    return run, obs, sink


class TestMPDTReconciliation:
    def test_every_cycle_emits_a_span(self, adavp_instrumented):
        run, _, sink = adavp_instrumented
        spans = [s for s in sink.spans if s.name == "mpdt.detect"]
        assert len(spans) == len(run.cycles)
        assert [s.attrs["frame"] for s in spans] == [
            c.detect_frame for c in run.cycles
        ]
        assert [s.attrs["setting"] for s in spans] == [
            c.profile_name for c in run.cycles
        ]

    def test_span_times_match_cycle_records(self, adavp_instrumented):
        run, _, sink = adavp_instrumented
        detects = [s for s in sink.spans if s.name == "mpdt.detect"]
        for span, cycle in zip(detects, run.cycles):
            assert span.start == cycle.detect_start
            assert span.end == cycle.detect_end

    def test_cycle_counter_matches(self, adavp_instrumented):
        run, obs, _ = adavp_instrumented
        assert obs.metrics.find("mpdt.cycles").value == len(run.cycles)

    def test_histogram_reconciles_with_profile_usage(self, adavp_instrumented):
        run, obs, _ = adavp_instrumented
        usage = run.profile_usage()
        assert len(usage) > 1, "scenario should exercise setting switches"
        for setting, count in usage.items():
            hist = obs.metrics.find("mpdt.cycle_latency", setting=setting)
            assert hist is not None
            assert hist.count == count

    def test_histogram_totals_reconcile_with_cycle_latencies(
        self, adavp_instrumented
    ):
        run, obs, _ = adavp_instrumented
        by_setting: dict[str, float] = {}
        for cycle in run.cycles:
            by_setting[cycle.profile_name] = (
                by_setting.get(cycle.profile_name, 0.0) + cycle.detection_latency
            )
        for setting, total in by_setting.items():
            hist = obs.metrics.find("mpdt.cycle_latency", setting=setting)
            assert hist.total == pytest.approx(total)

    def test_tracked_frames_counter_matches_cycles(self, adavp_instrumented):
        run, obs, _ = adavp_instrumented
        assert obs.metrics.find("mpdt.tracked_frames").value == sum(
            c.tracked for c in run.cycles
        )
        assert len(
            [s for s in adavp_instrumented[2].spans if s.name == "mpdt.track_step"]
        ) == sum(c.tracked for c in run.cycles)

    def test_switch_counter_matches_cycle_records(self, adavp_instrumented):
        run, obs, _ = adavp_instrumented
        # next_profile on cycle i is applied at the start of cycle i+1, so
        # switches counted live == switches recorded in completed intervals.
        switched = sum(1 for c in run.cycles[:-1] if c.switched)
        assert obs.metrics.find("mpdt.switches").value == switched


class TestNoOpDeterminism:
    def test_instrumented_run_is_bit_identical(self, tiny_clip):
        plain = MPDTPipeline(FixedSettingPolicy(512)).run(tiny_clip)
        traced = MPDTPipeline(
            FixedSettingPolicy(512), obs=Telemetry(InMemorySink())
        ).run(tiny_clip)
        assert plain.results == traced.results
        assert plain.cycles == traced.cycles


class TestBaselineTelemetry:
    def test_marlin_emits_cycle_spans(self, tiny_clip):
        sink = InMemorySink()
        run = MarlinPipeline(obs=Telemetry(sink)).run(tiny_clip)
        assert len([s for s in sink.spans if s.name == "marlin.detect"]) == len(run.cycles)

    def test_no_tracking_emits_cycle_spans(self, tiny_clip):
        sink = InMemorySink()
        run = NoTrackingPipeline(obs=Telemetry(sink)).run(tiny_clip)
        assert len([s for s in sink.spans if s.name == "no_tracking.detect"]) == len(run.cycles)


class TestAdaptationTelemetry:
    def test_training_records_runs_and_thresholds(self, tiny_clip):
        sink = InMemorySink()
        obs = Telemetry(sink)
        records = collect_training_data([tiny_clip], obs=obs)
        table = train_threshold_table(records, obs=obs)
        # One wall-clock span + one counter tick per (clip, setting) run.
        assert obs.metrics.find("adaptation.training_runs").value == 4
        assert len([s for s in sink.spans if s.name == "adaptation.collect"]) == 4
        assert obs.metrics.find("adaptation.settings_trained").value == len(table)
        for name, thresholds in table.items():
            gauge = obs.metrics.find("adaptation.threshold", setting=name, boundary="v1")
            assert gauge is not None
            assert gauge.value == thresholds.v1
