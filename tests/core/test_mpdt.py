"""Unit tests for the MPDT pipeline's timing and bookkeeping."""

import pytest

from repro.core.config import PipelineConfig
from repro.core.mpdt import FixedSettingPolicy, MPDTPipeline, _model_family
from repro.obs import InMemorySink, Telemetry
from repro.runtime.simulator import SOURCE_DETECTOR, SOURCE_TRACKER


class TestModelFamily:
    @pytest.mark.parametrize(
        "profile_name, family",
        [
            ("yolov3-320", "full"),
            ("yolov3-416", "full"),
            ("yolov3-512", "full"),
            ("yolov3-608", "full"),
            ("yolov3-tiny-320", "tiny"),
            ("yolov3-tiny-416", "tiny"),
        ],
    )
    def test_known_profiles(self, profile_name, family):
        assert _model_family(profile_name) == family

    def test_boundary_crossing_is_what_costs_a_reload(self):
        # Input-size changes within a family are free; crossing is not.
        assert _model_family("yolov3-512") == _model_family("yolov3-320")
        assert _model_family("yolov3-512") != _model_family("yolov3-tiny-416")


@pytest.fixture(scope="module")
def run(tiny_clip):
    return MPDTPipeline(FixedSettingPolicy(512)).run(tiny_clip)


class TestFixedSettingPolicy:
    def test_always_same(self):
        policy = FixedSettingPolicy(416)
        assert policy.initial() == "yolov3-416"
        assert policy.next_setting(5.0, "yolov3-416") == "yolov3-416"
        assert policy.next_setting(None, "yolov3-608") == "yolov3-416"


class TestRunStructure:
    def test_every_frame_has_result(self, run, tiny_clip):
        assert len(run.results) == tiny_clip.num_frames
        assert [r.frame_index for r in run.results] == list(
            range(tiny_clip.num_frames)
        )

    def test_first_frame_detected(self, run):
        assert run.results[0].source == SOURCE_DETECTOR

    def test_sources_mixed(self, run):
        counts = run.source_counts()
        assert counts[SOURCE_DETECTOR] == len(run.cycles)
        assert counts[SOURCE_TRACKER] > 0
        assert counts["held"] > 0

    def test_cycle_timing_monotone(self, run):
        """Detection windows are back-to-back and non-overlapping."""
        for prev, cur in zip(run.cycles, run.cycles[1:]):
            assert cur.detect_start >= prev.detect_end - 1e-9
            assert cur.detect_end > cur.detect_start

    def test_detect_frames_strictly_increase(self, run):
        frames = [c.detect_frame for c in run.cycles]
        assert frames == sorted(frames)
        assert len(set(frames)) == len(frames)

    def test_cycle_length_matches_latency(self, run, tiny_clip):
        """Frames per cycle ~ detection latency x fps (Observation 1)."""
        for prev, cur in zip(run.cycles, run.cycles[1:]):
            gap = cur.detect_frame - prev.detect_frame
            expected = prev.detection_latency * tiny_clip.fps
            assert abs(gap - expected) <= 2.0

    def test_tracker_bounded_by_buffer(self, run):
        for cycle in run.cycles:
            assert 0 <= cycle.tracked <= cycle.planned_tracked <= max(
                cycle.buffered_frames, 0
            ) + 1

    def test_results_produced_within_cycle(self, run):
        """Tracker results for a cycle are produced inside its window."""
        cycle_by_detect_frame = {c.detect_frame: c for c in run.cycles}
        detect_frames = sorted(cycle_by_detect_frame)
        for result in run.results:
            if result.source != SOURCE_TRACKER:
                continue
            later = [d for d in detect_frames if d > result.frame_index]
            assert later, "tracked frame after the last detection?"
            cycle = cycle_by_detect_frame[later[0]]
            assert cycle.detect_start <= result.produced_at <= cycle.detect_end + 1e-9

    def test_gpu_activity_equals_detection_time(self, run):
        total_gpu = sum(run.activity.gpu_busy.values())
        total_detect = sum(c.detection_latency for c in run.cycles)
        assert total_gpu == pytest.approx(total_detect)

    def test_duration_covers_clip(self, run, tiny_clip):
        assert run.activity.duration >= tiny_clip.num_frames / tiny_clip.fps - 1e-9


class TestDeterminism:
    def test_identical_runs(self, tiny_clip):
        a = MPDTPipeline(FixedSettingPolicy(512)).run(tiny_clip)
        b = MPDTPipeline(FixedSettingPolicy(512)).run(tiny_clip)
        assert [r.detections for r in a.results] == [r.detections for r in b.results]
        assert [c.detect_frame for c in a.cycles] == [c.detect_frame for c in b.cycles]

    def test_seed_changes_runs(self, tiny_clip):
        a = MPDTPipeline(FixedSettingPolicy(512), PipelineConfig(detector_seed=1)).run(
            tiny_clip
        )
        b = MPDTPipeline(FixedSettingPolicy(512), PipelineConfig(detector_seed=2)).run(
            tiny_clip
        )
        assert [r.detections for r in a.results] != [r.detections for r in b.results]


class _AlternatingFamilyPolicy:
    """Flips between the full and tiny model family on every decision, so
    every loop iteration of the pipeline decides a reload — including the
    final decision taken after the last frame, which must NOT be counted."""

    def initial(self) -> str:
        return "yolov3-512"

    def next_setting(self, velocity, current: str) -> str:
        return "yolov3-tiny-320" if _model_family(current) == "full" else "yolov3-512"


class TestReloadTelemetryReconciliation:
    @pytest.fixture(scope="class")
    def reload_run(self, tiny_clip):
        obs = Telemetry(InMemorySink())
        run = MPDTPipeline(_AlternatingFamilyPolicy(), obs=obs).run(tiny_clip)
        obs.flush()
        return run, obs

    def test_reloads_match_cycles_that_ran(self, reload_run):
        """Every cycle after the bootstrap crossed the family boundary, so
        the reload count must be exactly cycles-1 — the seed revision also
        recorded the reload decided *after* the final frame (one extra)."""
        run, obs = reload_run
        crossings = sum(
            _model_family(a.profile_name) != _model_family(b.profile_name)
            for a, b in zip(run.cycles, run.cycles[1:])
        )
        assert crossings == len(run.cycles) - 1  # policy really alternated
        assert obs.metrics.find("mpdt.model_reloads").value == crossings

    def test_reload_spans_match_counter(self, reload_run):
        run, obs = reload_run
        spans = [s for s in obs.sink.spans if s.name == "mpdt.model_reload"]
        assert len(spans) == obs.metrics.find("mpdt.model_reloads").value
        # Each recorded reload belongs to a cycle that actually detected:
        # its window ends at/before that cycle's detection starts.
        detect_starts = sorted(c.detect_start for c in run.cycles)
        for span in spans:
            assert any(span.end <= start + 1e-9 for start in detect_starts)

    def test_switches_not_counted_past_clip_end(self, reload_run):
        run, obs = reload_run
        assert obs.metrics.find("mpdt.switches").value == len(run.cycles) - 1

    def test_fixed_policy_records_no_reloads(self, tiny_clip):
        obs = Telemetry(InMemorySink())
        MPDTPipeline(FixedSettingPolicy(512), obs=obs).run(tiny_clip)
        obs.flush()
        assert obs.metrics.find("mpdt.model_reloads") is None
        assert obs.metrics.find("mpdt.switches") is None


class TestSettingsDifferences:
    def test_smaller_setting_more_cycles(self, tiny_clip):
        small = MPDTPipeline(FixedSettingPolicy(320)).run(tiny_clip)
        large = MPDTPipeline(FixedSettingPolicy(608)).run(tiny_clip)
        assert len(small.cycles) > len(large.cycles)

    def test_velocity_measured_in_most_cycles(self, run):
        measured = [c for c in run.cycles[1:] if c.velocity is not None]
        assert len(measured) >= len(run.cycles[1:]) // 2

    def test_velocity_samples_collected_on_request(self, tiny_clip):
        run = MPDTPipeline(FixedSettingPolicy(512)).run(
            tiny_clip, collect_velocity_samples=True
        )
        assert run.velocity_samples
        for frame_index, velocity in run.velocity_samples:
            assert 0 <= frame_index < tiny_clip.num_frames
            assert velocity >= 0.0
