"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for argv in (
            ["scenarios"],
            ["show", "boat"],
            ["run", "adavp"],
            ["run", "adavp", "--obs", "--trace", "t.jsonl"],
            ["obs", "mpdt-512"],
            ["compare"],
            ["compare", "--jobs", "2"],
            ["fig", "6"],
            ["fig", "6", "--jobs", "4"],
            ["table", "3"],
            ["table", "2", "--jobs", "2"],
            ["macrobench"],
            ["macrobench", "--quick", "--jobs", "2", "--min-speedup", "1.7"],
            ["serve"],
            ["serve", "--streams", "500", "--seconds", "5", "--seed", "7"],
            ["serve", "--warmup", "2", "--slo", "1.5", "--json", "r.json"],
            ["servebench"],
            ["servebench", "--quick", "--min-sustained", "16"],
            ["profile"],
            ["profile", "mpdt-512", "--frames", "30", "--top", "5"],
            ["profile", "adavp", "--sort", "tottime", "--out", "p.pstats"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.method == "adavp"
        assert args.scenario == "racetrack"
        assert args.frames == 120
        assert args.sort == "cumulative"
        assert args.out is None

    def test_profile_rejects_unknown_sort(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "--sort", "calls"])

    def test_jobs_defaults(self):
        parser = build_parser()
        assert parser.parse_args(["fig", "6"]).jobs == 1
        assert parser.parse_args(["table", "3"]).jobs == 1
        assert parser.parse_args(["compare"]).jobs == 1
        macro = parser.parse_args(["macrobench"])
        assert macro.jobs == 4
        assert macro.repeats == 3
        assert macro.min_speedup is None
        assert macro.output == "BENCH_macro.json"

    def test_serve_defaults(self):
        parser = build_parser()
        serve = parser.parse_args(["serve"])
        assert serve.streams == 64
        assert serve.seconds == 10.0
        assert serve.seed == 7
        assert serve.realtime_frac == 0.25
        assert serve.slo is None
        servebench = parser.parse_args(["servebench"])
        assert servebench.output == "BENCH_serve.json"
        assert servebench.min_sustained is None


class TestCommands:
    def test_scenarios(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "highway_surveillance" in out
        assert "meeting_room" in out

    def test_show(self, capsys):
        assert main(["show", "boat", "--frame", "2", "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "detections" in out
        assert len(out.splitlines()) > 5

    def test_run(self, capsys):
        assert main(["run", "mpdt-512", "--scenario", "boat", "--frames", "90"]) == 0
        out = capsys.readouterr().out
        assert "accuracy:" in out
        assert "mpdt-512" in out

    def test_run_with_obs_summary(self, capsys):
        assert main(
            ["run", "mpdt-512", "--scenario", "boat", "--frames", "90", "--obs"]
        ) == 0
        out = capsys.readouterr().out
        assert "accuracy:" in out
        assert "mpdt.detect" in out
        assert "mpdt.cycle_latency" in out

    def test_run_with_trace_export(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.jsonl"
        assert main(
            ["run", "mpdt-512", "--scenario", "boat", "--frames", "90",
             "--trace", str(path)]
        ) == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = {r["kind"] for r in records}
        assert "span" in kinds and "histogram" in kinds

    def test_obs_command(self, capsys):
        assert main(
            ["obs", "adavp", "--scenario", "boat", "--frames", "90"]
        ) == 0
        out = capsys.readouterr().out
        assert "telemetry for adavp" in out
        assert "mpdt.detect" in out
        assert "counter" in out

    def test_fig_unknown(self, capsys):
        assert main(["fig", "99"]) == 2

    def test_table_unknown(self, capsys):
        assert main(["table", "99"]) == 2

    def test_table2(self, capsys):
        assert main(["table", "2"]) == 0
        assert "Table II" in capsys.readouterr().out

    def test_run_obs_reports_render_cache_counters(self, capsys):
        assert main(
            ["run", "mpdt-512", "--scenario", "boat", "--frames", "90", "--obs"]
        ) == 0
        out = capsys.readouterr().out
        assert "store.frame.miss" in out
        assert "store.pyramid.miss" in out

    def test_profile_smoke(self, capsys):
        assert main(
            ["profile", "adavp", "--scenario", "boat", "--frames", "20",
             "--top", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "profile: method=adavp" in out
        assert "cumulative" in out  # pstats sort header
        assert "run_method_on_clip" in out  # the profiled entry point

    def test_profile_writes_pstats(self, capsys, tmp_path):
        import pstats

        path = tmp_path / "run.pstats"
        assert main(
            ["profile", "mpdt-512", "--scenario", "boat", "--frames", "20",
             "--top", "3", "--out", str(path)]
        ) == 0
        stats = pstats.Stats(str(path))  # loads or raises
        assert stats.total_calls > 0

    def test_obs_reports_the_pixel_work_account(self, capsys):
        # The LK and seeding counters print beside the store's: one account.
        assert main(
            ["obs", "adavp", "--scenario", "racetrack", "--frames", "60"]
        ) == 0
        counters = {}
        for line in capsys.readouterr().out.splitlines():
            name, _, value = line.strip().partition(" ")
            if value.strip().startswith("counter="):
                counters[name] = int(value.strip().removeprefix("counter="))
        for kind in ("frame", "pyramid"):
            assert counters[f"store.{kind}.miss"] > 0
            assert f"store.{kind}.evictions" in counters
        assert 0 < counters["lk.solves"] < counters["lk.points"]
        assert counters["seed.boxes"] > 0

    def test_profile_rejects_bad_frames(self):
        with pytest.raises(ValueError, match="frames"):
            main(["profile", "--frames", "0"])

    def test_macrobench_quick(self, capsys, tmp_path):
        import json

        from repro.perf import validate_macro_doc

        path = tmp_path / "BENCH_macro.json"
        assert main(
            ["macrobench", "--quick", "--jobs", "2", "--repeats", "1",
             "--output", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "fig6_reduced_sweep" in out
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert validate_macro_doc(doc) == ["fig6_reduced_sweep"]

    def test_macrobench_gate_reads_fresh_host(self, monkeypatch, tmp_path):
        """An old document at --output must not lend its host block to
        the new run: a 0.5x sweep on a 2-CPU host fails the 2.0x gate even
        where the file on disk says the host had one CPU."""
        import json
        import os
        import types

        import repro.perf.macro as macro

        clock = [0.0]

        class FakeEngine:
            def __init__(self, jobs):
                self.jobs = jobs

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def run(self, methods, suite):
                clock[0] += 1.0 if self.jobs == 1 else 2.0
                return types.SimpleNamespace(
                    failures=[], results={}, counts={"lk.points": 1}
                )

        monkeypatch.setattr(macro, "SweepEngine", FakeEngine)
        fake_time = types.SimpleNamespace(
            perf_counter=lambda: clock[0], time=lambda: 0.0
        )
        monkeypatch.setattr(macro, "time", fake_time)
        # No worker runs, so none is reaped: report a peak for each arm.
        monkeypatch.setattr(macro, "_peak_rss_mb", lambda who: 64.0)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        path = tmp_path / "BENCH_macro.json"
        path.write_text(json.dumps({
            "schema_version": 1, "suite": "repro-macro", "quick": True,
            "created_unix": 0.0, "host": {"cpu_count": 1}, "benches": [],
        }))
        with pytest.raises(ValueError, match="below required"):
            main(["macrobench", "--quick", "--jobs", "2", "--repeats", "1",
                  "--min-speedup", "2.0", "--output", str(path)])

    def test_serve_smoke_replays_identically(self, capsys, tmp_path):
        import json

        path = tmp_path / "report.json"
        argv = ["serve", "--streams", "24", "--seconds", "3", "--seed", "7",
                "--json", str(path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv[:-2]) == 0
        second = capsys.readouterr().out
        digest = [l for l in first.splitlines() if l.startswith("digest:")]
        assert digest and digest == [
            l for l in second.splitlines() if l.startswith("digest:")
        ]
        report = json.loads(path.read_text(encoding="utf-8"))
        assert report["num_streams"] == 24
        assert report["submitted"] == report["served"] + report["dropped"]

    def test_servebench_writes_and_merges(self, capsys, tmp_path):
        """Each run writes the whole document: a rerun overwrites it."""
        import json

        from repro.serve.bench import SERVE_BENCH_NAME, validate_serve_doc

        path = tmp_path / "BENCH_serve.json"
        assert main(
            ["servebench", "--quick", "--output", str(path),
             "--min-sustained", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert SERVE_BENCH_NAME in out
        first = json.loads(path.read_text(encoding="utf-8"))
        assert validate_serve_doc(first) == [SERVE_BENCH_NAME]
        assert first["clock"] == "virtual"
        path.write_text(json.dumps(dict(first, host={"cpu_count": 1})))
        assert main(["servebench", "--quick", "--output", str(path)]) == 0
        second = json.loads(path.read_text(encoding="utf-8"))
        assert validate_serve_doc(second) == [SERVE_BENCH_NAME]
        # The host block is the rerun's own, not the one left on disk.
        assert second["host"] == first["host"]
