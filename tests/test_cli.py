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
        assert servebench.output == "BENCH_macro.json"
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
        import json

        from repro.perf import validate_macro_doc
        from repro.serve.bench import SERVE_BENCH_NAME

        path = tmp_path / "BENCH_macro.json"
        assert main(
            ["servebench", "--quick", "--output", str(path),
             "--min-sustained", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert SERVE_BENCH_NAME in out
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert validate_macro_doc(doc) == [SERVE_BENCH_NAME]
        # Rerunning merges in place: still exactly one serve bench.
        assert main(["servebench", "--quick", "--output", str(path)]) == 0
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert validate_macro_doc(doc) == [SERVE_BENCH_NAME]
