"""Serving-layer macrobench: streams sustained at the realtime p99 SLO.

Where the sweep macrobench asks "how much faster is the pool", this one
asks the serving question: **how many concurrent streams can one shared
detector carry while realtime admission latency stays inside its SLO?**
It climbs a ladder of fleet sizes, measures the post-warmup realtime
admission-wait p99 at each rung, and reports ``sustained_streams`` — the
largest rung whose p99 meets ``slo_realtime_s``.

Because the scheduler runs in virtual time on the deterministic event
queue, every rung's report digest — and therefore ``sustained_streams``
itself — is a pure function of the seeds, identical on any host.  The
identity gate reruns the sustained rung and asserts digest equality
(``results_identical``), the serve analogue of the sweep macrobench's
bit-identical two-arm check.  Only ``wall_s`` varies across machines.

``repro servebench`` writes the ladder to its own ``BENCH_serve.json``
(``clock: "virtual"``) in the shared envelope of
:func:`repro.perf.harness.build_document`; :func:`validate_serve_doc`
checks it and applies the CI ``--min-sustained`` gate.
"""

from __future__ import annotations

import time

from repro.perf.harness import build_document, require_keys, validate_envelope
from repro.serve.report import FleetReport
from repro.serve.scheduler import ServeConfig, fleet_configs, serve_fleet

SERVE_SUITE_NAME = "repro-serve"
SERVE_BENCH_NAME = "serve_fleet_ladder"

# Rung ladders bracket the knee: p99 holds near one batch service while
# the realtime subfleet fits the detector, then queueing blows it up.
_QUICK_RUNGS = (8, 16, 32, 64)
_FULL_RUNGS = (16, 32, 64, 128, 256, 512)


def _ladder_config(quick: bool) -> tuple[tuple[int, ...], ServeConfig]:
    if quick:
        return _QUICK_RUNGS, ServeConfig(duration_s=6.0, warmup_s=2.0)
    return _FULL_RUNGS, ServeConfig(duration_s=12.0, warmup_s=4.0)


def _run_rung(streams: int, seed: int, config: ServeConfig) -> tuple[FleetReport, float]:
    start = time.perf_counter()
    report = serve_fleet(fleet_configs(streams, seed=seed), config)
    return report, time.perf_counter() - start


def _rung_entry(streams: int, report: FleetReport, wall_s: float) -> dict:
    realtime = report.classes["realtime"]
    best_effort = report.classes["best_effort"]
    return {
        "streams": streams,
        "realtime_wait_p99_s": realtime.wait_p99_s,
        "realtime_slo_attainment": realtime.slo_attainment,
        "best_effort_wait_p99_s": best_effort.wait_p99_s,
        "served_per_sim_second": report.served_per_sim_second,
        "submitted": report.submitted,
        "served": report.served,
        "dropped": report.dropped,
        "peak_depth": report.peak_depth,
        "degrade_events": report.degrade_events,
        "recover_events": report.recover_events,
        "wall_s": wall_s,
        "digest": report.digest(),
    }


def _rung_sustains(entry: dict, slo_s: float) -> bool:
    """A rung sustains the SLO iff it measured realtime waits and met p99."""
    p99 = entry["realtime_wait_p99_s"]
    return p99 is not None and p99 <= slo_s


def run_serve_benchmark(
    quick: bool = False,
    seed: int = 7,
    config: ServeConfig | None = None,
    rungs: tuple[int, ...] | None = None,
) -> dict:
    """Climb the fleet ladder and return the ``BENCH_serve.json`` document.

    Every rung runs to completion (no early exit past the knee — the
    over-the-knee p99s are the interesting trend data), then the
    sustained rung is rerun for the digest-identity gate.
    """
    default_rungs, default_config = _ladder_config(quick)
    if rungs is None:
        rungs = default_rungs
    if config is None:
        config = default_config
    if not rungs or sorted(set(rungs)) != list(rungs):
        raise ValueError("rungs must be strictly increasing and non-empty")

    entries = []
    for streams in rungs:
        report, wall_s = _run_rung(streams, seed, config)
        entries.append(_rung_entry(streams, report, wall_s))

    sustained = 0
    sustained_entry = None
    for entry in entries:
        if _rung_sustains(entry, config.slo_realtime_s):
            sustained = entry["streams"]
            sustained_entry = entry
    # Identity gate: rerun one rung (the sustained one, else the first)
    # and require a bit-identical report digest.
    identity_entry = sustained_entry or entries[0]
    rerun_report, _ = _run_rung(identity_entry["streams"], seed, config)
    results_identical = rerun_report.digest() == identity_entry["digest"]

    bench = {
        "name": SERVE_BENCH_NAME,
        "workload": {
            "seed": seed,
            "duration_s": config.duration_s,
            "warmup_s": config.warmup_s,
            "max_batch": config.max_batch,
            "queue_depth": config.queue_depth,
            "realtime_fraction": 0.25,
            "rungs": list(rungs),
        },
        "slo_realtime_s": config.slo_realtime_s,
        "slo_best_effort_s": config.slo_best_effort_s,
        "rungs": entries,
        "sustained_streams": sustained,
        "results_identical": results_identical,
        "failures": 0 if results_identical else 1,
    }
    return build_document([bench], quick, suite=SERVE_SUITE_NAME, clock="virtual")


_REQUIRED_BENCH_KEYS = (
    "name",
    "workload",
    "slo_realtime_s",
    "rungs",
    "sustained_streams",
    "results_identical",
    "failures",
)
_REQUIRED_RUNG_KEYS = (
    "streams",
    "realtime_wait_p99_s",
    "served_per_sim_second",
    "wall_s",
    "digest",
)


def _validate_serve_bench(bench: dict, min_sustained_streams: int | None) -> None:
    require_keys(bench, _REQUIRED_BENCH_KEYS)
    if bench["results_identical"] is not True:
        raise ValueError(
            f"bench {bench['name']!r} was not asserted result-identical"
        )
    if bench["failures"] != 0:
        raise ValueError(f"bench {bench['name']!r} recorded failures")
    slo = bench["slo_realtime_s"]
    if not isinstance(slo, (int, float)) or slo <= 0:
        raise ValueError(f"bench {bench['name']!r} has non-positive slo_realtime_s")
    rungs = bench["rungs"]
    if not isinstance(rungs, list) or not rungs:
        raise ValueError(f"bench {bench['name']!r} has no rungs")
    last_streams = 0
    for rung in rungs:
        for key in _REQUIRED_RUNG_KEYS:
            if key not in rung:
                raise ValueError(
                    f"bench {bench['name']!r} rung missing key {key!r}"
                )
        if rung["streams"] <= last_streams:
            raise ValueError(
                f"bench {bench['name']!r} rungs are not strictly increasing"
            )
        last_streams = rung["streams"]
        p99 = rung["realtime_wait_p99_s"]
        if p99 is not None and (not isinstance(p99, (int, float)) or p99 < 0):
            raise ValueError(
                f"bench {bench['name']!r} rung {rung['streams']} has a "
                f"negative realtime_wait_p99_s"
            )
    sustained = bench["sustained_streams"]
    if not isinstance(sustained, int) or sustained < 0:
        raise ValueError(
            f"bench {bench['name']!r} sustained_streams must be a non-negative int"
        )
    if sustained and sustained not in {rung["streams"] for rung in rungs}:
        raise ValueError(
            f"bench {bench['name']!r} sustained_streams {sustained} "
            f"is not one of its rungs"
        )
    # The ladder runs in virtual time, so unlike the sweep speedup gate
    # this one never depends on host parallelism — no cpu_count waiver.
    if min_sustained_streams is not None and sustained < min_sustained_streams:
        raise ValueError(
            f"bench {bench['name']!r} sustained {sustained} streams at the "
            f"realtime p99 SLO, below required {min_sustained_streams}"
        )


def validate_serve_doc(
    doc: dict, min_sustained_streams: int | None = None
) -> list[str]:
    """Schema check for ``BENCH_serve.json``; returns the bench names.

    ``min_sustained_streams`` is the CI gate: the serve-smoke job asserts
    the scheduler still sustains a floor fleet size at the realtime p99
    SLO.
    """
    names = validate_envelope(doc, SERVE_SUITE_NAME, "virtual")
    for bench in doc["benches"]:
        _validate_serve_bench(bench, min_sustained_streams)
    return names


def format_serve_table(doc: dict) -> str:
    """Human-readable summary of a serve-bench document for the CLI."""
    lines = []
    for bench in doc["benches"]:
        workload = bench["workload"]
        lines.append(
            f"{bench['name']:20s} sustains {bench['sustained_streams']} streams "
            f"at realtime p99 <= {bench['slo_realtime_s']:g}s "
            f"over {workload['duration_s']:g} virtual s"
        )
        for rung in bench["rungs"]:
            p99 = rung["realtime_wait_p99_s"]
            p99_text = "   n/a" if p99 is None else f"{p99 * 1e3:5.0f}ms"
            sustained = (
                " <- sustained"
                if rung["streams"] == bench["sustained_streams"]
                else ""
            )
            lines.append(
                f"  {rung['streams']:>4d} streams: realtime p99 {p99_text}, "
                f"{rung['served_per_sim_second']:5.1f} served/s, "
                f"wall {rung['wall_s']:.2f}s{sustained}"
            )
    return "\n".join(lines)
