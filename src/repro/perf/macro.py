"""Suite-level macro-benchmark → ``BENCH_macro.json``.

Where ``repro.perf.benches`` times vision kernels in isolation, this
module times the whole sweep engine on a reduced fig6 workload —
sequential (``jobs=1``) versus a process pool (``jobs=N``) — using the
same methodology as the micro harness: fixed seeded workload, warm-up,
min-of-k, and a correctness gate before any timing.  The identity
assertion is the macro equivalent of the micro harness's
reference-output check: both arms must produce bit-identical
``MethodResult``s or the document is not written — a benchmark of a
wrong answer is worthless.

The observed speedup is whatever the host gives: on a single-core
container the pool cannot beat the sequential arm (the document records
``host.cpu_count`` so trend tooling can tell the difference), while the
multi-core CI runners are where the speedup gate is enforced — see the
``sweep-smoke`` job and :func:`validate_macro_doc`'s ``min_speedup``.
"""

from __future__ import annotations

import os
import platform
import sys
import time

from repro.experiments.fig6_overall import FIG6_METHODS
from repro.experiments.workloads import quick_suite
from repro.parallel import SweepEngine, SweepResult
from repro.video.framestore import BYTES_PER_MB, STORE_BYTES

MACRO_SCHEMA_VERSION = 1
MACRO_SUITE_NAME = "repro-macro"
MACRO_BENCH_NAME = "fig6_reduced_sweep"

# Benches carry a ``kind`` key that selects their validation rules;
# entries written before the key existed are sweep-shaped.
_DEFAULT_BENCH_KIND = "sweep"


def new_macro_document(quick: bool, benches: list[dict] | None = None) -> dict:
    """An empty ``BENCH_macro.json`` skeleton with host metadata."""
    return {
        "schema_version": MACRO_SCHEMA_VERSION,
        "suite": MACRO_SUITE_NAME,
        "quick": quick,
        "created_unix": time.time(),
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "benches": benches or [],
    }

_QUICK_METHODS = ("adavp", "mve", "mpdt-320", "mpdt-608", "no-tracking-320")


def _workload(quick: bool):
    """(methods, suite) for the reduced fig6 sweep.

    Reduced = the real fig6 method grid over the quick suite's three
    scenario archetypes at shortened clip length — enough shards to keep
    a small pool busy, small enough for a CI smoke job.
    """
    if quick:
        return _QUICK_METHODS, quick_suite(frames=60)
    return FIG6_METHODS, quick_suite(frames=120)


def _assert_identical(sequential: SweepResult, parallel: SweepResult) -> None:
    """Bit-identical or bust, checked before any timing is recorded."""
    if sequential.failures or parallel.failures:
        raise AssertionError(
            "macro-bench sweep had failures:\n"
            f"{sequential.summary()}\n{parallel.summary()}"
        )
    if set(sequential.results) != set(parallel.results):
        raise AssertionError(
            f"method sets differ: {sorted(sequential.results)} "
            f"vs {sorted(parallel.results)}"
        )
    for name, seq in sequential.results.items():
        par = parallel.results[name]
        checks = (
            ("per_video_accuracy", seq.per_video_accuracy, par.per_video_accuracy),
            ("per_video_mean_f1", seq.per_video_mean_f1, par.per_video_mean_f1),
            ("activity.duration", seq.activity.duration, par.activity.duration),
            ("activity.gpu_busy", dict(seq.activity.gpu_busy), dict(par.activity.gpu_busy)),
            ("activity.cpu_busy", dict(seq.activity.cpu_busy), dict(par.activity.cpu_busy)),
            ("energy", seq.energy().as_dict(), par.energy().as_dict()),
        )
        for label, a, b in checks:
            if a != b:
                raise AssertionError(
                    f"sequential vs parallel mismatch for {name} {label}: {a!r} != {b!r}"
                )


def run_macro_benchmark(jobs: int = 4, repeats: int = 3, quick: bool = False) -> dict:
    """Time the reduced fig6 sweep sequentially and at ``jobs`` workers.

    Returns the ``BENCH_macro.json`` document.  Timings interleave the
    two arms repeat by repeat so drift in background load hits both
    equally; the identity check doubles as the warm-up for each arm
    (worker processes imported, frame stores populated).  The ``store``
    block records each arm's frame-store hits and misses per kind from
    that warm-up pass: misses are the frames rendered and pyramids
    built.
    """
    if jobs < 2:
        raise ValueError("macro-bench needs jobs >= 2 (it compares against jobs=1)")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    methods, suite = _workload(quick)

    with SweepEngine(jobs=1) as seq_engine, SweepEngine(jobs=jobs) as par_engine:
        sequential = seq_engine.run(methods, suite)
        parallel = par_engine.run(methods, suite)
        _assert_identical(sequential, parallel)

        seq_times, par_times = [], []
        for _ in range(repeats):
            start = time.perf_counter()
            seq_engine.run(methods, suite)
            seq_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            par_engine.run(methods, suite)
            par_times.append(time.perf_counter() - start)

    sequential_best = min(seq_times)
    parallel_best = min(par_times)
    bench = {
        "name": MACRO_BENCH_NAME,
        "kind": "sweep",
        "workload": {
            "methods": list(methods),
            "clips": [clip.name for clip in suite],
            "frames_per_clip": [clip.num_frames for clip in suite],
            "shards": len(methods) * len(suite),
        },
        "jobs": jobs,
        # The parallelism the host could actually deliver: a jobs=4 pool on
        # a single-vCPU container time-slices, it does not parallelise.
        # Trend tooling must compare speedups at equal effective_parallelism,
        # not equal jobs.
        "effective_parallelism": min(jobs, os.cpu_count() or 1),
        "repeats": repeats,
        "sequential_best_s": sequential_best,
        "sequential_mean_s": sum(seq_times) / len(seq_times),
        "parallel_best_s": parallel_best,
        "parallel_mean_s": sum(par_times) / len(par_times),
        "speedup": sequential_best / parallel_best,
        "results_identical": True,
        "failures": 0,
        "store": {
            "budget_mb": STORE_BYTES // BYTES_PER_MB,
            "sequential": sequential.store,
            "parallel": parallel.store,
        },
    }
    return new_macro_document(quick=quick, benches=[bench])


def merge_sweep_bench(doc: dict | None, bench: dict, quick: bool) -> dict:
    """Merge a sweep bench into an existing macro document (or start one).

    ``BENCH_macro.json`` is shared with the serve ladder; regenerating
    the sweep bench must replace only the same-name entry and keep the
    rest — mirrors :func:`repro.serve.bench.merge_serve_bench`.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("benches"), list):
        doc = new_macro_document(quick=quick)
    doc["benches"] = [
        entry for entry in doc["benches"] if entry.get("name") != bench["name"]
    ] + [bench]
    doc["quick"] = quick
    doc["created_unix"] = time.time()
    return doc


_REQUIRED_TOP_KEYS = (
    "schema_version",
    "suite",
    "quick",
    "created_unix",
    "host",
    "benches",
)
_REQUIRED_SWEEP_BENCH_KEYS = (
    "name",
    "workload",
    "jobs",
    "effective_parallelism",
    "repeats",
    "sequential_best_s",
    "parallel_best_s",
    "speedup",
    "results_identical",
    "failures",
    "store",
)
_REQUIRED_SERVE_BENCH_KEYS = (
    "name",
    "kind",
    "workload",
    "slo_realtime_s",
    "rungs",
    "sustained_streams",
    "results_identical",
    "failures",
)
_REQUIRED_SERVE_RUNG_KEYS = (
    "streams",
    "realtime_wait_p99_s",
    "served_per_sim_second",
    "wall_s",
    "digest",
)


def _validate_sweep_bench(bench: dict, doc: dict, min_speedup: float | None) -> None:
    for key in _REQUIRED_SWEEP_BENCH_KEYS:
        if key not in bench:
            raise ValueError(
                f"bench {bench.get('name', '<unnamed>')!r} missing key {key!r}"
            )
    for key in ("sequential_best_s", "parallel_best_s", "speedup"):
        value = bench[key]
        if not isinstance(value, (int, float)) or value <= 0:
            raise ValueError(f"bench {bench['name']!r} has non-positive {key}")
    if bench["jobs"] < 2:
        raise ValueError(f"bench {bench['name']!r} has jobs < 2")
    if min_speedup is not None:
        cpu_count = doc["host"]["cpu_count"]
        if isinstance(cpu_count, int) and cpu_count < 2:
            # A process pool cannot beat the sequential arm without a
            # second core; gating on speedup here would only certify
            # scheduler noise.  Log instead of silently passing so CI
            # transcripts show the gate was waived, not met.
            print(
                f"macro-bench: skipping --min-speedup gate for "
                f"{bench['name']!r} (host cpu_count={cpu_count} < 2; "
                f"observed {bench['speedup']:.2f}x)",
                file=sys.stderr,
            )
        elif bench["speedup"] < min_speedup:
            raise ValueError(
                f"bench {bench['name']!r} speedup {bench['speedup']:.2f}x "
                f"below required {min_speedup:.2f}x"
            )


def _validate_serve_bench(
    bench: dict, min_sustained_streams: int | None
) -> None:
    for key in _REQUIRED_SERVE_BENCH_KEYS:
        if key not in bench:
            raise ValueError(
                f"bench {bench.get('name', '<unnamed>')!r} missing key {key!r}"
            )
    slo = bench["slo_realtime_s"]
    if not isinstance(slo, (int, float)) or slo <= 0:
        raise ValueError(f"bench {bench['name']!r} has non-positive slo_realtime_s")
    rungs = bench["rungs"]
    if not isinstance(rungs, list) or not rungs:
        raise ValueError(f"bench {bench['name']!r} has no rungs")
    last_streams = 0
    for rung in rungs:
        for key in _REQUIRED_SERVE_RUNG_KEYS:
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


def validate_macro_doc(
    doc: dict,
    min_speedup: float | None = None,
    min_sustained_streams: int | None = None,
) -> list[str]:
    """Schema check for ``BENCH_macro.json``; returns the bench names.

    Validation dispatches on each bench's ``kind`` (``"sweep"`` when
    absent).  ``min_speedup`` is the sweep CI gate: on multi-core runners
    the sweep-smoke job asserts the pool actually pays for itself; it is
    optional because the document is also written on hosts where parallel
    wall-clock wins are impossible (see ``host.cpu_count``).
    ``min_sustained_streams`` is the serve CI gate: the serve-smoke job
    asserts the scheduler still sustains a floor fleet size at the
    realtime p99 SLO (host-independent — the ladder runs in virtual time).
    """
    if not isinstance(doc, dict):
        raise ValueError("macro-bench document must be a JSON object")
    for key in _REQUIRED_TOP_KEYS:
        if key not in doc:
            raise ValueError(f"macro-bench document missing key {key!r}")
    if doc["schema_version"] != MACRO_SCHEMA_VERSION:
        raise ValueError(
            f"schema_version {doc['schema_version']!r} != {MACRO_SCHEMA_VERSION}"
        )
    if doc["suite"] != MACRO_SUITE_NAME:
        raise ValueError(f"suite {doc['suite']!r} != {MACRO_SUITE_NAME!r}")
    if "cpu_count" not in doc["host"]:
        raise ValueError("macro-bench host metadata missing 'cpu_count'")
    if not isinstance(doc["benches"], list) or not doc["benches"]:
        raise ValueError("macro-bench document has no benches")
    names = []
    for bench in doc["benches"]:
        kind = bench.get("kind", _DEFAULT_BENCH_KIND)
        if "results_identical" not in bench or "failures" not in bench:
            raise ValueError(
                f"bench {bench.get('name', '<unnamed>')!r} missing "
                f"results_identical/failures"
            )
        if bench["results_identical"] is not True:
            raise ValueError(
                f"bench {bench['name']!r} was not asserted result-identical"
            )
        if bench["failures"] != 0:
            raise ValueError(f"bench {bench['name']!r} recorded failures")
        if kind == "sweep":
            _validate_sweep_bench(bench, doc, min_speedup)
        elif kind == "serve":
            _validate_serve_bench(bench, min_sustained_streams)
        else:
            raise ValueError(
                f"bench {bench.get('name', '<unnamed>')!r} has unknown "
                f"kind {kind!r}"
            )
        names.append(bench["name"])
    if len(set(names)) != len(names):
        raise ValueError("macro-bench names are not unique")
    return names


def _format_sweep_bench(bench: dict) -> list[str]:
    lines = [
        f"{bench['name']:20s} {bench['workload']['shards']:>6d} "
        f"{bench['jobs']:>5d} {bench['sequential_best_s']:>8.2f}s "
        f"{bench['parallel_best_s']:>8.2f}s {bench['speedup']:>7.2f}x"
    ]
    store = bench["store"]
    for arm in ("sequential", "parallel"):
        counts = "; ".join(
            f"{kind} {c['hits']} hits / {c['misses']} misses"
            for kind, c in store[arm].items()
        )
        lines.append(f"  store ({store['budget_mb']} MiB) {arm}: {counts}")
    return lines


def _format_serve_bench(bench: dict) -> list[str]:
    lines = [
        f"{bench['name']:20s} sustains {bench['sustained_streams']} streams "
        f"at realtime p99 <= {bench['slo_realtime_s']:g}s"
    ]
    for rung in bench["rungs"]:
        p99 = rung["realtime_wait_p99_s"]
        p99_text = "   n/a" if p99 is None else f"{p99 * 1e3:5.0f}ms"
        sustained = (
            " <- sustained" if rung["streams"] == bench["sustained_streams"] else ""
        )
        lines.append(
            f"  {rung['streams']:>4d} streams: realtime p99 {p99_text}, "
            f"{rung['served_per_sim_second']:5.1f} served/s, "
            f"wall {rung['wall_s']:.2f}s{sustained}"
        )
    return lines


def format_macro_table(doc: dict) -> str:
    """Human-readable summary of a macro-bench document for the CLI."""
    lines = [
        f"{'bench':20s} {'shards':>6s} {'jobs':>5s} {'seq':>9s} {'par':>9s} {'speedup':>8s}"
    ]
    for bench in doc["benches"]:
        kind = bench.get("kind", _DEFAULT_BENCH_KIND)
        if kind == "serve":
            lines.extend(_format_serve_bench(bench))
        else:
            lines.extend(_format_sweep_bench(bench))
    lines.append(f"(host cpu_count={doc['host']['cpu_count']})")
    return "\n".join(lines)
