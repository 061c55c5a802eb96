"""Run a workload rep by rep in fresh processes and reduce reps to metrics.

Each rep is a new ``python -m bench.child`` process in its own session,
so its caches start cold and any worker it leaves behind can be found
and stopped.  Reps repeat until the next one would overrun ``seconds``
(but at least ``min_reps``).  Every time a rep reports is scaled to
reference host speed by the calibration kernel samples it took between
its units of work (:mod:`bench.calibrate`).  End-to-end metrics are medians
over the untraced reps; in a traced run, traced and untraced reps
alternate, the per-layer metrics are medians over the traced ones, and
the ratio of the two kinds' work times is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench import calibrate
from bench.trace import PROBES
from bench.trace import ROOT as ROOT_SPAN

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# Lock files the program's shared stores create go here, inside the
# checkout, instead of the system temp directory.
TMP = ROOT / ".bench_tmp"

MIN_REPS = 3
MIN_TRACED_REPS = 2  # one untraced, one traced
MAX_REPS = 16
MAX_FAILED_REPS = 2
REP_TIMEOUT_S = 60.0  # a rep takes under 10 s; two timeouts still end a run in time

# Model outputs: deterministic in the seed, so compared exactly, not by a
# bound.  Every rep reports them; the traced run lists them per layer too.
OUTPUTS = frozenset(
    {
        "adavp_accuracy",
        "failed_frac",
        "virtual.sustained_streams",
        "virtual.served_per_s",
        "virtual.dropped_frac",
    }
)

_SPANS = {probe.span for probe in PROBES} | {ROOT_SPAN}
_SPAN_SUFFIXES = ((".calls", 0), ("_calls", 0), (".self_s", 2), ("_s", 2))


def load_declaration() -> dict:
    """``BENCHMARK.json``: the workload and metric names this bench emits."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def _stop_group(pgid: int) -> None:
    """Kill whatever is left of a rep's process group and wait for it to go."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def spawn_rep(workload: str, seed: int, index: int, traced: bool, tiny: bool) -> dict:
    """Run one rep in a fresh process; its record, or ``{"error": ...}``."""
    TMP.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(TMP)
    flags = (["--traced"] if traced else []) + (["--tiny"] if tiny else [])
    spawn_ts = time.monotonic()
    cmd = [sys.executable, "-m", "bench.child", workload, str(seed), str(index), repr(spawn_ts)]
    proc = subprocess.Popen(
        cmd + flags,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _stop_group(proc.pid)
        proc.communicate()
        return {"error": f"rep timed out after {REP_TIMEOUT_S:.0f}s", "traced": traced}
    finally:
        _stop_group(proc.pid)
    elapsed = time.monotonic() - spawn_ts
    if proc.returncode != 0:
        tail = "\n".join(err.strip().splitlines()[-5:])
        return {"error": f"rep exited {proc.returncode}: {tail}", "traced": traced}
    record = json.loads(out.strip().splitlines()[-1])
    record["traced"] = traced
    record["elapsed_s"] = elapsed
    return record


def summarize(values: list[float]) -> dict:
    """Median and quartiles (``statistics.quantiles``, n=4) of ``values``."""
    if len(values) == 1:
        return {"value": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def e2e_value(rep: dict, name: str) -> float:
    """One rep's value of an end-to-end metric."""
    if name == "setup_s":
        return rep["setup_s"]
    if name == "frames_per_s":
        return rep["frames"] / rep["work_s"]
    if name == "cpu_ms_per_frame":
        return 1000.0 * rep["cpu_s"] / rep["frames"]
    if name == "peak_rss_mb":
        return rep["rss_mib"]
    raise KeyError(f"no end-to-end metric named {name!r}")


def scale_times(rep: dict, seconds: set[str]) -> None:
    """Express a rep's seconds at reference host speed (see :mod:`bench.calibrate`).

    ``seconds`` names the counters measured in seconds.  The raw times
    stay in ``rep["raw"]``.
    """
    factor = calibrate.REFERENCE_S / rep["host_s"]
    rep["raw"] = {key: rep[key] for key in ("setup_s", "wall_s", "work_s", "cpu_s")}
    for key in rep["raw"]:
        rep[key] *= factor
    for name in rep["counters"].keys() & seconds:
        rep["counters"][name] *= factor
    for entry in rep["spans"].values():
        entry[1] *= factor
        entry[2] *= factor


def layer_value(rep: dict, name: str) -> float:
    """One traced rep's value of a per-layer metric.

    Counters the rep computed win; otherwise ``<span>.calls`` /
    ``<span>_calls`` count a span's calls and ``<span>.self_s`` /
    ``<span>_s`` are its self time.  A metric of a layer the workload
    does not use reads 0.
    """
    if name in rep["counters"]:
        return rep["counters"][name]
    for suffix, column in _SPAN_SUFFIXES:
        span = name[: -len(suffix)]
        if name.endswith(suffix) and span in _SPANS:
            return rep["spans"].get(span, [0, 0.0, 0.0])[column]
    return 0.0


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    traced: bool,
    tiny: bool = False,
    min_reps: int | None = None,
    log=None,
) -> dict:
    """Run one workload for about ``seconds`` and reduce its reps."""
    declaration = load_declaration()
    seconds_counters = {m["name"] for m in declaration["per_layer"] if m["unit"] == "s"}
    if min_reps is None:
        min_reps = MIN_TRACED_REPS if traced else MIN_REPS
    reps: list[dict] = []
    start = time.monotonic()
    try:
        while True:
            rep_traced = traced and len(reps) % 2 == 1
            rep = spawn_rep(workload, seed, len(reps), rep_traced, tiny)
            if "error" not in rep:
                scale_times(rep, seconds_counters)
            reps.append(rep)
            if log is not None:
                log(_rep_line(workload, len(reps), rep))
            failed = sum(1 for r in reps if "error" in r)
            longest = max(r.get("elapsed_s", 0.0) for r in reps)
            out_of_time = time.monotonic() - start + longest > seconds
            if failed >= MAX_FAILED_REPS or len(reps) >= MAX_REPS:
                break
            if out_of_time and (len(reps) >= min_reps or failed):
                break
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    return reduce_reps(workload, reps, traced, declaration)


def _rep_line(workload: str, number: int, rep: dict) -> str:
    kind = "traced" if rep.get("traced") else "untraced"
    if "error" in rep:
        return f"# {workload} rep {number} ({kind}) FAILED: {rep['error']}"
    return (
        f"# {workload} rep {number} ({kind}): setup {rep['setup_s']:.3f}s, "
        f"work {rep['work_s']:.3f}s, {rep['frames']} frames, wall {rep['wall_s']:.3f}s"
    )


def reduce_reps(workload: str, reps: list[dict], traced: bool, declaration: dict) -> dict:
    """Metrics, checks and counts for one workload's reps."""
    ok = [r for r in reps if "error" not in r]
    plain = [r for r in ok if not r["traced"]]
    tracing = [r for r in ok if r["traced"]]
    problems = [r["error"] for r in reps if "error" in r]
    for rep in ok:
        problems.extend(rep["checks"])
    digests = sorted({r["digest"] for r in ok})
    if len(digests) > 1:
        problems.append(f"outputs differ across reps: {len(digests)} distinct digests")
    for name in sorted(OUTPUTS):
        values = {r["counters"][name] for r in ok if name in r["counters"]}
        if len(values) > 1:
            problems.append(f"{name} differs across reps: {sorted(values)}")
    attempted = sum(r["attempted"] for r in ok) + (len(reps) - len(ok))
    failed = sum(r["failed"] for r in ok) + (len(reps) - len(ok))
    if failed:
        problems.append(f"{failed} of {attempted} units failed")

    result = {
        "workload": workload,
        "traced": traced,
        "reps": reps,
        "attempted": attempted,
        "failed": failed,
        "digest": digests[0] if len(digests) == 1 else None,
        "problems": problems,
        "correct": not problems and bool(plain) and (bool(tracing) or not traced),
        "absent": sorted({name for r in ok for name in r["absent"]}),
        "e2e": {},
        "layers": {},
    }
    if plain:
        for metric in declaration["end_to_end"]:
            values = [e2e_value(r, metric["name"]) for r in plain]
            result["e2e"][metric["name"]] = {**summarize(values), "unit": metric["unit"]}
        result["outputs"] = {
            name: plain[0]["counters"][name]
            for name in sorted(OUTPUTS)
            if name in plain[0]["counters"]
        }
    if tracing and plain:
        overhead = (
            statistics.median(r["work_s"] for r in tracing)
            / statistics.median(r["work_s"] for r in plain)
            - 1.0
        )
        for metric in declaration["per_layer"]:
            name = metric["name"]
            if name == "trace.overhead_frac":
                values = [overhead]
            else:
                values = [layer_value(r, name) for r in tracing]
            result["layers"][name] = {**summarize(values), "unit": metric["unit"]}
    return result
