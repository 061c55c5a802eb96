"""Deterministic microbenchmark harness → ``BENCH_micro.json``.

Methodology (documented in DESIGN.md §7):

- every bench times a *fixed seeded workload* (see :mod:`repro.perf.workloads`);
  nothing random happens between repeats;
- each measurement runs the callable ``number`` times and keeps the total;
  the reported ``per_call_s`` is the **best** of ``repeats`` such
  measurements divided by ``number`` — min-of-k is the standard estimator
  for "the cost when the machine isn't preempting us";
- benches that optimise an existing hot path also time the frozen pre-PR
  implementation (:mod:`repro.perf.reference`) on the same workload and
  report ``speedup_vs_reference``, after asserting both produce identical
  output — a benchmark of a wrong answer is worthless.  The kernel
  benches time the two arms with :func:`time_interleaved`, so a burst of
  host contention slows both alike instead of skewing the ratio.

The JSON document is append-friendly for trend tooling: one file per run,
schema-versioned, with enough host metadata to explain level shifts.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

SCHEMA_VERSION = 1
SUITE_NAME = "repro-micro"


@dataclass
class Measurement:
    """Raw timing of one callable over a fixed workload."""

    repeats: int
    number: int
    best_s: float
    mean_s: float

    @property
    def per_call_s(self) -> float:
        return self.best_s / self.number


def time_callable(
    fn: Callable[[], object], repeats: int, number: int
) -> Measurement:
    """min/mean of ``repeats`` measurements of ``number`` calls each."""
    return time_interleaved([fn], repeats, number)[0]


def time_interleaved(
    fns: list[Callable[[], object]], repeats: int, number: int
) -> list[Measurement]:
    """:func:`time_callable` for several callables that take turns within
    every repeat, so a burst of host contention slows each of them alike
    instead of one arm of a comparison."""
    if repeats < 1 or number < 1:
        raise ValueError("repeats and number must be >= 1")
    for fn in fns:
        fn()  # warm-up: first call pays allocator/JIT-cache effects
    totals: list[list[float]] = [[] for _ in fns]
    for _ in range(repeats):
        for fn, fn_totals in zip(fns, totals):
            start = time.perf_counter()
            for _ in range(number):
                fn()
            fn_totals.append(time.perf_counter() - start)
    return [
        Measurement(
            repeats=repeats,
            number=number,
            best_s=min(fn_totals),
            mean_s=sum(fn_totals) / len(fn_totals),
        )
        for fn_totals in totals
    ]


@dataclass
class BenchResult:
    """One bench's entry in the JSON document."""

    name: str
    hot_path: str
    workload: dict
    optimized: Measurement
    reference: Measurement | None = None
    notes: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def speedup_vs_reference(self) -> float | None:
        if self.reference is None:
            return None
        return self.reference.per_call_s / self.optimized.per_call_s

    def to_json(self) -> dict:
        doc = {
            "name": self.name,
            "hot_path": self.hot_path,
            "workload": self.workload,
            "repeats": self.optimized.repeats,
            "number": self.optimized.number,
            "optimized_per_call_s": self.optimized.per_call_s,
            "optimized_mean_s": self.optimized.mean_s / self.optimized.number,
            "reference_per_call_s": (
                None if self.reference is None else self.reference.per_call_s
            ),
            "speedup_vs_reference": self.speedup_vs_reference,
            "notes": self.notes,
        }
        doc.update(self.extra)
        return doc


def build_document(results: list[BenchResult], quick: bool) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": SUITE_NAME,
        "quick": quick,
        "created_unix": time.time(),
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "benches": [r.to_json() for r in results],
    }


_REQUIRED_TOP_KEYS = ("schema_version", "suite", "quick", "created_unix", "host", "benches")
_REQUIRED_BENCH_KEYS = (
    "name",
    "hot_path",
    "workload",
    "repeats",
    "number",
    "optimized_per_call_s",
    "reference_per_call_s",
    "speedup_vs_reference",
)


def validate_bench_doc(doc: dict) -> list[str]:
    """Schema check for ``BENCH_micro.json``; returns the bench names.

    Raises ``ValueError`` with a readable message on any violation — this
    is what the CI smoke job runs against the freshly written file.
    """
    if not isinstance(doc, dict):
        raise ValueError("bench document must be a JSON object")
    for key in _REQUIRED_TOP_KEYS:
        if key not in doc:
            raise ValueError(f"bench document missing key {key!r}")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"schema_version {doc['schema_version']!r} != {SCHEMA_VERSION}"
        )
    if not isinstance(doc["benches"], list) or not doc["benches"]:
        raise ValueError("bench document has no benches")
    names = []
    for bench in doc["benches"]:
        for key in _REQUIRED_BENCH_KEYS:
            if key not in bench:
                raise ValueError(
                    f"bench {bench.get('name', '<unnamed>')!r} missing key {key!r}"
                )
        per_call = bench["optimized_per_call_s"]
        if not isinstance(per_call, (int, float)) or per_call <= 0:
            raise ValueError(f"bench {bench['name']!r} has non-positive timing")
        speedup = bench["speedup_vs_reference"]
        if speedup is not None and (
            not isinstance(speedup, (int, float)) or speedup <= 0
        ):
            raise ValueError(f"bench {bench['name']!r} has invalid speedup")
        names.append(bench["name"])
    if len(set(names)) != len(names):
        raise ValueError("bench names are not unique")
    return names


def write_bench_json(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=False)
        handle.write("\n")


def format_table(doc: dict) -> str:
    """Human-readable summary of a bench document for the CLI."""
    lines = [
        f"{'bench':18s} {'per-call':>12s} {'reference':>12s} {'speedup':>8s}",
    ]
    for bench in doc["benches"]:
        per_call = bench["optimized_per_call_s"]
        ref = bench["reference_per_call_s"]
        speedup = bench["speedup_vs_reference"]
        lines.append(
            f"{bench['name']:18s} {per_call * 1e3:10.3f}ms "
            f"{(ref * 1e3 if ref is not None else float('nan')):10.3f}ms "
            f"{(f'{speedup:.2f}x' if speedup is not None else '--'):>8s}"
        )
    return "\n".join(lines)
