"""Deterministic benchmark layer.

``repro bench`` → BENCH_micro.json (vision-kernel microbenchmarks) and
``repro macrobench`` → BENCH_macro.json (sweep-engine suite benchmark),
both in the document envelope of :func:`build_document`.
"""

from repro.perf.benches import BENCHES, run_benchmarks
from repro.perf.harness import (
    BenchResult,
    Measurement,
    build_document,
    format_table,
    time_callable,
    validate_bench_doc,
    write_bench_json,
)
from repro.perf.macro import (
    format_macro_table,
    run_macro_benchmark,
    validate_macro_doc,
)

__all__ = [
    "BENCHES",
    "BenchResult",
    "Measurement",
    "build_document",
    "format_macro_table",
    "format_table",
    "run_benchmarks",
    "run_macro_benchmark",
    "time_callable",
    "validate_bench_doc",
    "validate_macro_doc",
    "write_bench_json",
]
