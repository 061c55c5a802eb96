"""The committed bench documents must validate against the current schemas.

``BENCH_micro.json``, ``BENCH_macro.json`` and ``BENCH_serve.json`` are
checked in and quoted by the docs; a schema change that silently orphans
them would leave the repo citing numbers its own validators reject.  The
envelope check makes each carry its ``clock`` and ``host.cpu_count``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.perf import validate_bench_doc, validate_macro_doc
from repro.serve.bench import validate_serve_doc

_ROOT = Path(__file__).resolve().parents[2]


def _load(name: str) -> dict:
    with open(_ROOT / name, encoding="utf-8") as handle:
        return json.load(handle)


def test_committed_micro_bench_validates():
    assert validate_bench_doc(_load("BENCH_micro.json"))


def test_committed_macro_bench_validates():
    assert validate_macro_doc(_load("BENCH_macro.json"))


def test_committed_serve_bench_validates():
    assert validate_serve_doc(_load("BENCH_serve.json"))


def test_changes_log_has_one_entry_per_pr():
    """Every entry number from 1 to the latest has exactly one ``PR n:``
    line in CHANGES.md.  Number 9 was never used, as the log records."""
    text = (_ROOT / "CHANGES.md").read_text(encoding="utf-8")
    numbers = [int(n) for n in re.findall(r"^PR (\d+):", text, flags=re.MULTILINE)]
    never_opened = {9}
    expected = [n for n in range(1, max(numbers) + 1) if n not in never_opened]
    assert sorted(numbers) == expected
