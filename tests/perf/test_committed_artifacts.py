"""The committed bench documents must validate against the current schemas.

``BENCH_micro.json`` and ``BENCH_macro.json`` are checked in and quoted by
the docs; a schema change that silently orphans them would leave the repo
citing numbers its own validators reject.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.perf import validate_bench_doc, validate_macro_doc

_ROOT = Path(__file__).resolve().parents[2]


def _load(name: str) -> dict:
    with open(_ROOT / name, encoding="utf-8") as handle:
        return json.load(handle)


def test_committed_micro_bench_validates():
    assert validate_bench_doc(_load("BENCH_micro.json"))


def test_committed_macro_bench_validates():
    assert validate_macro_doc(_load("BENCH_macro.json"))
