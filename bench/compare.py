"""``python -m bench compare BASE HEAD``: is HEAD a regression, a gain, or neither?

``BASE`` and ``HEAD`` are each a ``bench run --out`` file or a directory of
them.  Each run contributes one value per (metric, workload): its median
over reps.  Runs pair up in the order they were made, so alternate the two
commits when collecting them (base, head, head, base, ...).

For each end-to-end metric and workload the verdict follows the rules the
benchmark was designed with:

- ``unresolved``: the base runs spread (interquartile range over median)
  wider than the metric's bound, unless every head run beats every base
  run (``better``);
- ``REGRESSION``: the head median is worse than the base median by more
  than the bound;
- ``gain``: head wins at least 9 of 10 pairs (ties count for neither) and
  the medians differ by more than the base runs' interquartile range;
- ``within bound`` otherwise.

Model outputs (accuracy, virtual-time results) must match exactly;
per-layer metrics are shown with their change and no verdict.
"""

from __future__ import annotations

import json
from pathlib import Path

from bench.runner import OUTPUTS, load_declaration, summarize

GAIN_WIN_FRACTION = 0.9


def load_runs(path: str) -> list[dict]:
    """Run documents at ``path`` (a file, or a directory of ``*.json``), oldest first."""
    target = Path(path)
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    docs = []
    for file in files:
        with open(file, encoding="utf-8") as handle:
            docs.append(json.load(handle))
    return sorted(docs, key=lambda doc: doc["created_unix"])


def _series(docs: list[dict], section: str, workload: str, name: str) -> list[float]:
    values = []
    for doc in docs:
        entry = doc["workloads"].get(workload, {}).get(section, {}).get(name)
        if entry is not None:
            values.append(entry["value"] if isinstance(entry, dict) else entry)
    return values


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    stats = summarize(values)
    return stats["q1"], stats["value"], stats["q3"]


def verdict(base: list[float], head: list[float], better: str, bound: float) -> dict:
    """Compare two series of per-run values of one metric (see module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = _quartiles(base)
    h_q1, h_med, h_q3 = _quartiles(head)
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (b - h) > 0)
    worse = sign * (h_med - b_med) / b_med if b_med else 0.0
    spread = (b_q3 - b_q1) / abs(b_med) if b_med else 0.0
    every_better = all(sign * (b - h) > 0 for b in base for h in head)
    if spread > bound:
        call = "better" if every_better else "unresolved"
    elif worse > bound:
        call = "REGRESSION"
    elif (
        pairs
        and wins >= GAIN_WIN_FRACTION * len(pairs)
        and sign * (b_med - h_med) > (b_q3 - b_q1)
    ):
        call = "gain"
    else:
        call = "within bound"
    return {
        "base": (b_med, b_q1, b_q3),
        "head": (h_med, h_q1, h_q3),
        "change": h_med / b_med - 1.0 if b_med else 0.0,
        "spread": spread,
        "wins": f"{wins}/{len(pairs)}",
        "verdict": call,
    }


def compare(base_path: str, head_path: str) -> tuple[list[str], bool]:
    """Report lines, and whether anything regressed or changed."""
    declaration = load_declaration()
    base, head = load_runs(base_path), load_runs(head_path)
    workloads = [w["name"] for w in declaration["workloads"]]
    lines = [
        f"base: {len(base)} run(s) from {base_path}; head: {len(head)} run(s) from {head_path}",
        f"{'workload':12s} {'metric':34s} {'base median [q1, q3]':>30s} "
        f"{'head median [q1, q3]':>30s} {'change':>8s} {'wins':>6s}  verdict",
    ]
    bad = False

    def row(workload: str, name: str, b: dict, call: str, wins: str = "") -> str:
        base_cell = "{:.5g} [{:.4g}, {:.4g}]".format(*b["base"])
        head_cell = "{:.5g} [{:.4g}, {:.4g}]".format(*b["head"])
        return (
            f"{workload:12s} {name:34s} {base_cell:>30s} {head_cell:>30s} "
            f"{b['change']:>+8.1%} {wins:>6s}  {call}"
        )

    for metric in declaration["end_to_end"]:
        for workload in workloads:
            b = _series(base, "e2e", workload, metric["name"])
            h = _series(head, "e2e", workload, metric["name"])
            if not b or not h:
                continue
            result = verdict(b, h, metric["better"], metric["bound"])
            bad |= result["verdict"] == "REGRESSION"
            lines.append(row(workload, metric["name"], result, result["verdict"], result["wins"]))
    for name in sorted(OUTPUTS):
        for workload in workloads:
            b = _series(base, "outputs", workload, name)
            h = _series(head, "outputs", workload, name)
            if not b or not h:
                continue
            same = b == h
            bad |= not same
            result = verdict(b, h, "higher", 0.0)
            lines.append(row(workload, name, result, "same" if same else "CHANGED"))
    for metric in declaration["per_layer"]:
        for workload in workloads:
            b = _series(base, "layers", workload, metric["name"])
            h = _series(head, "layers", workload, metric["name"])
            if not b or not h:
                continue
            result = verdict(b, h, metric["better"], float("inf"))
            lines.append(row(workload, metric["name"], result, "-"))
    return lines, bad
