"""Command line: ``python -m bench run ...`` and ``python -m bench compare BASE HEAD``.

``run`` prints each metric as ``workload metric value unit``, then, as its
last line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the end-to-end metrics (or, traced, the per-layer ones).  With one
workload the metric names are bare; with several they read
``workload/metric``.  It exits non-zero when an output check fails, and
with 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

from bench import runner


def _host() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _print_metrics(workload: str, metrics: dict) -> None:
    for name, entry in metrics.items():
        spread = ""
        if entry["n"] > 1:
            spread = f"  (median of {entry['n']}; q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g})"
        print(f"{workload:12s} {name:36s} {entry['value']:>14.6g} {entry['unit']}{spread}")


def cmd_run(args: argparse.Namespace) -> int:
    declaration = runner.load_declaration()
    names = [w["name"] for w in declaration["workloads"]]
    workloads = args.workload or names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        print(f"bench: unknown workload(s) {unknown}; known: {names}", file=sys.stderr)
        return 2
    if not runner.program_present():
        print(f"bench: no program sources under {runner.SRC}", file=sys.stderr)
        return 2
    traced = args.traced or args.trace == 1
    seconds = args.seconds if args.seconds is not None else declaration["run_seconds"]

    def log(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    doc = {
        "created_unix": time.time(),
        "host": _host(),
        "seed": args.seed,
        "seconds": seconds,
        "traced": traced,
        "workloads": {},
    }
    for workload in workloads:
        doc["workloads"][workload] = runner.run_workload(
            workload, args.seed, seconds, traced, log=log
        )

    section = "layers" if traced else "e2e"
    metrics: dict[str, dict] = {}
    correct, attempted, failed = True, 0, 0
    for workload, result in doc["workloads"].items():
        _print_metrics(workload, result[section])
        for name in result["absent"]:
            print(f"{workload:12s} absent: {name}")
        for problem in result["problems"]:
            print(f"{workload:12s} CHECK FAILED: {problem}")
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{workload}/" if len(workloads) > 1 else ""
        for name, entry in result[section].items():
            metrics[prefix + name] = {"value": entry["value"], "unit": entry["unit"]}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
    if not metrics:
        print("bench: no rep completed; nothing to report", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def cmd_compare(args: argparse.Namespace) -> int:
    from bench.compare import compare

    lines, bad = compare(args.base, args.head)
    print("\n".join(lines))
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads, print metrics")
    run.add_argument("--workload", action="append", help="workload name (repeatable; default all)")
    run.add_argument("--seed", type=int, default=0, help="added to every base seed")
    run.add_argument("--seconds", type=float, help="measuring time per workload")
    run.add_argument("--traced", action="store_true", help="report per-layer metrics")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 = --traced")
    run.add_argument("--out", help="write the full run document (JSON) here")
    run.set_defaults(func=cmd_run)
    comp = sub.add_parser("compare", help="compare two sets of run documents")
    comp.add_argument("base")
    comp.add_argument("head")
    comp.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
