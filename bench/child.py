"""One rep in a fresh process: ``python -m bench.child WORKLOAD SEED REP SPAWN_TS``.

Prints the rep's record as one JSON line on stdout.  ``SPAWN_TS`` is the
parent's ``time.monotonic()`` just before it started this process; the
monotonic clock is system-wide, so set-up time includes interpreter start.
A failing rep exits non-zero with its traceback on stderr.
"""

from __future__ import annotations

import argparse
import json


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("rep", type=int)
    parser.add_argument("spawn_ts", type=float)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    from bench.workloads import WORKLOADS, Rep

    rep = Rep(spawn_ts=args.spawn_ts)
    WORKLOADS[args.workload].rep(rep, args.seed, args.traced, args.tiny, args.rep)
    print(json.dumps(rep.to_json()), flush=True)


if __name__ == "__main__":
    main()
