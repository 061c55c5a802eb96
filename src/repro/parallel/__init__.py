"""Parallel sweep execution: shard a (method × clip) grid over processes.

The experiment grids behind every figure/table are embarrassingly
parallel, so this package fans them out over a spawn-safe process pool
and reduces the results in deterministic grid order — ``jobs=N`` is
bit-identical to ``jobs=1``, which is bit-identical to the pre-engine
sequential loop.  See DESIGN.md §8.

Typical use::

    from repro.parallel import run_sweep

    sweep = run_sweep(FIG6_METHODS, evaluation_suite(), jobs=4)
    sweep.raise_if_failed()
    results = sweep.results        # dict[str, MethodResult]
"""

from repro.parallel.costs import (
    clip_units,
    estimate_shard_cost,
    method_family,
    order_shards,
)
from repro.parallel.engine import (
    ProgressCallback,
    SweepEngine,
    SweepResult,
    run_shard,
    run_sweep,
)
from repro.parallel.specs import (
    ClipSpec,
    MethodSpec,
    ShardFailure,
    ShardResult,
    ShardSpec,
)

__all__ = [
    "ClipSpec",
    "MethodSpec",
    "ProgressCallback",
    "ShardFailure",
    "ShardResult",
    "ShardSpec",
    "SweepEngine",
    "SweepResult",
    "clip_units",
    "estimate_shard_cost",
    "method_family",
    "order_shards",
    "run_shard",
    "run_sweep",
]
