"""Shard runners the sweep engine calls in its worker processes.

The engine accepts any picklable ``shard_runner``; these wrap the
program's own :func:`repro.parallel.run_shard` and attach what the
benchmark needs to the returned ``ShardResult`` as ``result.bench``: the
cell's wall and CPU time, the worker's pid and peak RSS, the frames the
cell processed, the host-speed samples taken before it and, when traced,
the span statistics the cell added.
"""

from __future__ import annotations

import os
import resource
import time

from bench.calibrate import HostSpeed
from bench.trace import ROOT, Tracer

# Per-worker state: the engine hands a runner nothing but the shard spec,
# so the wrappers are installed on a worker's first traced cell and stay
# for the life of the process, and host-speed samples are rate-limited
# across the cells a worker runs.
_worker_tracer: Tracer | None = None
_worker_speed = HostSpeed()


def _probe(spec, clip, obs, tracer: Tracer | None):
    from repro.parallel import run_shard

    taken = len(_worker_speed.samples)
    _worker_speed.sample(force=taken == 0)
    before = tracer.snapshot() if tracer is not None else None
    cpu0 = time.process_time()
    start = time.perf_counter()
    if tracer is None:
        result = run_shard(spec, clip=clip, obs=obs)
    else:
        result = tracer.call(ROOT, run_shard, spec, clip=clip, obs=obs)
    wall = time.perf_counter() - start
    result.bench = {
        "pid": os.getpid(),
        "wall_s": wall,
        "cpu_s": time.process_time() - cpu0,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "frames": spec.clip.config.num_frames,
        "host": _worker_speed.samples[taken:],
        "spans": tracer.since(before) if tracer is not None else None,
        "absent": tracer.absent if tracer is not None else [],
    }
    return result


def run_cell(spec, clip=None, obs=None):
    """Untraced cell: the program's shard runner plus timing."""
    return _probe(spec, clip, obs, None)


def run_cell_traced(spec, clip=None, obs=None):
    """Traced cell: installs the layer wrappers in this worker once."""
    global _worker_tracer
    if _worker_tracer is None:
        _worker_tracer = Tracer()
        _worker_tracer.install()
    return _probe(spec, clip, obs, _worker_tracer)


def warm_cell(spec, clip=None, obs=None):
    """Start-up cell: pays a worker's imports and returns its pid."""
    import repro.experiments.runners  # noqa: F401 - the import a real cell pays
    from repro.parallel import ShardResult

    return ShardResult(
        index=spec.index,
        method=spec.method.name,
        clip_name=spec.clip.name,
        clip_index=spec.clip_index,
        worker_pid=os.getpid(),
    )
