"""Shard cost estimation and clip-affine work units for sweep scheduling.

The pool's unit of work is one *clip*: every (method, clip) cell of a
clip runs on one worker, so that worker's frame store renders each
frame and builds each pyramid once for all the clip's method arms, and
the arms' lockstep session solves each Lucas-Kanade step once for all
of them — no cross-process store is needed for that reuse.  Units are
ordered longest-first (LPT) by their summed cell cost and fed to idle
workers from a shared queue, the classic
4/3-approximation to optimal makespan.  When a sweep has fewer clips
than workers, the costliest unit is split in half (cells dealt
alternately from its longest-first order, so the halves cost about the
same) until every worker has a unit; the split is derived from the
inputs, so it adds no knob.

Costs are *relative*, not wall-clock predictions: scheduling only needs
ranks.  A shard's cost is ``frames x per-frame method cost``, where the
method cost comes from measured family weights with a detector-size
nudge taken from ``DETECTOR_PROFILES`` latencies (the simulated detector
burns no real CPU, so size matters far less than family — tracking work
dominates the real wall time).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.detection.profiles import DETECTOR_PROFILES

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel.specs import ShardSpec

# Measured mean wall seconds per frame on the 60-frame bench clips
# (engine shard timings; see DESIGN.md §8).  Family dominates: adavp
# runs detector + tracker + adaptation, mpdt/marlin run detector +
# tracker, no-tracking runs the detector model alone.
_FAMILY_COST_PER_FRAME = {
    "adavp": 6.5e-3,
    "mpdt": 4.0e-3,
    "marlin": 3.5e-3,
    "no-tracking": 0.3e-3,
}
_DEFAULT_COST_PER_FRAME = 4.0e-3

# Detector size nudges relative costs *within* a family.  The simulator
# does not run a real network, so size must never outrank family — the
# nudge is multiplicative on the family cost, scaled by the profile's
# base_latency (0.23s..0.5s), reproducing the measured intra-family
# spread of roughly 10-25%.
_SIZE_NUDGE = 0.5


def method_family(name: str) -> str:
    """The registry family prefix of a method name (``mpdt-416`` → ``mpdt``)."""
    for family in _FAMILY_COST_PER_FRAME:
        if name == family or name.startswith(family + "-"):
            return family
    return name.split("-")[0]


def _size_factor(name: str) -> float:
    """Multiplier (>= 1) from the method's detector input size."""
    tail = name.rsplit("-", 1)[-1]
    if not tail.isdigit():
        return 1.0
    size = int(tail)
    for profile in DETECTOR_PROFILES.values():
        if profile.input_size == size:
            return 1.0 + _SIZE_NUDGE * profile.base_latency
    return 1.0


def estimate_shard_cost(spec: "ShardSpec") -> float:
    """Relative cost of one shard: frames x per-frame method cost."""
    per_frame = _FAMILY_COST_PER_FRAME.get(
        method_family(spec.method.name), _DEFAULT_COST_PER_FRAME
    )
    frames = max(1, int(spec.clip.config.num_frames))
    return frames * per_frame * _size_factor(spec.method.name)


def order_shards(specs: "list[ShardSpec]") -> "deque[ShardSpec]":
    """Cells in longest-processing-time-first order.

    Ties break on grid index so the order is deterministic; determinism
    here is about reproducible *scheduling* only — the reducer reassembles
    by index, so results are bit-identical under any completion order.
    """
    return deque(
        sorted(specs, key=lambda s: (-estimate_shard_cost(s), s.index))
    )


def _unit_cost(unit: "list[ShardSpec]") -> float:
    return sum(estimate_shard_cost(spec) for spec in unit)


def clip_units(specs: "list[ShardSpec]", jobs: int) -> "deque[list[ShardSpec]]":
    """A sweep's cells grouped into per-clip work units, longest first.

    Each unit holds one clip's cells in grid order.  While there are
    fewer units than ``jobs``, the costliest unit with two or more cells
    is split in two — its cells dealt alternately from longest-first
    order, so the halves cost about the same — and even a one-clip
    sweep reaches every worker.  Ties break on the lowest grid index, so
    the order is deterministic.
    """
    by_clip: dict[int, list[ShardSpec]] = {}
    for spec in specs:
        by_clip.setdefault(spec.clip_index, []).append(spec)
    units = list(by_clip.values())
    while len(units) < jobs:
        largest = max(range(len(units)), key=lambda i: _unit_cost(units[i]))
        if len(units[largest]) < 2:
            break
        ordered = list(order_shards(units.pop(largest)))
        units += [ordered[0::2], ordered[1::2]]
    return deque(
        sorted(units, key=lambda unit: (-_unit_cost(unit), min(s.index for s in unit)))
    )
