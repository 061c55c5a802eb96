"""Fleet-level result records for a serve run.

A :class:`FleetReport` is the serve analogue of a sweep's
``MethodResult``: everything one scheduler run produced, in a canonical
JSON-able form.  :meth:`FleetReport.digest` hashes that canonical form
(which already includes every stream's rolling event digest), so two
reports are digest-equal iff the runs were event-for-event identical —
the bit-identical-replay check used by the golden tests, the servebench
identity gate, and CI.

Percentiles are computed with a deterministic nearest-rank rule (sorted
values, ``ceil(q·n)``-th), not interpolation — reports must not depend
on float library quirks across numpy versions.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from repro.serve.admission import QOS_CLASSES


def nearest_rank(values: list[float], q: float) -> float | None:
    """Deterministic nearest-rank percentile of unsorted ``values``."""
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    if not values:
        return None
    ordered = sorted(values)
    rank = min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)
    return ordered[rank]


@dataclass(frozen=True, slots=True)
class StreamReport:
    """One stream's counters at end of run."""

    stream_id: int
    qos: str
    frames_arrived: int
    submitted: int
    served: int
    dropped: int
    buffer_dropped: int
    tracked_frames: int
    switches: int
    degraded_episodes: int
    degraded_frames: int
    mve_frames: int
    tier_transitions: int
    cpu_busy_s: float
    final_setting: str
    final_tier: str
    digest: str

    def to_dict(self) -> dict:
        return {
            "stream_id": self.stream_id,
            "qos": self.qos,
            "frames_arrived": self.frames_arrived,
            "submitted": self.submitted,
            "served": self.served,
            "dropped": self.dropped,
            "buffer_dropped": self.buffer_dropped,
            "tracked_frames": self.tracked_frames,
            "switches": self.switches,
            "degraded_episodes": self.degraded_episodes,
            "degraded_frames": self.degraded_frames,
            "mve_frames": self.mve_frames,
            "tier_transitions": self.tier_transitions,
            "cpu_busy_s": self.cpu_busy_s,
            "final_setting": self.final_setting,
            "final_tier": self.final_tier,
            "digest": self.digest,
        }


@dataclass(frozen=True, slots=True)
class ClassReport:
    """Aggregates for one QoS class."""

    qos: str
    submitted: int
    served: int
    dropped: int
    slo_s: float
    slo_attained: int  # post-warmup dispatches whose admission wait met the SLO
    slo_eligible: int  # post-warmup dispatches counted toward the SLO
    wait_p50_s: float | None
    wait_p99_s: float | None
    wait_max_s: float | None

    @property
    def slo_attainment(self) -> float | None:
        """Fraction of SLO-eligible dispatches admitted within the class SLO."""
        if self.slo_eligible == 0:
            return None
        return self.slo_attained / self.slo_eligible

    def to_dict(self) -> dict:
        return {
            "qos": self.qos,
            "submitted": self.submitted,
            "served": self.served,
            "dropped": self.dropped,
            "slo_s": self.slo_s,
            "slo_attained": self.slo_attained,
            "slo_eligible": self.slo_eligible,
            "slo_attainment": self.slo_attainment,
            "wait_p50_s": self.wait_p50_s,
            "wait_p99_s": self.wait_p99_s,
            "wait_max_s": self.wait_max_s,
        }


@dataclass
class FleetReport:
    """Everything one :class:`~repro.serve.scheduler.ServeScheduler` run produced."""

    num_streams: int
    duration_s: float
    seed_note: str
    submitted: int
    served: int
    dropped: int
    batches: int
    peak_depth: int
    final_depth: int
    degrade_events: int
    recover_events: int
    tier_transitions: int
    buffer_dropped: int
    tracked_frames: int
    mve_frames: int
    # Modelled events: one per frame arrival plus one per batch completion
    # (the scheduler fires far fewer; see ServeScheduler.heap_pops), and
    # the instant of the last one.
    events_fired: int
    end_time_s: float
    classes: dict[str, ClassReport]
    streams: list[StreamReport] = field(default_factory=list)
    # (virtual time, overload level) transitions, for fault tests.
    overload_transitions: list[tuple[float, int]] = field(default_factory=list)

    @property
    def served_per_sim_second(self) -> float:
        return self.served / self.duration_s if self.duration_s > 0 else 0.0

    def to_dict(self) -> dict:
        """Canonical JSON-able form; the digest hashes exactly this."""
        return {
            "num_streams": self.num_streams,
            "duration_s": self.duration_s,
            "seed_note": self.seed_note,
            "submitted": self.submitted,
            "served": self.served,
            "dropped": self.dropped,
            "batches": self.batches,
            "peak_depth": self.peak_depth,
            "final_depth": self.final_depth,
            "degrade_events": self.degrade_events,
            "recover_events": self.recover_events,
            "tier_transitions": self.tier_transitions,
            "buffer_dropped": self.buffer_dropped,
            "tracked_frames": self.tracked_frames,
            "mve_frames": self.mve_frames,
            "events_fired": self.events_fired,
            "end_time_s": self.end_time_s,
            "served_per_sim_second": self.served_per_sim_second,
            "overload_transitions": [
                [t, level] for t, level in self.overload_transitions
            ],
            "classes": {
                qos: self.classes[qos].to_dict()
                for qos in QOS_CLASSES
                if qos in self.classes
            },
            "streams": [stream.to_dict() for stream in self.streams],
        }

    def digest(self) -> str:
        """sha256 of the canonical report — the replay-identity check."""
        text = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    def summary(self) -> str:
        """Human-readable fleet summary for the CLI."""
        lines = [
            f"fleet:    {self.num_streams} streams, {self.duration_s:g}s simulated "
            f"({self.seed_note})",
            f"traffic:  {self.submitted} submitted / {self.served} served / "
            f"{self.dropped} dropped ({self.batches} batches, "
            f"{self.served_per_sim_second:.1f} served/s)",
            f"queue:    peak depth {self.peak_depth}, "
            f"{self.degrade_events} degrade / {self.recover_events} recover events "
            f"({self.tier_transitions} stream tier transitions)",
            f"tracking: {self.tracked_frames} frames tracked, "
            f"{self.buffer_dropped} buffer drops",
        ]
        for qos in QOS_CLASSES:
            cls = self.classes.get(qos)
            if cls is None:
                continue
            p99 = "n/a" if cls.wait_p99_s is None else f"{cls.wait_p99_s * 1e3:.0f}ms"
            attained = (
                "n/a"
                if cls.slo_attainment is None
                else f"{100.0 * cls.slo_attainment:.1f}%"
            )
            lines.append(
                f"{qos:>12s}: {cls.served}/{cls.submitted} served, "
                f"wait p99 {p99} (SLO {cls.slo_s * 1e3:.0f}ms, "
                f"attainment {attained}), {cls.dropped} dropped"
            )
        return "\n".join(lines)
