"""A small discrete-event queue.

Generic priority-queue scheduling used where a pipeline needs to interleave
independently timed activities (the serve scheduler, and tests that
validate the timing algebra of the simulators).  Events fire in timestamp
order; ties break by insertion order, which keeps runs deterministic.

An event carries its arguments: ``schedule(t, action, *args)`` fires
``action(t, *args)``, so a hot caller can schedule a bound method with
plain arguments instead of building a closure per event.  A one-argument
``lambda t: ...`` is simply the no-argument case.

A caller that knows its own tie order passes it with
``schedule_ordered(t, order, action, *args)``: events sharing a timestamp
then fire in ``order`` order instead of insertion order.  One queue uses
one of the two forms, since an ``order`` value need not compare with an
insertion number.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable


class EventQueue:
    """Timestamp-ordered event dispatch with stable tie-breaking."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[..., Any], tuple]] = []
        self._counter = itertools.count()
        self._now = 0.0

    @property
    def now(self) -> float:
        """Timestamp of the most recently fired event."""
        return self._now

    def schedule(
        self, timestamp: float, action: Callable[..., Any], *args: Any
    ) -> None:
        """Schedule ``action(timestamp, *args)`` to run at ``timestamp``.

        Scheduling in the past (before the last fired event) is an error —
        it would silently reorder causality.
        """
        if timestamp < self._now:
            raise ValueError(
                f"cannot schedule at {timestamp} before current time {self._now}"
            )
        heapq.heappush(self._heap, (timestamp, next(self._counter), action, args))

    def schedule_ordered(
        self, timestamp: float, order: Any, action: Callable[..., Any], *args: Any
    ) -> None:
        """Schedule ``action(timestamp, *args)``, tied events firing in
        ``order`` order.

        ``order`` values of events that can share a timestamp must be
        distinct and totally ordered by ``<``.
        """
        if timestamp < self._now:
            raise ValueError(
                f"cannot schedule at {timestamp} before current time {self._now}"
            )
        heapq.heappush(self._heap, (timestamp, order, action, args))

    def __len__(self) -> int:
        return len(self._heap)

    def step(self) -> bool:
        """Fire the next event; returns False when the queue is empty."""
        if not self._heap:
            return False
        timestamp, _, action, args = heapq.heappop(self._heap)
        self._now = timestamp
        action(timestamp, *args)
        return True

    def run(self, until: float | None = None, max_events: int = 1_000_000) -> int:
        """Fire events until empty, ``until`` time, or ``max_events``.

        Returns the number of events fired.  ``max_events`` guards against
        runaway self-scheduling loops: it raises only when an event that
        would fire is still queued after ``max_events`` have fired.
        """
        heap = self._heap
        pop = heapq.heappop
        fired = 0
        while heap:
            if until is not None and heap[0][0] > until:
                break
            if fired == max_events:
                raise RuntimeError(f"event queue exceeded {max_events} events")
            timestamp, _, action, args = pop(heap)
            self._now = timestamp
            action(timestamp, *args)
            fired += 1
        return fired
