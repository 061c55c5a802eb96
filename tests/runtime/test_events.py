"""Unit tests for the discrete-event queue."""

import pytest

from repro.runtime.events import EventQueue


class TestEventQueue:
    def test_fires_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule(3.0, lambda t: fired.append(("c", t)))
        queue.schedule(1.0, lambda t: fired.append(("a", t)))
        queue.schedule(2.0, lambda t: fired.append(("b", t)))
        queue.run()
        assert fired == [("a", 1.0), ("b", 2.0), ("c", 3.0)]

    def test_ties_break_by_insertion(self):
        queue = EventQueue()
        fired = []
        for name in "abc":
            queue.schedule(1.0, lambda t, n=name: fired.append(n))
        queue.run()
        assert fired == ["a", "b", "c"]

    def test_ordered_ties_break_by_order_not_insertion(self):
        queue = EventQueue()
        fired = []
        record = lambda t, name: fired.append(name)  # noqa: E731
        for order, name in ((2, "c"), (0, "a"), (1, "b")):
            queue.schedule_ordered(1.0, order, record, name)
        queue.schedule_ordered(0.5, 9, record, "first")
        assert queue.run() == 4
        assert fired == ["first", "a", "b", "c"]

    def test_ordered_scheduling_in_past_rejected(self):
        queue = EventQueue()
        queue.schedule_ordered(2.0, 0, lambda t: None)
        queue.step()
        with pytest.raises(ValueError):
            queue.schedule_ordered(1.0, 0, lambda t: None)

    def test_self_scheduling(self):
        queue = EventQueue()
        fired = []

        def tick(t):
            fired.append(t)
            if t < 5.0:
                queue.schedule(t + 1.0, tick)

        queue.schedule(1.0, tick)
        queue.run()
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_run_until(self):
        queue = EventQueue()
        fired = []
        for t in (1.0, 2.0, 3.0):
            queue.schedule(t, lambda t: fired.append(t))
        count = queue.run(until=2.0)
        assert count == 2
        assert len(queue) == 1

    def test_scheduling_in_past_rejected(self):
        queue = EventQueue()
        queue.schedule(2.0, lambda t: None)
        queue.step()
        with pytest.raises(ValueError):
            queue.schedule(1.0, lambda t: None)

    def test_step_on_empty(self):
        assert EventQueue().step() is False

    def test_runaway_guard(self):
        queue = EventQueue()

        def forever(t):
            queue.schedule(t + 0.001, forever)

        queue.schedule(0.0, forever)
        with pytest.raises(RuntimeError):
            queue.run(max_events=100)

    def test_draining_in_exactly_max_events_is_not_runaway(self):
        queue = EventQueue()
        fired = []
        for t in range(5):
            queue.schedule(float(t), lambda t: fired.append(t))
        assert queue.run(max_events=5) == 5
        assert len(queue) == 0
        assert fired == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_guard_ignores_events_past_until(self):
        queue = EventQueue()
        for t in (1.0, 2.0, 3.0):
            queue.schedule(t, lambda t: None)
        assert queue.run(until=2.0, max_events=2) == 2
        assert len(queue) == 1

    def test_action_receives_scheduled_args(self):
        queue = EventQueue()
        fired = []
        queue.schedule(2.0, lambda t, a, b: fired.append((t, a, b)), "x", 3)
        queue.schedule(1.0, lambda t: fired.append((t,)))
        queue.step()
        queue.step()
        assert fired == [(1.0,), (2.0, "x", 3)]

    def test_now_tracks_last_fired(self):
        queue = EventQueue()
        queue.schedule(4.5, lambda t: None)
        queue.step()
        assert queue.now == 4.5
