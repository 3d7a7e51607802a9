"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import SimulationError, Simulator


class TestScheduling:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_call_at_ordering(self):
        sim = Simulator()
        order = []
        sim.call_at(2.0, lambda: order.append("b"))
        sim.call_at(1.0, lambda: order.append("a"))
        sim.call_at(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_fifo_tie_break_at_same_time(self):
        sim = Simulator()
        order = []
        for i in range(10):
            sim.call_at(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == list(range(10))

    def test_call_after(self):
        sim = Simulator()
        seen = []
        sim.call_at(5.0, lambda: sim.call_after(2.5, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [7.5]

    def test_call_soon_runs_at_current_time(self):
        sim = Simulator()
        seen = []
        sim.call_at(4.0, lambda: sim.call_soon(lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [4.0]

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        sim.call_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            Simulator().call_after(-1.0, lambda: None)


class TestRun:
    def test_run_until_stops_clock_at_until(self):
        sim = Simulator()
        fired = []
        sim.call_at(1.0, lambda: fired.append(1))
        sim.call_at(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        # Later events still pending.
        assert sim.pending() == 1
        sim.run()
        assert fired == [1, 10]

    def test_run_until_advances_clock_when_queue_drains(self):
        sim = Simulator()
        sim.call_at(1.0, lambda: None)
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_max_events(self):
        sim = Simulator()
        count = []
        for i in range(5):
            sim.call_at(float(i), lambda: count.append(1))
        sim.run(max_events=3)
        assert len(count) == 3

    def test_event_cap_does_not_jump_the_clock_past_queued_events(self):
        # Regression: run(until=T, max_events=n) used to set now = T even
        # when the cap ended the run, so the next run() fired the
        # remaining events at times < now — the clock ran backwards.
        sim = Simulator()
        seen = []
        for i in range(10):
            sim.call_at(float(i), lambda: seen.append(sim.now))
        sim.run(until=100.0, max_events=3)
        assert seen == [0.0, 1.0, 2.0]
        assert sim.now == 2.0
        sim.call_at(2.5, lambda: seen.append(sim.now))  # still schedulable
        sim.run(until=100.0)
        assert seen == [0.0, 1.0, 2.0, 2.5] + [float(i) for i in range(3, 10)]
        assert sim.now == 100.0

    def test_event_cap_met_exactly_as_queue_drains_advances_clock(self):
        sim = Simulator()
        sim.call_at(1.0, lambda: None)
        sim.run(until=5.0, max_events=1)
        assert sim.now == 5.0  # nothing is left before ``until``

    def test_step(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, lambda: seen.append("x"))
        assert sim.step() is True
        assert seen == ["x"]
        assert sim.step() is False

    def test_not_reentrant(self):
        sim = Simulator()

        def recurse():
            sim.run()

        sim.call_at(1.0, recurse)
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(7):
            sim.call_at(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 7


class TestCancellation:
    def test_cancel_prevents_run(self):
        sim = Simulator()
        fired = []
        ev = sim.call_at(1.0, lambda: fired.append(1))
        ev.cancel()
        sim.run()
        assert fired == []
        assert ev.cancelled

    def test_cancel_idempotent(self):
        sim = Simulator()
        ev = sim.call_at(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        sim.run()

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        sim.call_at(1.0, lambda: None)
        ev = sim.call_at(2.0, lambda: None)
        ev.cancel()
        assert sim.pending() == 1

    def test_cancel_during_run(self):
        sim = Simulator()
        fired = []
        ev2 = sim.call_at(2.0, lambda: fired.append(2))
        sim.call_at(1.0, lambda: ev2.cancel())
        sim.run()
        assert fired == []


class TestEventsScheduledDuringRun:
    def test_chained_events(self):
        sim = Simulator()
        seen = []

        def tick(n):
            seen.append((sim.now, n))
            if n < 3:
                sim.call_after(1.0, lambda: tick(n + 1))

        sim.call_at(0.0, lambda: tick(0))
        sim.run()
        assert seen == [(0.0, 0), (1.0, 1), (2.0, 2), (3.0, 3)]
