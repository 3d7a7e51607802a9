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


class TestDeadEntryAccounting:
    """``pending()`` is ``len(heap) - dead``: the dead count must be
    exactly the number of cancelled entries still in the heap, whatever
    order cancels, firings and sweeps come in."""

    @staticmethod
    def exact(sim) -> bool:
        dead = sum(1 for _, _, ev in sim._heap if ev.cancelled)
        return sim._dead == dead and sim.pending() == len(sim._heap) - dead

    def test_cancel_twice_counts_once(self):
        sim = Simulator()
        sim.call_at(1.0, lambda: None)
        ev = sim.call_at(2.0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert (sim._dead, sim.pending()) == (1, 1)
        sim.run()
        assert (sim._dead, sim.pending(), len(sim._heap)) == (0, 0, 0)

    def test_cancel_after_fire_is_not_a_dead_entry(self):
        sim = Simulator()
        ev = sim.call_at(1.0, lambda: None)
        sim.call_at(2.0, lambda: None)
        sim.run(until=1.5)
        ev.cancel()
        assert ev.cancelled
        assert (sim._dead, sim.pending(), len(sim._heap)) == (0, 1, 1)

    def test_cancel_from_inside_own_callback(self):
        sim = Simulator()
        handle = []
        handle.append(sim.call_at(1.0, lambda: handle[0].cancel()))
        sim.call_at(2.0, lambda: None)
        sim.step()
        assert (sim._dead, sim.pending()) == (0, 1)

    def test_cancel_of_event_a_sweep_already_dropped(self):
        sim = Simulator()
        for _ in range(10):
            sim.call_at(1.0, lambda: None)
        timers = [sim.call_at(5.0, lambda: None) for _ in range(200)]
        for ev in timers:
            ev.cancel()
            assert self.exact(sim)
        # Tombstones became the majority long ago: swept, not parked.
        assert len(sim._heap) < 100
        for ev in timers:
            ev.cancel()  # its heap entry is gone: must not count again
            assert self.exact(sim)
        assert sim.pending() == 10

    def test_sweep_keeps_firing_order(self):
        sim = Simulator()
        order = []
        live = [sim.call_at(1.0 + (i * 7 % 10), lambda i=i: order.append(i))
                for i in range(50)]
        for ev in [sim.call_at(0.5, lambda: None) for _ in range(300)]:
            ev.cancel()
        assert sim.pending() == 50
        sim.run()
        assert order == sorted(range(50), key=lambda i: (live[i].time, i))

    def test_sweep_from_inside_the_run_loop(self):
        # The run loop holds the heap list: a sweep must edit it in place.
        sim = Simulator()
        fired = []
        timers = [sim.call_at(9.0, lambda: fired.append("t")) for _ in range(300)]

        def cancel_all():
            for ev in timers:
                ev.cancel()
            sim.call_after(1.0, lambda: fired.append("later"))

        sim.call_at(1.0, cancel_all)
        sim.call_at(3.0, lambda: fired.append("end"))
        sim.run()
        assert fired == ["later", "end"]
        assert (sim._dead, sim.pending(), len(sim._heap)) == (0, 0, 0)


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
