"""The discrete-event simulation kernel.

A :class:`Simulator` owns a virtual clock and a binary heap of pending
events. Everything else in the testbed — network links, disks, protocol
timers, workload clients — schedules callbacks on this kernel. Time is
a float in **seconds** of simulated time.

Determinism is a hard requirement (DESIGN.md §4): two events scheduled
for the same instant fire in scheduling order, enforced with a
monotonically increasing sequence number used as the heap tie-breaker.
Combined with the seeded RNG streams in :mod:`repro.sim.rng`, a given
experiment seed always produces the identical trace.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import Callable


class Event:
    """A scheduled callback, and the handle that cancels it.

    The heap holds ``(time, seq, event)`` tuples, so ordering is decided
    by ``heapq``'s C tuple comparison on the first two slots — ``seq`` is
    unique, the comparison never reaches the event — and this object is
    both the third slot and what the scheduling calls return.
    """

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: float, callback: Callable[[], None]):
        #: Simulated time at which the callback fires.
        self.time = time
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent).

        Cancellation is O(1): the heap entry is tombstoned and skipped
        when popped.
        """
        self.cancelled = True


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling in the past)."""


class Simulator:
    """Event loop with a virtual clock.

    Typical use::

        sim = Simulator(seed=7)
        sim.call_at(1.0, lambda: print("hello at t=1"))
        sim.run(until=10.0)
    """

    def __init__(self, seed: int = 0):
        self._now = 0.0
        self._seq = 0
        self._heap: list[tuple[float, int, Event]] = []
        self._running = False
        self.seed = seed
        # Lazily-built named RNG substreams (see repro.sim.rng).
        from .rng import RngRegistry

        self.rng = RngRegistry(seed)
        self.events_processed = 0

    # -- clock ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling -----------------------------------------------------

    def call_at(self, when: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when} < now={self._now}"
            )
        ev = Event(when, callback)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (when, seq, ev))
        return ev

    def call_after(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self._now + delay, callback)

    def call_soon(self, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at the current instant (after events
        already queued for this instant)."""
        return self.call_at(self._now, callback)

    # -- running --------------------------------------------------------

    def step(self) -> bool:
        """Run the single next event. Returns False if the queue is empty."""
        return self._drain(None, 1) == 1

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have been processed.

        When ``until`` is given and the run ends because nothing is left
        to do before it (queue drained, or the next event lies beyond
        ``until``), the clock is advanced to exactly ``until``, so
        metrics sampled at "end of run" are well defined. A run cut
        short by ``max_events`` or by an exception leaves the clock at
        the last event fired: events earlier than ``until`` are still
        queued, and the clock must never pass them.
        """
        self._drain(until, max_events)

    def _drain(self, until: float | None, max_events: int | None) -> int:
        """The one event loop behind :meth:`run` and :meth:`step`;
        returns the number of events fired."""
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        horizon = inf if until is None else until
        fired = 0
        try:
            while heap:
                if fired == max_events:  # never true for None
                    return fired
                when, _, ev = heap[0]
                if ev.cancelled:
                    heappop(heap)
                    continue
                if when > horizon:
                    break
                heappop(heap)
                self._now = when
                fired += 1
                ev.callback()
            if until is not None and self._now < until:
                self._now = until
            return fired
        finally:
            self.events_processed += fired
            self._running = False

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for _, _, ev in self._heap if not ev.cancelled)

    # -- misc -----------------------------------------------------------

    def timeout_error(self, msg: str) -> "SimTimeout":
        return SimTimeout(f"t={self._now:.6f}: {msg}")


class SimTimeout(Exception):
    """A simulated operation exceeded its deadline."""
