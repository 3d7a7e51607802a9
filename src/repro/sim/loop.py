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

    __slots__ = ("time", "callback", "cancelled", "_sim")

    def __init__(
        self, time: float, callback: Callable[[], None], sim: "Simulator"
    ):
        #: Simulated time at which the callback fires.
        self.time = time
        # None once the event has fired or been cancelled — i.e. exactly
        # when it is no live heap entry — so a handle kept past that
        # point pins nothing the callback captured.
        self.callback = callback
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent).

        Amortised O(1): the heap entry becomes a tombstone, and the
        simulator sweeps tombstones out once they outnumber the live
        entries. Cancelling an event that already fired changes nothing
        but the ``cancelled`` flag.
        """
        self.cancelled = True
        if self.callback is not None:
            self.callback = None
            self._sim._note_cancelled()


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling in the past)."""


#: Tombstones are swept only once there are more than this many (and
#: they outnumber the live entries): below it a sweep costs more than
#: the dead entries do.
_COMPACT_MIN_DEAD = 64


class Simulator:
    """Event loop with a virtual clock.

    Typical use::

        sim = Simulator(seed=7)
        sim.call_at(1.0, lambda: print("hello at t=1"))
        sim.run(until=10.0)

    ``now`` is the current simulated time in seconds. It is a plain
    attribute because everything reads it on every message hop — and
    read-only by contract: only the event loop (:meth:`_drain`) assigns it.
    """

    def __init__(self, seed: int = 0):
        self.now = 0.0
        self._seq = 0
        self._heap: list[tuple[float, int, Event]] = []
        self._dead = 0  # cancelled entries still in the heap
        self._running = False
        self.seed = seed
        # Lazily-built named RNG substreams (see repro.sim.rng).
        from .rng import RngRegistry

        self.rng = RngRegistry(seed)
        self.events_processed = 0

    # -- scheduling -----------------------------------------------------

    def call_at(self, when: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run at absolute time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at t={when} < now={self.now}"
            )
        ev = Event(when, callback, self)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (when, seq, ev))
        return ev

    def call_after(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self.now + delay, callback)

    def call_soon(self, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at the current instant (after events
        already queued for this instant)."""
        return self.call_at(self.now, callback)

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
                when, _, ev = heap[0]
                callback = ev.callback
                if callback is None:  # tombstone
                    heappop(heap)
                    self._dead -= 1
                    continue
                # Checked against a live entry only: whether tombstones
                # happen to remain must not decide if the clock advances.
                if fired == max_events:  # never true for None
                    return fired
                if when > horizon:
                    break
                heappop(heap)
                ev.callback = None  # fired: a late cancel() is no tombstone
                self.now = when
                fired += 1
                callback()
            if until is not None and self.now < until:
                self.now = until
            return fired
        finally:
            self.events_processed += fired
            self._running = False
            # Firing shrinks the live count without a cancel() to notice.
            self._maybe_compact()

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._heap) - self._dead

    # -- cancellation ---------------------------------------------------

    def _note_cancelled(self) -> None:
        """A queued event was just cancelled (called by the event)."""
        self._dead += 1
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Sweep the tombstones out once they are both numerous and the
        majority of the heap — each sweep is O(heap) and removes more
        than half of it, so the cost is O(1) per cancel, amortised.
        ``(when, seq)`` keys are unique and untouched, so the order in
        which the survivors pop cannot change. In place: the run loop
        holds this list."""
        heap = self._heap
        if self._dead > _COMPACT_MIN_DEAD and self._dead * 2 > len(heap):
            heap[:] = [e for e in heap if e[2].callback is not None]
            heapq.heapify(heap)
            self._dead = 0
