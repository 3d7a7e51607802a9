"""Queued, rate-limited resources: the building block for NICs and disks.

A :class:`FifoResource` serializes jobs: each job occupies the resource
for a caller-computed service time, and completion callbacks fire in
FIFO order. This one abstraction models

- a NIC transmitting frames at ``size / bandwidth`` seconds each,
- a disk servicing flushes at ``1/IOPS + size / bandwidth`` each,
- a CPU core "computing" for a modeled duration.

Utilization accounting (busy time integral) is built in because the
evaluation needs to report device-bound vs. network-bound regimes.
"""

from __future__ import annotations

from typing import Callable

from .loop import Simulator


class FifoResource:
    """A single server with an unbounded FIFO queue.

    A job occupies the resource for its service time, starting
    immediately if idle, else when all earlier jobs have finished. The
    queue is implicit: FIFO order makes a job's completion time known
    the moment it is enqueued, so that time is all the resource stores.
    """

    def __init__(self, sim: Simulator, name: str = "resource"):
        self.sim = sim
        self.name = name
        self._busy_until = 0.0
        self._busy_time = 0.0  # integral of busy periods
        self.jobs_served = 0

    def reserve(self, service_time: float) -> float:
        """Enqueue a job and return its completion time, scheduling
        nothing — for a caller that folds the completion into an event
        of its own (the network adds the propagation delay and schedules
        the arrival directly).

        ``service_time`` must be >= 0. Zero-time jobs still respect
        FIFO ordering.
        """
        if service_time < 0:
            raise ValueError(f"negative service time {service_time}")
        now = self.sim.now
        busy_until = self._busy_until
        done = (busy_until if busy_until > now else now) + service_time
        self._busy_until = done
        self._busy_time += service_time
        self.jobs_served += 1
        return done

    def submit(self, service_time: float, callback: Callable[[], None]) -> float:
        """Enqueue a job whose ``callback`` fires when it *completes*;
        returns the completion time."""
        done = self.reserve(service_time)
        self.sim.call_at(done, callback)
        return done

    @property
    def backlog(self) -> float:
        """Seconds of queued work remaining from now."""
        return max(0.0, self._busy_until - self.sim.now)

    def utilization(self, since: float = 0.0) -> float:
        """Fraction of [since, now] the resource was busy.

        An approximation: counts all service time granted so far,
        clipped to the window length.
        """
        window = self.sim.now - since
        if window <= 0:
            return 0.0
        return min(1.0, self._busy_time / window)
