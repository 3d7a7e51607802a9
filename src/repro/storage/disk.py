"""Simulated block devices.

The evaluation uses two EBS volume classes (§6.1):

- a regular volume at roughly **100 IOPS**, standing in for spinning
  disks (the paper's ``.HDD`` suffix), and
- a high-performance volume at over **4000 IOPS**, standing in for SSDs
  (``.SSD``).

The service-time model per flush is ``1/IOPS + size/bandwidth``: a fixed
per-operation cost (seek/queue/firmware) plus transfer time. Small
writes are IOPS-bound, large writes bandwidth-bound — which is exactly
the crossover structure Figures 5–7 exhibit. Operations queue FIFO at
the device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..sim import FifoResource, Simulator


@dataclass(frozen=True, slots=True)
class DiskSpec:
    """Performance parameters of a simulated device.

    Attributes
    ----------
    iops:
        Sustainable small-operation rate; the fixed per-op cost is
        ``1/iops`` seconds.
    bandwidth_bps:
        Sequential transfer rate in **bytes**/second.
    name:
        Label used in reports (``hdd`` / ``ssd``).
    eio_rate:
        Probability that any given write fails with a transient device
        error (EIO) after consuming its service time. 0 = fault-free.
        Callers that pass ``on_error`` see the failure; the write is
        not retried by the device itself.
    """

    iops: float
    bandwidth_bps: float
    name: str = "disk"
    eio_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.iops <= 0 or self.bandwidth_bps <= 0:
            raise ValueError("iops and bandwidth must be positive")
        if not 0.0 <= self.eio_rate < 1.0:
            raise ValueError("eio_rate must be in [0, 1)")

    def op_time(self, nbytes: int) -> float:
        """Service time for one flush of ``nbytes``."""
        if nbytes < 0:
            raise ValueError("negative size")
        return 1.0 / self.iops + nbytes / self.bandwidth_bps


#: Regular EBS volume ≈ commodity hard drive: ~100 IOPS. Sequential
#: bandwidth ~100 MB/s (typical 2014-era magnetic/EBS-standard rates).
HDD = DiskSpec(iops=100, bandwidth_bps=100e6, name="hdd")

#: High-performance EBS volume ≈ SSD: >4000 IOPS, ~300 MB/s sequential.
SSD = DiskSpec(iops=4000, bandwidth_bps=300e6, name="ssd")


class Disk:
    """One device instance attached to a server.

    Writes are durable once their completion callback runs; reads are
    modeled with the same cost formula. ``contents`` is an abstract
    byte counter used for storage-cost accounting (real payloads live
    in the durable state objects of the layers above).
    """

    def __init__(self, sim: Simulator, spec: DiskSpec, name: str = "disk"):
        self.sim = sim
        self.spec = spec
        self.name = name
        self._queue = FifoResource(sim, name)
        self.bytes_written = 0
        self.bytes_read = 0
        self.flushes = 0
        self.write_errors = 0
        # Fault-injection knob: every operation's service time is
        # multiplied by this factor (a "slow disk" / degraded-volume
        # episode). 1.0 = healthy; must stay finite so queued work
        # eventually drains.
        self.slowdown = 1.0
        # One-shot fault-injection counter: the next N writes fail with
        # a transient EIO (deterministic, for tests and chaos).
        self._eio_pending = 0

    def _service_time(self, nbytes: int) -> float:
        if self.slowdown < 1.0:
            raise ValueError("disk slowdown factor must be >= 1")
        return self.spec.op_time(nbytes) * self.slowdown

    def inject_write_errors(self, n: int = 1) -> None:
        """Make the next ``n`` writes fail with a transient EIO."""
        self._eio_pending += n

    def _next_write_fails(self) -> bool:
        if self._eio_pending > 0:
            self._eio_pending -= 1
            return True
        if self.spec.eio_rate > 0.0:
            rng = self.sim.rng.stream(f"disk.{self.name}.eio")
            return rng.random() < self.spec.eio_rate
        return False

    def write(
        self,
        nbytes: int,
        callback: Callable[[], None],
        on_error: Callable[[], None] | None = None,
    ) -> float:
        """Queue a durable write; ``callback`` fires when it is on media.

        A write that hits a transient device error (EIO — injected via
        :meth:`inject_write_errors` or ``spec.eio_rate``) still occupies
        the device for its full service time, but nothing reaches media:
        ``on_error`` fires instead of ``callback`` and the bytes are not
        counted as written. Without an ``on_error`` the failure is
        silently dropped (legacy callers are fault-free).

        Returns the completion time.
        """
        if self._next_write_fails():
            self.write_errors += 1
            return self._queue.submit(
                self._service_time(nbytes), on_error or (lambda: None)
            )
        self.bytes_written += nbytes
        self.flushes += 1
        return self._queue.submit(self._service_time(nbytes), callback)

    def read(self, nbytes: int, callback: Callable[[], None]) -> float:
        """Queue a read of ``nbytes``; callback fires with data 'ready'."""
        self.bytes_read += nbytes
        return self._queue.submit(self._service_time(nbytes), callback)

    def utilization(self, since: float = 0.0) -> float:
        return self._queue.utilization(since)
