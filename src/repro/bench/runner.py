"""Experiment drivers: latency, throughput, macro mixes, failover.

Each function builds a cluster for a :class:`~repro.bench.setups.Setup`,
drives a workload, and returns plain numbers (milliseconds, Mbps) —
the same quantities the paper's figures plot. All time is simulated
time; determinism comes from the setup seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..workload import (
    ClosedLoopDriver,
    WorkloadSpec,
    fixed_size_writes,
    prepopulate,
)
from .setups import Setup, make_cluster


# ---------------------------------------------------------------------------
# Latency (Fig. 5)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class LatencyPoint:
    setup_label: str
    size: int
    mean_ms: float
    p50_ms: float
    p99_ms: float
    samples: int


def measure_write_latency(
    setup: Setup, size: int, samples: int = 12, deadline: float = 600.0
) -> LatencyPoint:
    """Unloaded write latency for one value size (§6.2.1).

    One client issues ``samples`` sequential writes; latency is measured
    server-side (request arrival to commit), which matches the paper's
    removal of the fixed client<->server cost.
    """
    cluster = make_cluster(setup.with_(num_clients=1))
    client = cluster.clients[0]
    done = {"n": 0}

    def write_next() -> None:
        if done["n"] >= samples:
            return
        done["n"] += 1
        client.put(f"lat-{done['n']}", size, on_done=lambda ok: write_next())

    write_next()
    cluster.run(until=cluster.sim.now + deadline)
    lat = cluster.metrics.latency("write")
    s = lat.summary()
    return LatencyPoint(
        setup_label=setup.label, size=size,
        mean_ms=s.get("mean_ms", float("nan")),
        p50_ms=s.get("p50_ms", float("nan")),
        p99_ms=s.get("p99_ms", float("nan")),
        samples=s.get("count", 0),
    )


# ---------------------------------------------------------------------------
# Write throughput (Fig. 6)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ThroughputPoint:
    setup_label: str
    size: int
    mbps: float
    ops: int


def measure_write_throughput(
    setup: Setup,
    size: int,
    duration: float = 3.0,
    warmup: float = 1.0,
) -> ThroughputPoint:
    """Saturation write throughput for one value size (§6.2.2).

    ``setup.num_clients`` closed-loop clients write continuously;
    goodput is committed client payload bytes over the measurement
    window, in Mbps (the paper's unit).
    """
    cluster = make_cluster(setup)
    spec = fixed_size_writes(size)
    drivers = [
        ClosedLoopDriver(cluster.sim, cl, spec, stream=f"d{i}")
        for i, cl in enumerate(cluster.clients)
    ]
    for d in drivers:
        d.start()
    start = cluster.sim.now + warmup
    end = start + duration
    cluster.run(until=end)
    for d in drivers:
        d.stop()
    meter = cluster.metrics.throughput("write")
    mbps = meter.mbps(start, end)
    ops = sum(1 for t in meter.times if start <= t <= end)
    return ThroughputPoint(setup.label, size, mbps, ops)


# ---------------------------------------------------------------------------
# Macro workloads (Fig. 7)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class MacroPoint:
    setup_label: str
    workload: str
    mbps: float
    read_mbps: float
    write_mbps: float


def measure_macro_throughput(
    setup: Setup,
    spec: WorkloadSpec,
    duration: float = 3.0,
    warmup: float = 1.0,
) -> MacroPoint:
    """Aggregate goodput for one COSBench-style workload (§6.3)."""
    cluster = make_cluster(setup)
    if spec.prepopulate:
        prepopulate(cluster.sim, cluster.clients[0], spec)
    drivers = [
        ClosedLoopDriver(cluster.sim, cl, spec, stream=f"d{i}")
        for i, cl in enumerate(cluster.clients)
    ]
    for d in drivers:
        d.start()
    start = cluster.sim.now + warmup
    end = start + duration
    cluster.run(until=end)
    for d in drivers:
        d.stop()
    r = cluster.metrics.throughput("read").mbps(start, end)
    w = cluster.metrics.throughput("write").mbps(start, end)
    return MacroPoint(setup.label, spec.name, r + w, r, w)


# ---------------------------------------------------------------------------
# Failover timeline (Fig. 8)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class FailoverTimeline:
    setup_label: str
    workload: str
    times: tuple[float, ...]
    mbps: tuple[float, ...]
    crash_times: tuple[float, ...]

    def outage_windows(self, threshold_frac: float = 0.05) -> int:
        """Number of sample windows with throughput ~ zero."""
        peak = max(self.mbps) if self.mbps else 0.0
        return sum(1 for v in self.mbps if v <= peak * threshold_frac)


def measure_failover(
    setup: Setup,
    spec: WorkloadSpec,
    crash_times: tuple[float, ...] = (10.0, 20.0),
    duration: float = 35.0,
    step: float = 1.0,
    client_timeout: float = 1.0,
    auto_reconfigure: bool = False,
) -> FailoverTimeline:
    """Fig. 8: kill the current leader at each crash time; sample
    aggregate goodput per second.

    The victim of each crash is whoever leads at that moment (the paper
    kills R1 at 10 s, then the newly elected R2 at 20 s).
    ``auto_reconfigure`` enables the §6.1 view-change strategy so an
    RS-Paxos group survives the second uncorrelated crash.
    """
    from ..core import LeaseConfig

    cluster = make_cluster(
        setup,
        client_timeout=client_timeout,
        lease_config=LeaseConfig(duration=1.5, max_drift=0.05,
                                 heartbeat_interval=0.4),
        auto_reconfigure=auto_reconfigure,
    )
    if spec.prepopulate:
        prepopulate(cluster.sim, cluster.clients[0], spec)
    t0 = cluster.sim.now
    drivers = [
        ClosedLoopDriver(cluster.sim, cl, spec, stream=f"d{i}")
        for i, cl in enumerate(cluster.clients)
    ]
    for d in drivers:
        d.start()

    def kill_leader() -> None:
        leader = cluster.leader()
        if leader is not None:
            leader.crash()

    for ct in crash_times:
        cluster.sim.call_at(t0 + ct, kill_leader)
    cluster.run(until=t0 + duration)
    for d in drivers:
        d.stop()

    read = cluster.metrics.throughput("read")
    write = cluster.metrics.throughput("write")
    times_r, mbps_r = read.timeseries(t0, t0 + duration, step)
    times_w, mbps_w = write.timeseries(t0, t0 + duration, step)
    if len(times_r) == 0:
        times, total = times_w, mbps_w
    elif len(times_w) == 0:
        times, total = times_r, mbps_r
    else:
        times, total = times_r, mbps_r + mbps_w
    return FailoverTimeline(
        setup_label=setup.label,
        workload=spec.name,
        times=tuple(float(t - t0) for t in times),
        mbps=tuple(float(v) for v in total),
        crash_times=crash_times,
    )
