"""Cluster assembly: the §6.1 deployments in one call.

Builds a full simulated deployment — N server hosts, any number of
client hosts, the shared metric set, and the fault scheduler — for a
given protocol configuration, link preset (LAN/WAN) and disk class
(HDD/SSD).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..net import (
    FaultSchedule,
    LinkSpec,
    Network,
    build_network,
    client_names,
    server_names,
)
from ..sim import MetricSet, NULL_TRACER, Simulator, Tracer
from ..storage import DiskSpec, SSD
from .client import KVClient
from .config import ServerConfig
from .server import KVServer
from .shard import ShardMap


@dataclass
class Cluster:
    """A fully wired simulated deployment."""

    sim: Simulator
    net: Network
    servers: list[KVServer]
    clients: list[KVClient]
    shard_map: ShardMap
    metrics: MetricSet
    faults: FaultSchedule
    tracer: Tracer = field(default_factory=lambda: NULL_TRACER)

    def start(self) -> None:
        for s in self.servers:
            s.start()

    def leader(self) -> KVServer | None:
        for s in self.servers:
            if s.is_leader_server and s.up:
                return s
        return None

    def crash_server(self, idx: int) -> None:
        self.servers[idx].crash()

    def recover_server(self, idx: int) -> None:
        self.servers[idx].recover()

    def wipe_server(self, idx: int) -> None:
        """Crash a server AND destroy its disk (WAL + checkpoint)."""
        self.servers[idx].wipe()

    def run(self, until: float) -> None:
        self.sim.run(until=until)


def build_cluster(
    config,
    num_servers: int | None = None,
    num_clients: int = 1,
    num_groups: int = 4,
    link: LinkSpec | None = None,
    disk: DiskSpec = SSD,
    seed: int = 0,
    client_timeout: float = 2.0,
    client_tenants: list[str] | None = None,
    shard_ranges: tuple[str, ...] | list[str] | None = None,
    trace: bool = False,
    server: ServerConfig | None = None,
    **knobs,
) -> Cluster:
    """Wire up a complete cluster.

    ``config`` is a :class:`~repro.core.ProtocolConfig` (its N fixes the
    server count unless overridden). Clock offsets are drawn
    deterministically within ±δ/2 to exercise the lease drift bound.

    Server policy is one :class:`ServerConfig`: pass it as ``server``,
    and/or override single fields as keyword arguments
    (``batch_max_commands=4``); an unknown knob is a ``TypeError``, an
    illegal combination a ``ValueError``.

    ``client_tenants`` assigns a QoS tenant tag to each client (same
    order as the clients; shorter lists leave the rest untagged).

    Under ``dynamic_shards`` ``num_groups`` is the size of the
    data-group pool, and the bootstrap map either gives group 0 the
    whole keyspace (the default, spares await splits) or is cut at
    ``shard_ranges`` boundaries.
    """
    cfg = replace(server or ServerConfig(), **knobs)
    if shard_ranges and not cfg.dynamic_shards:
        raise ValueError("shard_ranges does nothing without dynamic_shards")
    n = num_servers or config.n
    if n != config.n:
        raise ValueError(f"server count {n} != protocol N={config.n}")
    sim = Simulator(seed=seed)
    tracer = Tracer() if trace else NULL_TRACER
    snames = server_names(n)
    cnames = client_names(num_clients)
    net = build_network(
        sim, snames + cnames, link or LinkSpec(delay_s=0.0001, jitter_s=0.00005),
        tracer,
    )
    metrics = MetricSet()
    if cfg.dynamic_shards:
        shard_map = (
            ShardMap.from_boundaries(num_groups, shard_ranges)
            if shard_ranges
            else ShardMap.single_range(num_groups)
        )
    else:
        shard_map = ShardMap(num_groups)
    max_drift = cfg.lease_config.max_drift
    peers = dict(enumerate(snames))
    drift_rng = sim.rng.stream("clock.drift")
    servers = [
        KVServer(
            sim, net, name, i, peers, config, cfg,
            disk_spec=disk, shard_map=shard_map,
            clock_offset=float(drift_rng.uniform(-max_drift / 2, max_drift / 2)),
            tracer=tracer, metrics=metrics,
        )
        for i, name in enumerate(snames)
    ]
    tenants = list(client_tenants or [])
    tenants += [""] * (len(cnames) - len(tenants))
    clients = [
        KVClient(
            sim, net, name, snames, timeout=client_timeout,
            metrics=metrics, tenant=tenants[i],
        )
        for i, name in enumerate(cnames)
    ]
    faults = FaultSchedule(sim, net)
    return Cluster(
        sim=sim, net=net, servers=servers, clients=clients,
        shard_map=shard_map, metrics=metrics, faults=faults, tracer=tracer,
    )
