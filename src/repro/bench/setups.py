"""Named experiment setups matching §6.1.

Every evaluation point in the paper is a combination of:

- protocol: ``paxos`` (majority, full copy) or ``rs-paxos`` (Q=4,
  θ(3, 5) at N=5);
- environment: ``lan`` (1 Gbps local cluster) or ``wan`` (500 Mbps,
  50 ± 10 ms one-way);
- disk: ``hdd`` (~100 IOPS EBS) or ``ssd`` (~4000 IOPS EBS).

:func:`make_cluster` builds the corresponding simulated deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core import classic_paxos, rs_paxos
from ..kvstore import Cluster, build_cluster
from ..net import LAN, WAN, LinkSpec
from ..storage import DiskSpec, HDD, SSD

PROTOCOLS = ("paxos", "rs-paxos")
ENVS = ("lan", "wan")
DISKS = ("hdd", "ssd")


@dataclass(frozen=True, slots=True)
class Setup:
    """One evaluation configuration."""

    protocol: str = "rs-paxos"
    env: str = "lan"
    disk: str = "ssd"
    n: int = 5
    f: int = 1  # RS-Paxos fault tolerance target (ignored for paxos)
    num_groups: int = 8
    num_clients: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.env not in ENVS:
            raise ValueError(f"unknown environment {self.env!r}")
        if self.disk not in DISKS:
            raise ValueError(f"unknown disk {self.disk!r}")

    @property
    def label(self) -> str:
        proto = "Paxos" if self.protocol == "paxos" else "RS-Paxos"
        return f"{proto}.{self.disk.upper()}"

    def protocol_config(self):
        if self.protocol == "paxos":
            return classic_paxos(self.n)
        return rs_paxos(self.n, self.f)

    def link_spec(self) -> LinkSpec:
        return LAN if self.env == "lan" else WAN

    def disk_spec(self) -> DiskSpec:
        return HDD if self.disk == "hdd" else SSD

    def with_(self, **kw) -> "Setup":
        return replace(self, **kw)


def make_cluster(
    setup: Setup,
    client_timeout: float = 60.0,
    rpc_timeout: float | None = None,
    settle: float = 0.5,
    **kw,
) -> Cluster:
    """Build and start a cluster for a setup; ``kw`` goes to
    :func:`build_cluster` (a ``server=ServerConfig(...)`` and/or single
    server knobs).

    ``client_timeout`` defaults high: in saturation experiments queueing
    delay is real, and a spurious client timeout would re-issue (and
    double-count) the operation. Failover experiments pass something
    small instead.
    """
    cluster = build_cluster(
        setup.protocol_config(),
        num_clients=setup.num_clients,
        num_groups=setup.num_groups,
        link=setup.link_spec(),
        disk=setup.disk_spec(),
        seed=setup.seed,
        rpc_timeout=rpc_timeout
        if rpc_timeout is not None
        else (30.0 if setup.env == "lan" else 60.0),
        client_timeout=client_timeout,
        **kw,
    )
    cluster.start()
    cluster.run(until=cluster.sim.now + settle)
    return cluster
