"""Link model: bandwidth serialization, propagation delay, impairments.

The model per directed host pair (the "link" is logical; contention
happens at the NICs):

1. The sender's egress NIC serializes the message at
   ``wire_size / egress_bw`` — one shared queue per host, which is
   exactly the leader-side bottleneck the paper's throughput results
   hinge on (a Paxos leader pushes N-1 full copies through one NIC).
2. The message then propagates for ``delay_s ± jitter`` seconds.
3. The receiver's ingress NIC serializes it again at
   ``wire_size / ingress_bw`` (models incast at a recovering leader).

Loss and duplication are Bernoulli per message, drawn from named RNG
substreams so experiments are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf


@dataclass(frozen=True, slots=True)
class LinkSpec:
    """Parameters of a directed network path between two hosts.

    Attributes
    ----------
    delay_s:
        One-way propagation delay in seconds (before jitter).
    jitter_s:
        Uniform jitter half-width; the actual delay for each message is
        drawn from ``delay_s ± jitter_s``.
    bandwidth_bps:
        Link speed in bits/second; used for NIC serialization at both
        ends. ``float('inf')`` disables serialization cost.
    loss_prob:
        Probability a message is silently dropped.
    dup_prob:
        Probability a message is delivered twice.
    """

    delay_s: float = 0.0001
    jitter_s: float = 0.0
    bandwidth_bps: float = 1e9
    loss_prob: float = 0.0
    dup_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.delay_s < 0 or self.jitter_s < 0:
            raise ValueError("delay/jitter must be non-negative")
        if self.jitter_s > self.delay_s:
            raise ValueError("jitter larger than base delay would allow negative delays")
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 <= self.loss_prob <= 1.0 or not 0.0 <= self.dup_prob <= 1.0:
            raise ValueError("probabilities must be in [0, 1]")

    def serialization_time(self, nbytes: int) -> float:
        """Seconds the NIC is occupied transmitting ``nbytes``.

        ``Network.send`` inlines this expression on its per-message path
        (``tests/net/test_net_properties.py`` holds the two bit-equal).
        """
        if self.bandwidth_bps == inf:
            return 0.0
        return nbytes * 8 / self.bandwidth_bps


#: LAN preset approximating the paper's EC2 us-east-1 cluster:
#: gigabit Ethernet, ~100 µs one-way delay.
LAN = LinkSpec(delay_s=0.0001, jitter_s=0.00005, bandwidth_bps=1e9)

#: WAN preset from §6.1: 50 ± 10 ms one-way netem delay (100 ± 20 ms
#: RTT) and bandwidth capped at 500 Mbps.
WAN = LinkSpec(delay_s=0.050, jitter_s=0.010, bandwidth_bps=500e6)

#: Loopback: messages a host sends to itself skip NIC and propagation.
LOOPBACK = LinkSpec(delay_s=0.0, jitter_s=0.0, bandwidth_bps=float("inf"))
