"""The simulated network: hosts, NIC queues, delivery, fault injection.

Semantics follow the paper's partial-asynchrony model (§3.1): messages
may be delayed, duplicated, or lost; a message between two live,
unpartitioned hosts that is retransmitted repeatedly eventually gets
through (the RPC layer owns retransmission).

Crashes are modeled at the host level: a crashed host neither sends nor
receives, and messages in flight toward it are discarded on arrival.
Recovery restores connectivity but **not volatile state** — that is the
job of the durable-storage layer (:mod:`repro.storage`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable

from ..sim import FifoResource, Simulator, Tracer, NULL_TRACER
from .link import LOOPBACK, LinkSpec
from .message import HEADER_BYTES, Envelope

Handler = Callable[[Envelope], None]

#: Jitter values drawn per refill of a directed pair's block. Small: a
#: cluster has hundreds of pairs and most carry little traffic.
JITTER_BLOCK = 16


class Host:
    """A network endpoint with egress/ingress NIC queues."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.egress = FifoResource(sim, f"{name}.egress")
        self.ingress = FifoResource(sim, f"{name}.ingress")
        self.handler: Handler | None = None
        self.up = True
        # Byte accounting for the cost analyses.
        self.bytes_sent = 0
        self.bytes_received = 0

    def crash(self) -> None:
        self.up = False

    def recover(self) -> None:
        self.up = True


class Network:
    """Registry of hosts + pairwise link specs + fault switches."""

    def __init__(
        self,
        sim: Simulator,
        default_link: LinkSpec,
        tracer: Tracer = NULL_TRACER,
    ):
        self.sim = sim
        self.default_link = default_link
        self.tracer = tracer
        self.hosts: dict[str, Host] = {}
        self._links: dict[tuple[str, str], LinkSpec] = {}
        # Directed pair -> set of episode tokens that currently claim
        # the cut. A pair is blocked while *any* token claims it; a
        # scoped heal removes one token's claims without resurrecting
        # links severed by a different, still-active episode.
        self._blocked: dict[tuple[str, str], set[str]] = {}
        # Global impairment knobs, added on top of each link's own
        # loss/dup probabilities (chaos "loss-burst" episodes).
        self.extra_loss_prob = 0.0
        self.extra_dup_prob = 0.0
        # Per-host NIC degradation (chaos "slow-node" episodes): the
        # gray-failure half of a slow-but-alive node. A factor > 1
        # multiplies the host's egress AND ingress serialization time —
        # the node stays reachable, it just drains its NIC queues
        # slowly. Factor 1.0 removes the entry.
        self._nic_slowdown: dict[str, float] = {}
        # Directed pair -> pre-drawn jitter values (see _refill_jitter).
        self._jitter_blocks: dict[tuple[str, str], list[float]] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self._msg_seq = 0

    # -- topology -------------------------------------------------------

    def add_host(self, name: str, handler: Handler | None = None) -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host {name!r}")
        host = Host(self.sim, name)
        host.handler = handler
        self.hosts[name] = host
        return host

    def set_handler(self, name: str, handler: Handler) -> None:
        self.hosts[name].handler = handler

    def set_link(self, src: str, dst: str, spec: LinkSpec) -> None:
        """Override the link spec for the directed pair (src, dst).

        Jitter already drawn for the pair under its previous spec is
        discarded: the next message draws afresh at the new width.
        """
        self._links[(src, dst)] = spec
        self._jitter_blocks.pop((src, dst), None)

    def link(self, src: str, dst: str) -> LinkSpec:
        if src == dst:
            return LOOPBACK
        return self._links.get((src, dst), self.default_link)

    # -- fault injection --------------------------------------------------

    def block(self, src: str, dst: str, token: str = "") -> None:
        """Partition the directed pair: messages are dropped.

        ``token`` names the partition episode installing the cut, so
        :meth:`heal` can later remove exactly this episode's cuts. The
        default anonymous token keeps the legacy block/unblock API
        working unchanged.
        """
        self._blocked.setdefault((src, dst), set()).add(token)

    def unblock(self, src: str, dst: str, token: str | None = None) -> None:
        """Remove the directed cut (entirely, or one episode's claim)."""
        claims = self._blocked.get((src, dst))
        if claims is None:
            return
        if token is None:
            del self._blocked[(src, dst)]
            return
        claims.discard(token)
        if not claims:
            del self._blocked[(src, dst)]

    def is_blocked(self, src: str, dst: str) -> bool:
        """True while any active episode severs the directed pair."""
        return (src, dst) in self._blocked

    def partition(
        self, group_a: list[str], group_b: list[str], token: str = ""
    ) -> None:
        """Symmetric partition between two host groups."""
        for a in group_a:
            for b in group_b:
                self.block(a, b, token)
                self.block(b, a, token)

    def sever(self, src: str, dst: str, token: str = "") -> None:
        """Asymmetric one-way cut: ``src``'s messages to ``dst`` drop,
        the reverse direction stays healthy."""
        self.block(src, dst, token)

    def sever_group(
        self, src_group: list[str], dst_group: list[str], token: str = ""
    ) -> None:
        """One-way group cut: every ``src_group`` -> ``dst_group``
        message drops; replies still flow."""
        for a in src_group:
            for b in dst_group:
                self.block(a, b, token)

    def heal(self, token: str | None = None) -> None:
        """Remove partitions.

        With no argument this is the explicit heal-all: every cut from
        every episode is lifted. With a ``token`` only the cuts claimed
        by that episode are removed; pairs also severed by another
        still-active episode stay blocked.
        """
        if token is None:
            self._blocked.clear()
            return
        for pair in list(self._blocked):
            self.unblock(*pair, token=token)

    def crash_host(self, name: str) -> None:
        self.hosts[name].crash()
        self.tracer.emit(self.sim.now, "net", f"crash {name}")

    def recover_host(self, name: str) -> None:
        self.hosts[name].recover()
        self.tracer.emit(self.sim.now, "net", f"recover {name}")

    def set_nic_slowdown(self, name: str, factor: float) -> None:
        """Degrade (factor > 1) or restore (factor == 1) one host's NIC.

        Models a gray failure: serialization through ``name``'s egress
        and ingress queues takes ``factor`` times longer, so the host
        falls behind under load while still answering every probe.
        """
        if factor < 1.0:
            raise ValueError("NIC slowdown factor must be >= 1")
        if name not in self.hosts:
            raise KeyError(f"unknown host {name!r}")
        if factor == 1.0:
            self._nic_slowdown.pop(name, None)
        else:
            self._nic_slowdown[name] = factor
        self.tracer.emit(self.sim.now, "net", f"nic-slowdown {name} x{factor}")

    def set_impairment(self, loss_prob: float, dup_prob: float = 0.0) -> None:
        """Degrade (or restore, with zeros) every link at once.

        The probabilities are *added* to each link's own ``loss_prob`` /
        ``dup_prob`` and clamped to 1. Retransmission still guarantees
        eventual delivery as long as the combined loss stays below 1.
        """
        if not (0.0 <= loss_prob <= 1.0 and 0.0 <= dup_prob <= 1.0):
            raise ValueError("impairment probabilities must be in [0, 1]")
        self.extra_loss_prob = loss_prob
        self.extra_dup_prob = dup_prob
        self.tracer.emit(
            self.sim.now, "net", f"impairment loss={loss_prob} dup={dup_prob}"
        )

    # -- data path --------------------------------------------------------

    def send(self, src: str, dst: str, payload: Any, size: int) -> None:
        """Transmit one message; delivery (if any) is asynchronous.

        ``size`` is the modeled payload size in bytes; the fixed header
        overhead is added internally.

        A wire message costs two scheduled events: its arrival at the
        receiver's NIC and its delivery once the ingress queue has
        serialized it. The egress queue is FIFO, so the time the message
        clears the sender's NIC is known here, and loss, duplication and
        jitter are drawn here too — each pair's RNG streams still see
        one draw per message in the order the messages leave the NIC.
        """
        if size < 0:
            raise ValueError("negative message size")
        sender = self.hosts[src]
        if not sender.up:
            return  # a crashed host sends nothing
        self._msg_seq += 1
        env = Envelope(src, dst, payload, size, self._msg_seq)

        if src == dst:
            # Loopback: deliver at the current instant, preserving FIFO.
            # Never touches the NIC, so it does not count as wire traffic
            # (the paper's leader keeps its own share locally).
            self.sim.call_soon(lambda: self._deliver(env))
            return

        self.messages_sent += 1
        wire = size + HEADER_BYTES
        sender.bytes_sent += wire
        pair = (src, dst)
        spec = self._links.get(pair) or self.default_link

        # NIC serialization: ``spec.serialization_time(wire)``, inlined
        # (÷ inf is 0.0). Paid at the egress queue here (shared per
        # host) and again at the receiver's ingress queue on arrival.
        ser = wire * 8 / spec.bandwidth_bps
        slow = self._nic_slowdown  # empty outside slow-node chaos
        sent = sender.egress.reserve(ser * slow.get(src, 1.0) if slow else ser)

        # Loss / duplication coin flips, per directed pair stream. With
        # all four probabilities zero (every run but the lossy ones)
        # there is nothing to clamp and nothing to draw; when any is
        # non-zero the draws are the ones below, in this order.
        duplicated = False
        if (spec.loss_prob or spec.dup_prob
                or self.extra_loss_prob or self.extra_dup_prob):
            rng = self.sim.rng
            loss_prob = min(1.0, spec.loss_prob + self.extra_loss_prob)
            if loss_prob > 0.0 and rng.choice_prob(
                f"net.loss.{src}->{dst}", loss_prob
            ):
                self.messages_dropped += 1
                self.tracer.emit(
                    self.sim.now, "net", f"lost {src}->{dst} #{env.msg_id}")
                return
            dup_prob = min(1.0, spec.dup_prob + self.extra_dup_prob)
            duplicated = dup_prob > 0.0 and rng.choice_prob(
                f"net.dup.{src}->{dst}", dup_prob
            )
        for copy in (env, replace(env, dup=True)) if duplicated else (env,):
            delay = spec.delay_s
            if spec.jitter_s > 0:
                block = self._jitter_blocks.get(pair) or self._refill_jitter(
                    pair, spec.jitter_s)
                delay += block.pop()
            self.sim.call_at(sent + delay, lambda e=copy: self._arrive(e, ser))

    def _refill_jitter(
        self, pair: tuple[str, str], half_width: float
    ) -> list[float]:
        """Refill the pair's block of uniform ``±half_width`` jitter
        draws; ``send`` pops them from the end, in draw order.

        Drawn ``JITTER_BLOCK`` at a time: one vectorized
        ``Generator.uniform`` call yields exactly the values the same
        number of scalar calls would, at a fraction of the per-call cost.
        """
        stream = self.sim.rng.stream(f"net.jitter.{pair[0]}->{pair[1]}")
        block = stream.uniform(-half_width, half_width, JITTER_BLOCK).tolist()
        block.reverse()
        self._jitter_blocks[pair] = block
        return block

    def _arrive(self, env: Envelope, ser: float) -> None:
        slow = self._nic_slowdown
        if slow:
            ser *= slow.get(env.dst, 1.0)
        self.hosts[env.dst].ingress.submit(ser, lambda: self._deliver(env))

    def _deliver(self, env: Envelope) -> None:
        receiver = self.hosts[env.dst]
        if not receiver.up or (env.src, env.dst) in self._blocked:
            self.messages_dropped += 1
            return
        if env.src != env.dst:
            self.messages_delivered += 1
            receiver.bytes_received += env.size + HEADER_BYTES
        if self.tracer.enabled:
            self.tracer.emit(
                self.sim.now, "net",
                f"deliver {env.src}->{env.dst} #{env.msg_id} "
                f"{type(env.payload).__name__} {env.size}B",
            )
        if receiver.handler is not None:
            receiver.handler(env)

    # -- accounting -------------------------------------------------------

    def total_bytes_sent(self) -> int:
        return sum(h.bytes_sent for h in self.hosts.values())
