"""Channel multiplexing: many logical endpoints over one host NIC.

A server hosts many Paxos groups (the paper runs 100, §6.1), and all of
them must share the server's NIC so that the leader-side bandwidth
bottleneck is modeled faithfully. :class:`ChannelMux` wraps one
:class:`~repro.rpc.RpcEndpoint` and hands out :class:`Channel` facades,
each with the same messaging surface as the endpoint but scoped by a
channel key (e.g. the group id). Every Paxos group gets its own channel;
all traffic still funnels through the one underlying host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable

from .endpoint import Batch, RpcEndpoint


@dataclass(slots=True)
class ChannelMsg:
    """Wire wrapper: a payload scoped to a channel key."""

    key: Hashable
    body: Any


class Channel:
    """Endpoint facade scoped to one channel key.

    Implements the subset of the :class:`RpcEndpoint` API the protocol
    layer uses (``name``, ``on``, ``on_request_async``, ``send``,
    ``request``, ``cancel_request``), so a :class:`~repro.core.PaxosNode`
    can be constructed over a channel exactly as over a bare endpoint.
    """

    def __init__(self, mux: "ChannelMux", key: Hashable):
        self._mux = mux
        self.key = key
        self.name = mux.endpoint.name
        self._handlers: dict[type, Callable[[Any, str], None]] = {}
        self._async_request_handlers: dict[
            type, Callable[[Any, str, Callable[[Any, int], None]], None]
        ] = {}

    def on(self, msg_type: type, handler: Callable[[Any, str], None]) -> None:
        self._handlers[msg_type] = handler

    def on_request_async(
        self,
        msg_type: type,
        handler: Callable[[Any, str, Callable[[Any, int], None]], None],
    ) -> None:
        self._async_request_handlers[msg_type] = handler

    def send(self, dst: str, body: Any, size: int) -> None:
        self._mux.endpoint.send(dst, ChannelMsg(self.key, body), size)

    def request(
        self,
        dst: str,
        body: Any,
        size: int,
        on_reply: Callable[[Any], None],
        timeout: float = 0.5,
        retries: int = -1,
        on_timeout: Callable[[], None] | None = None,
        adaptive: bool = False,
    ) -> int:
        return self._mux.endpoint.request(
            dst, ChannelMsg(self.key, body), size,
            on_reply=on_reply, timeout=timeout,
            retries=retries, on_timeout=on_timeout,
            adaptive=adaptive,
        )

    def cancel_request(self, req_id: int) -> None:
        self._mux.endpoint.cancel_request(req_id)

    def peer_stats(self, dst: str):
        """Latency snapshot for ``dst`` (shared across all channels —
        the RTT estimator lives on the underlying host endpoint)."""
        return self._mux.endpoint.peer_stats(dst)

    def rto(self, dst: str, fallback: float) -> float:
        return self._mux.endpoint.rto(dst, fallback)


class ChannelMux:
    """Demultiplexes :class:`ChannelMsg` traffic to channels by key."""

    def __init__(self, endpoint: RpcEndpoint):
        self.endpoint = endpoint
        self._channels: dict[Hashable, Channel] = {}
        endpoint.on(ChannelMsg, self._on_oneway)
        endpoint.on_request_async(ChannelMsg, self._on_request)

    def channel(self, key: Hashable) -> Channel:
        ch = self._channels.get(key)
        if ch is None:
            ch = self._channels[key] = Channel(self, key)
        return ch

    def _on_oneway(self, msg: ChannelMsg, src: str) -> None:
        ch = self._channels.get(msg.key)
        if ch is None:
            return
        bodies = msg.body.items if isinstance(msg.body, Batch) else [msg.body]
        for body in bodies:
            handler = ch._handlers.get(type(body))
            if handler is not None:
                handler(body, src)

    def _on_request(
        self, msg: ChannelMsg, src: str, respond: Callable[[Any, int], None]
    ) -> None:
        ch = self._channels.get(msg.key)
        if ch is None:
            return  # unknown channel: no reply; sender retransmits
        handler = ch._async_request_handlers.get(type(msg.body))
        if handler is not None:
            handler(msg.body, src, respond)
