"""Simulated asynchronous RPC (the paper's §5 RPC module).

Public API:

- :class:`RpcEndpoint` — per-host messaging facade with typed dispatch,
  request/reply with retransmission, IO batching, and per-peer latency
  tracking with adaptive (Jacobson/Karn) retransmit timeouts.
- :class:`PeerStats` — one destination's RTT estimator snapshot.
- :class:`Request`, :class:`Reply`, :class:`Batch` — wire wrappers.
"""

from .endpoint import (
    Batch,
    PeerStats,
    Reply,
    Request,
    RpcEndpoint,
)
from .mux import Channel, ChannelMsg, ChannelMux

__all__ = [
    "Batch",
    "Channel",
    "ChannelMsg",
    "ChannelMux",
    "PeerStats",
    "Reply",
    "Request",
    "RpcEndpoint",
]
