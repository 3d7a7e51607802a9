"""The replicated key-value store built on (RS-)Paxos (paper §4).

Public API:

- :func:`build_cluster` / :class:`Cluster` — assemble a full simulated
  deployment (§6.1 presets).
- :class:`KVServer` — replica server: Paxos groups, local store, leader
  leases, fast/consistent/recovery reads, crash recovery, election.
- :class:`ServerConfig` — every server tunable, validated and frozen.
- :class:`Admission` — the DRR admission pipeline the server drives.
- :class:`ShareFetch` — source ranking and the one ranked, hedged share
  gather behind recovery reads, rebuild serving and scrub repair.
- :class:`Rebuild` — catch-up, snapshot transfer and the rebuild finish line.
- :class:`AppliedOps` — the exactly-once table (applied client op
  identities, as bits) the server consults before applying a command.
- :class:`KVClient` — leader-caching client with redirect handling.
- :class:`ShardMap` — key -> Paxos-group mapping (§4.2): static crc32
  hashing, or versioned key ranges under dynamic sharding (replicated
  through a distinguished config group, with live split/merge).
- message types in :mod:`repro.kvstore.messages`.
"""

from .admission import Admission
from .batch import (
    BatchItem,
    BatchMeta,
    FrameError,
    FramedCommand,
    decode_frame,
    encode_frame,
    frame_size,
)
from .client import KVClient
from .cluster import Cluster, build_cluster
from .config import ServerConfig
from .dedup import AppliedOps
from .messages import (
    Busy,
    CatchUp,
    CatchUpEntry,
    CatchUpReply,
    ClientDelete,
    ClientGet,
    ClientPut,
    Command,
    ConfirmPlacement,
    FetchShare,
    FetchSnapshot,
    GetOk,
    Heartbeat,
    HeartbeatAck,
    InstallShare,
    NewView,
    NotFound,
    NotReady,
    PlacementGaps,
    ProbeSpare,
    PutOk,
    Redirect,
    ShardCmd,
    ShareReply,
    SnapshotChunk,
    SnapshotEntry,
    SpareStatus,
    WrongShard,
)
from .membership import AccrualFailureDetector, RepairController
from .rebuild import Rebuild
from .server import KVServer
from .sharefetch import ShareFetch
from .shard import ShardMap, encode_version, era_of, instance_of

__all__ = [
    "AccrualFailureDetector",
    "Admission",
    "AppliedOps",
    "BatchItem",
    "BatchMeta",
    "Busy",
    "CatchUp",
    "CatchUpEntry",
    "CatchUpReply",
    "ClientDelete",
    "ClientGet",
    "ClientPut",
    "Cluster",
    "Command",
    "ConfirmPlacement",
    "FetchShare",
    "FetchSnapshot",
    "FrameError",
    "FramedCommand",
    "GetOk",
    "Heartbeat",
    "HeartbeatAck",
    "InstallShare",
    "KVClient",
    "KVServer",
    "NewView",
    "NotFound",
    "NotReady",
    "PlacementGaps",
    "ProbeSpare",
    "PutOk",
    "Rebuild",
    "Redirect",
    "RepairController",
    "ServerConfig",
    "ShardCmd",
    "ShardMap",
    "ShareFetch",
    "ShareReply",
    "SnapshotChunk",
    "SnapshotEntry",
    "SpareStatus",
    "WrongShard",
    "build_cluster",
    "decode_frame",
    "encode_frame",
    "encode_version",
    "era_of",
    "frame_size",
    "instance_of",
]
