"""The replicated key-value store built on (RS-)Paxos (paper §4).

Public API:

- :func:`build_cluster` / :class:`Cluster` — assemble a full simulated
  deployment (§6.1 presets).
- :class:`KVServer` — replica server: Paxos groups, local store, leader
  leases, crash recovery, election.
- :class:`ReadPath` — the four read modes, the election read barrier and
  the recovery read's second-hit rule.
- :class:`ServerConfig` — every server tunable, validated and frozen.
- :class:`Admission` — the DRR admission pipeline the server drives.
- :class:`ShareFetch` — source ranking and the one ranked, hedged share
  gather behind recovery reads, rebuild serving and scrub repair.
- :class:`Rebuild` — catch-up, snapshot transfer and the rebuild finish line.
- :class:`Reconfig` — the one driver of view changes and shard migrations.
- :class:`Checkpointer` — a server's checkpoints and what they hold.
- :class:`Scrubber` — bit rot, scrub passes and share repair.
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
from .checkpointer import Checkpointer
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
    WhoLeads,
    WrongShard,
)
from .membership import AccrualFailureDetector, RepairController
from .reads import ReadPath
from .rebuild import Rebuild
from .reconfig import Reconfig
from .scrubber import Scrubber
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
    "Checkpointer",
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
    "ReadPath",
    "Rebuild",
    "Reconfig",
    "Redirect",
    "RepairController",
    "Scrubber",
    "ServerConfig",
    "ShardCmd",
    "ShardMap",
    "ShareFetch",
    "ShareReply",
    "SnapshotChunk",
    "SnapshotEntry",
    "SpareStatus",
    "WhoLeads",
    "WrongShard",
    "build_cluster",
    "decode_frame",
    "encode_frame",
    "encode_version",
    "era_of",
    "frame_size",
    "instance_of",
]
