"""Client-server and server-server messages of the KV store (§4.4-4.5)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core import CodedShare
from .dedup import AppliedDelta

#: Fixed request/reply metadata size in bytes.
KV_META = 32


# ---------------------------------------------------------------------------
# Client -> server
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ClientPut:
    """Write (also covers insert, §4.4: "insert ... treated as regular
    writes").

    ``client``/``op_id`` identify the operation for exactly-once apply:
    a retried put that already committed must not commit again. They
    ride inside the KV_META budget, as does ``tenant`` — the QoS tag
    the leader's fair-queueing admission control schedules by ("" =
    untagged, a plain single-tenant client).
    """

    key: str
    size: int
    data: bytes | None = None
    client: str = ""
    op_id: int = 0
    tenant: str = ""
    map_version: int = 0  # highest shard-map version the client has seen

    @property
    def wire_bytes(self) -> int:
        return KV_META + len(self.key) + self.size


@dataclass(frozen=True, slots=True)
class ClientGet:
    """Read. ``mode`` is "fast" / "consistent" / "snapshot" (§4.4) or
    "follower" — a linearizable read served by ANY replica via a
    read-index round to the leader (zero proposals; the leader itself
    answers it as a §4.3 lease fast read). ``tenant`` tags consistent
    reads for the admission scheduler (the other modes bypass admission
    and ignore it)."""

    key: str
    mode: str = "fast"
    tenant: str = ""
    map_version: int = 0

    @property
    def wire_bytes(self) -> int:
        return KV_META + len(self.key)


@dataclass(frozen=True, slots=True)
class ClientDelete:
    """Delete = write(key, NULL) (§4.4)."""

    key: str
    client: str = ""
    op_id: int = 0
    tenant: str = ""
    map_version: int = 0

    @property
    def wire_bytes(self) -> int:
        return KV_META + len(self.key)


@dataclass(frozen=True, slots=True)
class WhoLeads:
    """Which server leads? A client that suspects the server it is
    waiting on asks a peer; the answer is a :class:`Redirect` naming
    the leader (a leader names itself). A down server says nothing."""

    @property
    def wire_bytes(self) -> int:
        return KV_META


# ---------------------------------------------------------------------------
# Server -> client replies
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class PutOk:
    key: str
    map_version: int = 0  # piggyback: the server's shard-map version

    @property
    def wire_bytes(self) -> int:
        return KV_META


@dataclass(frozen=True, slots=True)
class GetOk:
    key: str
    size: int
    data: bytes | None = None
    map_version: int = 0

    @property
    def wire_bytes(self) -> int:
        return KV_META + self.size


@dataclass(frozen=True, slots=True)
class NotFound:
    key: str
    map_version: int = 0

    @property
    def wire_bytes(self) -> int:
        return KV_META


@dataclass(frozen=True, slots=True)
class WrongShard:
    """The client's piggybacked shard-map version is *newer* than this
    server's: the server would route the key with a stale map (e.g. a
    follower that has not yet applied a migration commit a previous
    reply already told the client about). The client backs off briefly
    and rotates; ``map_version`` is the server's current version so
    telemetry can see how far behind it was."""

    key: str
    map_version: int = 0

    @property
    def wire_bytes(self) -> int:
        return KV_META


@dataclass(frozen=True, slots=True)
class Redirect:
    """This server is not the leader; try ``leader_hint`` (may be None
    while leadership is unsettled)."""

    leader_hint: str | None

    @property
    def wire_bytes(self) -> int:
        return KV_META


@dataclass(frozen=True, slots=True)
class NotReady:
    """Leadership transition in progress; retry shortly."""

    @property
    def wire_bytes(self) -> int:
        return KV_META


@dataclass(frozen=True, slots=True)
class Busy:
    """Load shed: the leader's proposal pipeline and admission queue
    are full. An explicit reply, not a silent drop — the client folds
    ``retry_after`` (the server's estimate of when capacity frees up)
    into its backoff instead of blind-retrying into the storm."""

    retry_after: float = 0.05

    @property
    def wire_bytes(self) -> int:
        return KV_META


# ---------------------------------------------------------------------------
# Server <-> server
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Heartbeat:
    """Leader lease renewal (§4.3).

    ``ballot`` is the sender's leadership ballot: followers only renew
    their vacancy timer (and ack) for the highest-ballot leader they
    have heard from, so a deposed leader cannot keep its lease alive.
    ``seq`` lets the leader tell which send round an ack answers, which
    is what anchors the lease at that round's send time.
    ``view_epoch`` piggybacks the leader's membership epoch: a follower
    that hears a higher epoch than its own missed a view-change commit
    (e.g. it was re-admitted after its copy of the view log was
    compacted away) and catches up.
    """

    leader_id: int
    seq: int = 0
    ballot: Any = None
    view_epoch: int = 0

    @property
    def wire_bytes(self) -> int:
        return KV_META


@dataclass(frozen=True, slots=True)
class HeartbeatAck:
    """Follower liveness signal back to the leader; feeds the optional
    auto-reconfiguration of §6.1 (drop a member that stays silent)."""

    follower_id: int
    seq: int = 0

    @property
    def wire_bytes(self) -> int:
        return KV_META


@dataclass(frozen=True, slots=True)
class PreVote:
    """Pre-vote probe: "does the leader look dead to you too?"

    Sent by a follower whose vacancy timer lapsed, *before* it bumps a
    real ballot. No acceptor state changes on either side — a granted
    pre-vote is a stateless opinion, so a one-way-deaf follower probing
    forever disrupts nothing. ``round`` matches replies to the probe
    round that asked (stale replies are dropped).
    """

    candidate_id: int
    round: int = 0

    @property
    def wire_bytes(self) -> int:
        return KV_META


@dataclass(frozen=True, slots=True)
class PreVoteReply:
    """Pre-vote verdict: granted only if this voter's own vacancy timer
    has lapsed as well (leader stickiness — a follower that still hears
    the leader refuses)."""

    voter_id: int
    round: int = 0
    granted: bool = False

    @property
    def wire_bytes(self) -> int:
        return KV_META


@dataclass(frozen=True, slots=True)
class ReadIndex:
    """Follower -> leader: "what must I have applied before serving a
    linearizable local read of ``key``?"

    One round, zero proposals. The leader answers for the groups *its*
    shard map says the key depends on (``ReadPath.wait_groups``), and
    only while its lease is valid *and* its apply cursor has passed its
    election read barrier in each — the conditions that gate its own
    fast reads — so the returned frontier covers every write any leader
    could have acknowledged before the reply was sent, whatever map the
    follower holds.
    """

    key: str

    @property
    def wire_bytes(self) -> int:
        return KV_META


@dataclass(frozen=True, slots=True)
class ReadIndexReply:
    """``frontier`` is ``((group, index), ...)``: for each group the
    read waits on, the highest instance the leader has applied; the
    follower serves its read once its own apply cursor passes every
    one. ``ok=False`` means the responder cannot vouch (not the leader,
    lease expired, or mid-election) and the follower must retry."""

    frontier: tuple[tuple[int, int], ...] = ()
    ok: bool = False

    @property
    def wire_bytes(self) -> int:
        return KV_META


@dataclass(frozen=True, slots=True)
class FetchShare:
    """Ask a peer for its accepted coded share of an instance.

    ``reason`` distinguishes recovery reads (§4.4, ``"read"``) from
    scrub repair traffic (``"scrub"``) so the serving side can account
    them separately; the reply semantics are identical. Peers never
    serve checksum-corrupt shares — if their stored copy rotted but
    they hold the full value, they answer with a fragment re-coded for
    the requester instead.
    """

    group: int
    instance: int
    value_id: str
    reason: str = "read"

    @property
    def wire_bytes(self) -> int:
        return KV_META


@dataclass(frozen=True, slots=True)
class ShareReply:
    share: CodedShare | None

    @property
    def wire_bytes(self) -> int:
        return KV_META + (self.share.size if self.share is not None else 0)


@dataclass(frozen=True, slots=True)
class CatchUp:
    """Recovered server asks a peer for missed decisions (§4.5).

    ``max_entries``/``max_bytes`` cap the reply so a far-behind follower
    pulls the backlog as a paced sequence of bounded messages instead of
    one unbounded blob (which would distort the NIC serialization
    model); the responder sets ``next_from`` on the reply when there is
    more.
    """

    group: int
    from_instance: int
    max_entries: int = 64
    max_bytes: int = 256 * 1024

    @property
    def wire_bytes(self) -> int:
        return KV_META


@dataclass(frozen=True, slots=True)
class CatchUpEntry:
    instance: int
    value_id: str
    value_size: int
    meta: Any
    share: CodedShare | None  # re-coded for the recovering node


@dataclass(frozen=True, slots=True)
class CatchUpReply:
    """``next_from``: continuation cursor when the reply hit its entry
    or byte budget (None = nothing further at the responder).

    ``floor``: the responder's compaction floor for the group — every
    instance below it has been folded into a checkpoint and can no
    longer be served entry-by-entry. A requester whose cursor is below
    a peer's floor must switch to snapshot transfer (FetchSnapshot).
    """

    group: int
    entries: tuple[CatchUpEntry, ...] = field(default_factory=tuple)
    next_from: int | None = None
    floor: int = 0

    @property
    def wire_bytes(self) -> int:
        return KV_META + sum(
            KV_META + (e.share.size if e.share is not None else 0)
            for e in self.entries
        )


@dataclass(frozen=True, slots=True)
class FetchSnapshot:
    """Rebuilding server asks a peer to stream its checkpointed KV
    state for one group (InstallSnapshot-style, §4.5 extended).

    Used when the requester's apply cursor is below the peer's
    compaction floor — the WAL prefix it would need is gone, so it
    receives materialized state instead: the latest surviving version
    of every key, each carrying a coded share cut *for the requester*.
    ``cursor`` is the last key already received ("" = start); pages are
    bounded by ``max_bytes``.
    """

    group: int
    cursor: str = ""
    max_bytes: int = 256 * 1024

    @property
    def wire_bytes(self) -> int:
        return KV_META + len(self.cursor)


@dataclass(frozen=True, slots=True)
class SnapshotEntry:
    """One key's materialized state: its latest version (the Paxos
    instance that wrote it) plus the requester's re-coded fragment.
    Tombstones ship share-free (a delete has no data)."""

    key: str
    version: int
    value_id: str
    value_size: int
    meta: Any
    share: CodedShare | None
    tombstone: bool = False


@dataclass(frozen=True, slots=True)
class SnapshotChunk:
    """One page of snapshot state transfer.

    ``next_cursor`` is None on the final page. The transfer's metadata
    rides on the **first** page (``first``), captured before the donor
    read any entry: ``floor`` (the apply cursor the installed state
    represents — the joiner resumes entry-granularity catch-up from
    there, so entries read later may only be *newer* than it),
    ``applied_ops`` (exactly-once dedup keys for this group as of that
    floor, an :class:`~repro.kvstore.dedup.AppliedDelta`, so a client
    retry spanning the rebuild cannot double-apply),
    ``max_ballot`` (the server's ballot high-water mark, so the
    rebuilt node's acceptor floor can be raised past every ballot it
    might have promised before losing its disk) and ``view``, the
    :class:`NewView` the donor's group applied — the view-change
    instances themselves live in the compacted prefix the snapshot
    replaces, so the joiner must adopt the view they produced or it
    would resurrect the static bootstrap membership. The group's, not
    the donor server's: a leader that died between groups leaves them
    on different views until its successor finishes the change. The
    joiner holds them and adopts them after the last page.
    """

    group: int
    entries: tuple[SnapshotEntry, ...] = field(default_factory=tuple)
    next_cursor: str | None = None
    first: bool = False
    floor: int = 0
    applied_ops: AppliedDelta = field(default_factory=AppliedDelta)
    max_ballot: Any = None
    view: Any = None
    # Donor's shard map (dynamic sharding): shard-map commands write no
    # KV state, so a joiner whose config-group log was compacted away
    # would otherwise resurrect the bootstrap routing map. None in
    # static mode.
    shard_map: Any = None

    @property
    def wire_bytes(self) -> int:
        return KV_META + sum(
            KV_META + len(e.key) + (e.share.size if e.share is not None else 0)
            for e in self.entries
        )


# ---------------------------------------------------------------------------
# Commands carried (uncoded) inside proposed values
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Command:
    """The uncoded metadata of a proposal: operation type + key (§4.4:
    followers must see which keys are modified without decoding).

    ``arg`` carries the payload of control commands (the new view for
    ``op == "view"``, the :class:`~repro.kvstore.batch.BatchMeta` for
    ``op == "batch"``); it is None for data operations.

    ``client``/``op_id`` propagate the originating client operation for
    exactly-once apply of puts and deletes (empty for internal
    commands: noops, read markers, views — and for batches, which carry
    per-command identities in their items instead).

    ``mapv`` is the shard-map version ("era") the leader held when it
    proposed the command; apply stamps it into the store version
    (``(mapv << VERSION_BITS) | instance``) so writes routed under a
    newer map always supersede writes of an older era regardless of
    which group's log they landed in. Always 0 in static (hash) mode,
    which makes the store version equal the bare instance — the
    original scheme.

    Dynamic-sharding ops: ``"shard"`` (``arg`` = :class:`ShardCmd`,
    config group only) replaces the routing map; ``"copy"`` re-proposes
    a migrated key's value into its new owner group, applied only while
    the store entry still predates the migration era (idempotent across
    leader failovers); ``"fence"`` is the dual-write no-op mirrored
    into the old owner group during the cutover window.
    """

    op: str  # "put" | "delete" | "read" | "view" | "batch"
              # | "shard" | "copy" | "fence"
    key: str
    arg: Any = None
    client: str = ""
    op_id: int = 0
    mapv: int = 0


@dataclass(frozen=True, slots=True)
class ShardCmd:
    """Replicated shard-map change (``Command(op="shard", arg=...)``),
    proposed into the distinguished config group.

    Carries the **full** successor map (not a delta): apply is a pure
    compare-and-swap on ``version``, so replays, duplicate proposals
    after a leader failover, and snapshot-skipped prefixes are all
    trivially idempotent. Maps are a handful of ranges — wire cost is
    noise next to one data write.
    """

    version: int
    num_groups: int
    ranges: tuple    # ((lo, hi|None, group), ...)
    migrating: Any = None   # (lo, hi|None, src, dst) during a cutover

    @property
    def wire_bytes(self) -> int:
        return KV_META + sum(
            len(lo) + (len(hi) if hi is not None else 0) + 8
            for lo, hi, _g in self.ranges
        )


# ---------------------------------------------------------------------------
# View change (§4.6)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class NewView:
    """The §4.6 view-change payload: epoch + members + quorums/coding.

    ``config`` is a ProtocolConfig; carried uncoded (control traffic).
    """

    epoch: int
    members: tuple[int, ...]
    config: Any

    @property
    def wire_bytes(self) -> int:
        return KV_META + 8 * len(self.members)


@dataclass(frozen=True, slots=True)
class ConfirmPlacement:
    """Leader -> survivor: report which of these chosen put-instances
    you hold no coded share of (optimization 2's confirmation)."""

    group: int
    instances: tuple[int, ...]  # the instances that must be held

    @property
    def wire_bytes(self) -> int:
        return KV_META + 8 * len(self.instances)


@dataclass(frozen=True, slots=True)
class PlacementGaps:
    group: int
    missing: tuple[int, ...]

    @property
    def wire_bytes(self) -> int:
        return KV_META + 8 * len(self.missing)


@dataclass(frozen=True, slots=True)
class InstallShare:
    """Leader -> survivor: fill a placement gap with a re-coded share."""

    group: int
    instance: int
    value_id: str
    share: CodedShare
    meta: Any

    @property
    def wire_bytes(self) -> int:
        return KV_META + self.share.size


@dataclass(frozen=True, slots=True)
class ProbeSpare:
    """Leader -> replacement candidate: are you up and fully rebuilt?

    Sent while the repair controller sits in AWAITING_REPLACEMENT /
    REBUILDING for an evicted slot; no reply (the host is still down)
    keeps the controller waiting, ``rebuilt=False`` means the spare is
    mid-rebuild, ``rebuilt=True`` makes it eligible for re-admission.
    """

    sender_id: int

    @property
    def wire_bytes(self) -> int:
        return KV_META


@dataclass(frozen=True, slots=True)
class SpareStatus:
    """Replacement candidate -> leader: liveness + rebuild progress."""

    node_id: int
    rebuilt: bool
    view_epoch: int

    @property
    def wire_bytes(self) -> int:
        return KV_META
