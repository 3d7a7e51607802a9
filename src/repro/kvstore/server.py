"""The replicated KV server (§4).

One :class:`KVServer` per host. It owns:

- one RPC endpoint + channel mux (all Paxos groups share the NIC);
- one disk + one shared WAL (all groups share the device, §6.1);
- one :class:`~repro.core.PaxosNode` per Paxos group (§4.2);
- the local KV store (§4.1), leader leases (§4.3), the three read
  paths (§4.4), crash/recovery + catch-up (§4.5) and leader election
  driven by lease expiry (§4.5: "another Paxos instance" — here the
  batch-prepare round of the new leader's ballot *is* that decision).
"""

from __future__ import annotations

from typing import Callable

from ..core import (
    Accept,
    Ballot,
    ChosenRecord,
    CodedShare,
    Lease,
    LocalClock,
    NULL_BALLOT,
    PaxosNode,
    Value,
    encode_one_share,
    fresh_value_id,
)
from ..net import Network
from ..rpc import ChannelMux, RpcEndpoint
from ..sim import MetricSet, NULL_TRACER, Simulator, Tracer
from ..storage import (
    CheckpointStore,
    Disk,
    DiskSpec,
    LocalStore,
    WalView,
    WriteAheadLog,
)
from .admission import Admission, AdmissionSlot
from .batch import (
    FRAME_OVERHEAD,
    BatchItem,
    BatchMeta,
    FrameError,
    FramedCommand,
    decode_frame,
    encode_frame,
    entry_size,
)
from .config import ServerConfig
from .dedup import AppliedOps
from .messages import (
    KV_META,
    Busy,
    CatchUp,
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
    PreVote,
    PreVoteReply,
    ProbeSpare,
    PutOk,
    ReadIndex,
    ReadIndexReply,
    Redirect,
    ShardCmd,
    ShareReply,
    SnapshotChunk,
    SpareStatus,
    WrongShard,
)
from .membership import AccrualFailureDetector, RepairController
from .rebuild import Rebuild, catch_up_page, snapshot_page
from .sharefetch import ShareFetch
from .shard import ShardMap, encode_version, era_of, instance_of


#: Load-driven rebalancer (``_rebalance``): split the hottest range
#: into a spare group when its load EWMA exceeds SPLIT_THRESHOLD × the
#: pool-mean load; merge the coldest into its neighbour when it falls
#: below MERGE_THRESHOLD × the mean (and at least two ranges exist).
SPLIT_THRESHOLD = 2.0
MERGE_THRESHOLD = 0.25


class _BatchEntry:
    """One admitted command parked in a leader's pending batch."""

    __slots__ = ("op", "key", "size", "data", "client", "op_id",
                 "finish", "respond")

    def __init__(self, op, key, size, data, client, op_id, finish, respond):
        self.op = op
        self.key = key
        self.size = size
        self.data = data
        self.client = client
        self.op_id = op_id
        self.finish = finish    # per-command success reply (after apply)
        self.respond = respond  # raw responder, for failure paths


class _PendingBatch:
    """A group's not-yet-proposed batch: the parked commands and the
    byte size of the frame they would make, kept as a running sum so a
    batch of n commands is sized in n steps, not n²/2."""

    __slots__ = ("entries", "frame_bytes")

    def __init__(self):
        self.entries: list[_BatchEntry] = []
        self.frame_bytes = FRAME_OVERHEAD

    def add(self, entry: _BatchEntry) -> None:
        self.entries.append(entry)
        self.frame_bytes += entry_size(entry.key, entry.client, entry.size)


def changed_records(live: dict, held: dict) -> dict:
    """The records of ``live`` that a checkpoint holding ``held`` lacks:
    those that differ *by identity*. Durable records are immutable and
    every writer replaces (DESIGN.md §4), so a changed record is a
    different object and this scan — one pointer comparison per record,
    nothing allocated for an unchanged one — cannot miss a write site
    the way a dirty set can."""
    get = held.get
    return {inst: rec for inst, rec in live.items() if get(inst) is not rec}


def _reply(respond, msg) -> None:
    """Answer a request with ``msg`` at its modeled wire size."""
    respond(msg, msg.wire_bytes)


def _frame_payloads(raw, items) -> list:
    """Per-item payloads of batch frame ``raw``: all None in modeled
    mode (``raw`` is None) or when the frame fails validation."""
    if raw is not None:
        try:
            cmds = decode_frame(raw)
        except FrameError:
            cmds = ()
        if len(cmds) == len(items):
            return [c.data for c in cmds]
    return [None] * len(items)


class KVServer:
    """One replica server hosting every shard's Paxos group."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        name: str,
        node_id: int,
        peers: dict[int, str],
        config,
        cfg: ServerConfig,
        disk_spec: DiskSpec,
        shard_map: ShardMap,
        clock_offset: float = 0.0,
        tracer: Tracer = NULL_TRACER,
        metrics: MetricSet | None = None,
    ):
        self.sim = sim
        self.net = net
        self.name = name
        self.node_id = node_id
        self.peers = dict(peers)
        self.config = config  # the protocol's: N, quorums, coding
        self.cfg = cfg        # this replica's policy, see config.py
        self.shard_map = shard_map
        self.tracer = tracer
        self.metrics = metrics or MetricSet()

        self.endpoint = RpcEndpoint(sim, net, name, metrics=self.metrics)
        self.mux = ChannelMux(self.endpoint)
        self.disk = Disk(sim, disk_spec, f"{name}.disk")
        self.wal = WriteAheadLog(
            sim, self.disk, group_commit_window=cfg.group_commit_window,
            name=f"{name}.wal",
        )
        self.store = LocalStore(f"{name}.store")
        self.clock = LocalClock(sim, clock_offset)
        self.lease = Lease(self.clock, cfg.lease_config)

        # Dynamic sharding: the full group pool (``shard_map.num_groups``
        # data groups, active or spare) plus one distinguished *config*
        # group at the last index are all built up front — the channel
        # mux drops messages for unregistered channels and checkpoint
        # install zips fixed-length group lists, so groups can never be
        # created on the fly. Static mode builds exactly the data
        # groups, byte-for-byte the original layout.
        self.cfg_group: int | None = (
            shard_map.num_groups if cfg.dynamic_shards else None
        )
        total_groups = shard_map.num_groups + (1 if cfg.dynamic_shards else 0)
        self.groups: list[PaxosNode] = []
        for g in range(total_groups):
            node = PaxosNode(
                sim, self.mux.channel(g), WalView(self.wal, g), config,
                node_id=node_id, peers=peers,
                rpc_timeout=cfg.rpc_timeout, tracer=tracer,
            )
            node.on_apply = self._make_apply_hook(g)
            node.on_preempted = lambda ballot, g=g: self._on_preempted(g)
            node.on_missing_value = (
                lambda instance, g=g: self.rebuild.missing(g, instance))
            node.prepare_gate = self._prepare_gate
            self.groups.append(node)

        self.up = True
        self.is_leader_server = False
        # Node 0 elects itself at start(); a recovering server knows
        # no leader until it hears one.
        self.current_leader: int | None = 0
        self._electing = False
        # Pending background timers by job name (see _arm_background);
        # crash() cancels whatever is in here.
        self._timers: dict[str, object] = {}
        # Lease safety state (§4.3 done right under partitions):
        # followers only honor heartbeats at or above this ballot, and
        # the leader only treats its lease as renewed once a heartbeat
        # round is acked by enough followers to guarantee overlap with
        # any future electing read quorum.
        self._hb_floor: Ballot = NULL_BALLOT
        self._hb_seq = 0
        self._hb_rounds: dict[int, tuple[float, set[int]]] = {}
        # Pre-vote (partial-partition tolerance): a vacancy-timeout
        # candidate first asks whether the leader looks dead to a read
        # quorum, and only bumps a real ballot once Q_R members
        # (including itself) concur. Grants are stateless opinions, so
        # a one-way-deaf follower probing forever cannot depose a
        # healthy leader. ``_pre_vote_state`` is (round_id, grants).
        self._pre_vote_round = 0
        self._pre_vote_state: tuple[int, set[int]] | None = None
        # Check-quorum: a leader whose lease stays expired past this
        # grace (it cannot hear a renewal quorum) demotes itself instead
        # of limping on — the cluster's other side may already be
        # electing, and a deaf leader serving stale lease reads is the
        # failure mode the lease math exists to prevent.
        self.check_quorum_grace = 2 * cfg.lease_config.heartbeat_interval
        self._lease_lost_since: float | None = None
        # Election-churn accounting (cumulative across crashes, like
        # requests_shed): real ballot-bump elections started here, wins
        # that made this server leader, and demotions of any cause.
        self.elections_started = 0
        self.leader_changes = 0
        self.step_downs = 0
        # Exactly-once apply: identities (group, client, op_id) of client
        # ops already applied, rebuilt deterministically from the log on
        # recovery. A set, not a per-client high-water mark, because
        # clients may issue many concurrent ops whose retries commit out
        # of id order.
        self.applied = AppliedOps()
        # Client responses parked until the decided instance is applied
        # locally (read-your-writes: PutOk must imply visibility).
        self._apply_waiters: dict[tuple[int, int], list[Callable[[], None]]] = {}
        # Per-group election read barrier: highest instance the log
        # frontier reached when this server last won an election. Fast
        # reads are refused until the apply cursor passes it — a fresh
        # leader's store may otherwise miss writes the previous leader
        # acknowledged.
        self._read_barrier: list[int] = [-1] * len(self.groups)
        self.recovery_reads = 0
        # key -> version a read decoded once and did not keep (on_value).
        self._decoded_once: dict[str, int] = {}
        self.fast_reads = 0
        self.consistent_reads = 0
        self.snapshot_reads = 0
        # Read path at production scale (degraded-mode reads PR):
        # ``follower_reads`` served locally after a read-index round,
        # ``read_index_rounds`` issued toward the leader, and
        # ``degraded_reads`` — reads whose local share was rotten,
        # quarantined or missing (mid-rebuild) and that inline-fetched
        # X clean shares instead of failing or waiting for the
        # scrubber.
        self.follower_reads = 0
        self.read_index_rounds = 0
        self.read_index_served = 0
        self.degraded_reads = 0

        # Admission control: policy and state live in the Admission
        # component; the server drives it (admit / release via the slot
        # / flush / retry_after). ``max_inflight_proposals`` bounds
        # Paxos *instances*; each carries up to ``batch_max_commands``
        # commands, so the command-level budget is their product.
        self.admission = Admission(
            sim, cfg.max_inflight_proposals * cfg.batch_max_commands,
            cfg.max_queued_requests, dict(cfg.tenant_weights),
        )

        # Share fetching: source ranking, per-peer in-flight load and
        # the one ranked, hedged gather policy live in the ShareFetch
        # component; the server gives it its endpoint's methods and is
        # the client of its gathers (_gather_shares, _repair_share).
        self.fetch = ShareFetch(
            sim, [h for nid, h in sorted(peers.items()) if nid != node_id],
            request=self.endpoint.request,
            cancel_request=self.endpoint.cancel_request,
            rto=self.endpoint.rto, peer_stats=self.endpoint.peer_stats,
            alive=lambda: self.up, hedge=cfg.hedge_fetches,
            rtt_select=cfg.rtt_select, rng=sim.rng.stream(f"{name}.select"),
        )

        # Catch-up and replica rebuild (wipe + rejoin): the Rebuild
        # component asks peers and decides when a group is rebuilt; the
        # server installs what arrives (DESIGN.md §4).
        self.rebuild = Rebuild(
            sim, sources=self.fetch, request=self.endpoint.request,
            alive=lambda: self.up,
            cursor=lambda group: self.groups[group].apply_cursor,
            commit_only=self._commit_only,
            install_entries=self._install_entries,
            install_page=self._install_page, adopt=self._adopt_snapshot,
            on_rebuilt=self._vote_again,
            count=lambda name, n: self.metrics.counter(name).inc(n),
            trace=self._trace,
        )

        # Leader-side command batching: admitted mutations accumulate in
        # a per-group pending batch, closed by count (batch_max_commands),
        # framed bytes (batch_max_bytes), or the linger timer on the sim
        # clock — whichever fires first. One closed batch becomes ONE
        # Paxos value (one RS encode, one WAL append, one Accept round);
        # the apply path unpacks it and releases each parked client reply
        # individually. batch_max_commands == 1 takes the original
        # single-command path untouched (bit-for-bit determinism).
        self._pending_batch: dict[int, _PendingBatch] = {}
        self._batch_timers: dict[int, object] = {}
        self.batches_proposed = 0

        # Background scrubber (disabled when scrub_interval == 0): each
        # pass re-verifies WAL record checksums and repairs corrupt
        # coded shares from peers via the RS decoder. ``_scrubbing``
        # holds the (group, instance) pairs with a repair in flight.
        self._scrubbing: set[tuple[int, int]] = set()

        # Checkpointing + WAL compaction (disabled when
        # checkpoint_interval == 0): periodically persist the applied KV
        # state + acceptor metadata atomically, then truncate the WAL
        # prefix the checkpoint subsumes. ``compact_floor[g]`` is the
        # apply cursor the latest checkpoint captured for group ``g`` —
        # instances below it can no longer be served entry-by-entry
        # (CatchUp); a peer that far behind gets snapshot transfer.
        # ``_ckpt_held`` is what the durable checkpoint holds, the merge
        # of its segments (and shaped like one: per group the acceptor
        # and learner records by instance, plus the dedup keys); it
        # advances only when a save turns durable.
        self.checkpoint_store = CheckpointStore(sim, self.disk, f"{name}.ckpt")
        self._ckpt_held = self._empty_segment()
        self._ckpt_inflight = False
        self.last_checkpoint_at: float | None = None
        self.compact_floor: list[int] = [0] * len(self.groups)

        # Dynamic sharding: leader-resident rebalancer + migration
        # driver. ``max_group_pipeline`` caps how many proposals one
        # data group may have in flight (0 = uncapped, the original
        # behaviour) — it is what makes a hot shard *leader-bound* in a
        # measurable, per-group way so splitting it demonstrably helps.
        # ``_group_load`` counts admitted mutations per group in the
        # current rebalance window; ``_load_ewma`` smooths them across
        # windows; ``_key_freq`` holds bounded per-key write counts used
        # to pick a weighted-median split boundary. ``_migration_task``
        # is the map version a local copy driver is running for (None =
        # idle); the authoritative in-flight marker lives in the
        # replicated map itself, so a new leader resumes from it.
        self._group_load: list[float] = [0.0] * len(self.groups)
        self._load_ewma: list[float] = [0.0] * len(self.groups)
        self._key_freq: dict[str, int] = {}
        self._key_freq_cap = 512
        self._migration_task: int | None = None
        self.splits_started = 0
        self.merges_started = 0
        self.migrations_completed = 0
        self.copies_proposed = 0
        self.fence_writes = 0
        self.wrong_shard_replies = 0

        # View / reconfiguration state (§4.6) and the self-healing
        # membership subsystem riding on it. ``auto_reconfigure``
        # enables accrual-detector-driven eviction of silent members
        # (§6.1's "drop the dead member so the next failure is
        # survivable"); ``auto_heal`` additionally closes the loop —
        # probe the evicted slot for a rebuilt spare and re-admit it
        # via reconfigure_add, restoring full redundancy.
        self.view_epoch = 0
        self.member_ids: set[int] = set(peers)
        self._view_changing = False
        self._last_ack: dict[int, float] = {}
        self.view_changes_completed = 0
        self.view_changes_aborted = 0
        self._last_pre_vote_seen: float | None = None
        self._last_view_sync = float("-inf")
        self.detector = AccrualFailureDetector(
            heartbeat_interval=cfg.lease_config.heartbeat_interval,
        )
        self.repair = RepairController(
            node_id,
            self.detector,
            f=config.f,
            auto_evict=cfg.auto_reconfigure,
            auto_heal=cfg.auto_heal,
            evict=self.reconfigure_remove,
            restore=self.reconfigure_add,
            probe=self._probe_spare,
        )

        # Client-facing handlers.
        self.endpoint.on_request_async(ClientPut, self._on_put)
        self.endpoint.on_request_async(ClientGet, self._on_get)
        self.endpoint.on_request_async(ClientDelete, self._on_delete)
        # Server-server.
        self.endpoint.on(Heartbeat, self._on_heartbeat)
        self.endpoint.on(HeartbeatAck, self._on_heartbeat_ack)
        self.endpoint.on(PreVote, self._on_pre_vote)
        self.endpoint.on(PreVoteReply, self._on_pre_vote_reply)
        self.endpoint.on_request_async(FetchShare, self._on_fetch_share)
        self.endpoint.on_request_async(ReadIndex, self._on_read_index)
        self.endpoint.on_request_async(CatchUp, self._on_catch_up)
        self.endpoint.on_request_async(FetchSnapshot, self._on_fetch_snapshot)
        self.endpoint.on_request_async(ConfirmPlacement, self._on_confirm_placement)
        self.endpoint.on(InstallShare, self._on_install_share)
        self.endpoint.on_request_async(ProbeSpare, self._on_probe_spare)

    # Read-only views for gates, reports and invariant probes.

    @property
    def requests_shed(self) -> int:
        return self.admission.shed

    @property
    def requests_shed_by_tenant(self) -> dict[str, int]:
        return self.admission.shed_by_tenant

    @property
    def rebuilding(self) -> bool:
        """Wiped and not yet rebuilt: an observer in at least one group."""
        return bool(self.rebuild.pending)

    def _trace(self, text: str, layer: str = "kv") -> None:
        self.tracer.emit(self.sim.now, layer, f"{self.name} {text}")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Arm lease machinery and background jobs; node 0 elects
        itself immediately."""
        self.lease.renew()  # startup grace period
        if self.current_leader == self.node_id:
            self._start_election()
        self._arm_background()

    def crash(self) -> None:
        """Fail-stop: volatile state gone, host unreachable."""
        self.up = False
        self.net.crash_host(self.name)
        for node in self.groups:
            node.crash()
        self.checkpoint_store.crash()
        self.store.clear()
        self.is_leader_server = False
        self._electing = False
        self._view_changing = False
        self._last_ack.clear()
        self.detector.reset()
        self.repair.reset()
        self._last_pre_vote_seen = None
        self._last_view_sync = float("-inf")
        self._hb_floor = NULL_BALLOT
        self._hb_rounds.clear()
        self._pre_vote_state = None
        self._lease_lost_since = None
        self.applied.reset()
        self._decoded_once.clear()
        self._apply_waiters.clear()
        self._read_barrier = [-1] * len(self.groups)
        self._scrubbing.clear()
        self.fetch.reset()
        self.rebuild.reset()
        self._ckpt_inflight = False
        self._flush_admissions()
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        # NOTE: ``shard_map`` survives a crash on purpose — applied map
        # versions were chosen by a quorum, so the in-memory map is
        # correct cluster state even if the local WAL tail was lost;
        # replay and catch-up re-apply older versions as no-ops.
        self._migration_task = None
        self._group_load = [0.0] * len(self.groups)
        self._load_ewma = [0.0] * len(self.groups)
        self._key_freq.clear()

    def wipe(self) -> None:
        """Catastrophic failure: the host goes down AND its disk is lost
        (WAL + checkpoint). The next :meth:`recover`/:meth:`rejoin`
        starts from nothing and must rebuild via snapshot transfer,
        voting suspended (observer mode) until the rebuild completes —
        an amnesiac acceptor re-voting could contradict promises it
        made before the wipe."""
        self.crash()
        self.wal.wipe()
        self.checkpoint_store.wipe()
        self.compact_floor = [0] * len(self.groups)
        self.last_checkpoint_at = None
        self.rebuild.pending = set(range(len(self.groups)))
        self._trace("disk wiped")

    def rejoin(self) -> None:
        """Bring a wiped (or merely crashed) server back; alias of
        :meth:`recover` — the wiped path is taken automatically when
        the disk was lost."""
        self.recover()

    def recover(self) -> None:
        """Restart from durable state and catch up from the leader (§4.5).

        Recovery order: checkpoint first (bulk state), then per-group
        WAL tail replay merges on top of it (replay is idempotent —
        acceptor records merge under ballot >=, store puts are
        version-monotone). A wiped server has neither; it enters
        observer mode and rebuilds from peers via snapshot transfer."""
        self.up = True
        self.net.recover_host(self.name)
        ckpt = self.checkpoint_store.load()
        self._ckpt_held = self._empty_segment()
        if ckpt is not None:
            self._install_checkpoint(ckpt.payload)
        else:  # absent or rotten: the next checkpoint starts over
            self.checkpoint_store.wipe()
        for node in self.groups:
            node.recover()
        # Rebuild the heartbeat floor from the durably promised ballots:
        # a recovered follower must not refresh the lease of a leader it
        # had already helped depose before crashing.
        self._hb_floor = max(
            (node._max_ballot_seen for node in self.groups),
            default=NULL_BALLOT,
        )
        for g in self.rebuild.pending:
            self.groups[g].observer = True
        self.current_leader = None
        self.lease.invalidate()
        self.lease.renew()  # grace period before trying to elect
        self._arm_background()
        self.rebuild.begin(len(self.groups))

    def _arm_background(self) -> None:
        """(Re)start the periodic jobs: the lease monitor always; the
        scrubber, checkpointer and rebalancer when their cadence is set
        (0 = off), first runs staggered per server so the fleet's scrub
        and checkpoint IO does not synchronize and follower rebalance
        windows do not tick in lockstep with the leader's."""
        cfg, stagger = self.cfg, self.node_id
        beat = cfg.lease_config.heartbeat_interval
        for name, interval, first, job in (
            ("monitor", beat, beat, self._monitor),
            ("scrub", cfg.scrub_interval,
             cfg.scrub_interval * (1.0 + 0.1 * stagger), self.scrub_now),
            ("checkpoint", cfg.checkpoint_interval,
             cfg.checkpoint_interval * (1.0 + 0.07 * stagger),
             self.checkpoint_now),
            ("rebalance", cfg.rebalance_interval,
             cfg.rebalance_interval * (1.0 + 0.1 * stagger), self._rebalance),
        ):
            if interval > 0:
                self._every(name, interval, first, job)

    def _every(self, name: str, interval: float, first: float, job) -> None:
        """Run ``job`` every ``interval`` seconds while up, the first
        time after ``first``."""
        def tick() -> None:
            if not self.up:
                return
            job()
            self._timers[name] = self.sim.call_after(interval, tick)

        self._timers[name] = self.sim.call_after(first, tick)

    # ------------------------------------------------------------------
    # leases, heartbeats, election
    # ------------------------------------------------------------------

    def _monitor(self) -> None:
        """Heartbeat-cadence lease upkeep (see _arm_background)."""
        if self.is_leader_server:
            if self._check_quorum_lapsed():
                self._step_down("check-quorum")
            else:
                self._send_heartbeats()
        elif not self._electing and self.lease.vacant_for_follower():
            # Stagger candidates in ring order after the failed leader so
            # the next replica usually wins uncontested (§4.5).
            last = self.current_leader if self.current_leader is not None else 0
            rank = (self.node_id - last - 1) % len(self.peers)
            self.sim.call_after(
                rank * self.cfg.lease_config.heartbeat_interval * 0.5,
                self._maybe_elect,
            )
            self._electing = True

    def _maybe_elect(self) -> None:
        if not self.up or self.is_leader_server:
            return
        if self.rebuilding:
            # Still amnesiac: our ballot counter may have reset, so a
            # fresh ballot could collide with one we issued pre-wipe.
            # Sit the election out until the rebuild restores
            # _max_ballot_seen from peers.
            self._electing = False
            return
        if not self.lease.vacant_for_follower():
            self._electing = False  # a leader reappeared
            return
        self._begin_pre_vote()

    def _begin_pre_vote(self) -> None:
        """Probe a read quorum before bumping a real ballot.

        The candidate self-grants and needs Q_R grants in total —
        exactly the quorum a real election's prepare round would need,
        so a granted pre-vote means the election *can* succeed and a
        refused one means it could only disrupt. No ballot state moves
        on either side; a failed round just clears ``_electing`` so the
        next monitor tick retries while the vacancy persists.
        """
        self._electing = True
        self._pre_vote_round += 1
        rid = self._pre_vote_round
        grants = {self.node_id}
        self.metrics.counter("election.pre_vote_rounds").inc(1)
        if len(grants) >= self.config.q_r:
            # Degenerate tiny cluster: the self-grant is already quorum.
            self._pre_vote_state = None
            self._start_election()
            return
        self._pre_vote_state = (rid, grants)
        self._trace(f"pre-vote {rid}")
        msg = PreVote(candidate_id=self.node_id, round=rid)
        for nid in self.member_ids:
            if nid != self.node_id:
                self.endpoint.send(self.peers[nid], msg, msg.wire_bytes)

        def timed_out(rid=rid) -> None:
            if self._pre_vote_state and self._pre_vote_state[0] == rid:
                # Not enough grants: the leader is alive for a quorum
                # (or we are cut off). Either way a real election would
                # fail or disrupt — stand down until the next tick.
                self._pre_vote_state = None
                self._electing = False
                self.metrics.counter("election.pre_vote_failed").inc(1)

        self.sim.call_after(self.cfg.rpc_timeout, timed_out)

    def _on_pre_vote(self, msg: PreVote, src: str) -> None:
        if not self.up:
            return
        if msg.candidate_id in self.member_ids:
            # A member's vacancy timer lapsed — someone cannot hear the
            # leader. If that is us, connectivity is messy enough that
            # a partition is plausible: suppress eviction suspicion for
            # a grace window rather than risk dropping a healthy peer.
            self._last_pre_vote_seen = self.sim.now
        # Leader stickiness: grant only if our own vacancy timer lapsed
        # too. A rebuilding observer also refuses — it will not vote in
        # the real election, so its opinion would overpromise success.
        granted = (
            not self.is_leader_server
            and not self.rebuilding
            and self.lease.vacant_for_follower()
        )
        self.metrics.counter(
            "election.pre_vote_granted" if granted
            else "election.pre_vote_refused"
        ).inc(1)
        reply = PreVoteReply(
            voter_id=self.node_id, round=msg.round, granted=granted)
        self.endpoint.send(src, reply, reply.wire_bytes)

    def _on_pre_vote_reply(self, msg: PreVoteReply, src: str) -> None:
        if not self.up or self._pre_vote_state is None:
            return
        rid, grants = self._pre_vote_state
        if msg.round != rid or not msg.granted:
            return
        grants.add(msg.voter_id)
        if len(grants) >= self.config.q_r:
            self._pre_vote_state = None
            self._start_election()

    def _check_quorum_lapsed(self) -> bool:
        """True once the leader's lease has stayed expired past the
        check-quorum grace — it cannot reach a renewal quorum."""
        if self.lease.held_by_leader():
            self._lease_lost_since = None
            return False
        if self._lease_lost_since is None:
            self._lease_lost_since = self.sim.now
        return self.sim.now - self._lease_lost_since > self.check_quorum_grace

    def _step_down(self, why: str) -> None:
        """Demote: stop serving, invalidate the lease, rejoin the
        follower pool (the vacancy timer then governs re-election)."""
        if not self.is_leader_server:
            return
        self._trace(f"steps down ({why})")
        self.is_leader_server = False
        self.current_leader = None
        self.step_downs += 1
        self.metrics.counter("election.step_down").inc(1)
        self._lease_lost_since = None
        self.lease.invalidate()
        self._migration_task = None  # copy driver aborts; successor resumes
        self._flush_admissions()

    def _start_election(self) -> None:
        """Become leader of every group (batch prepare each)."""
        self._electing = True
        self.elections_started += 1
        self.metrics.counter("election.started").inc(1)
        pending = {"n": len(self.groups), "failed": False}
        self._trace("election start")

        def one_done(ok: bool) -> None:
            if not self.up:
                return
            if not ok:
                pending["failed"] = True
            pending["n"] -= 1
            if pending["n"] == 0:
                self._election_finished(not pending["failed"])

        for node in self.groups:
            node.become_leader(one_done)

    def _election_finished(self, ok: bool) -> None:
        self._electing = False
        if not ok:
            # Lost the race; wait for the winner's heartbeats (or the
            # next vacancy check retries with a higher ballot).
            self.lease.renew()
            return
        self.is_leader_server = True
        self.current_leader = self.node_id
        self.leader_changes += 1
        self.metrics.counter("election.won").inc(1)
        self._lease_lost_since = None
        # Seed failure detection at leadership-acquisition time: every
        # member counts as heard-from *now*, so no peer starts its
        # leadership in silence deficit (the old code defaulted a
        # never-heard peer's last ack half a timeout into the past and
        # could evict a healthy member the new leader simply had not
        # met yet). The repair controller reconstructs its state from
        # the membership the chosen view instances handed us — a known
        # peer absent from the view resumes mid-replacement.
        now = self.sim.now
        others = self.member_ids - {self.node_id}
        for nid in others:
            self._last_ack[nid] = now
        self.detector.seed(others, now)
        self.repair.resume(now, set(self.member_ids), set(self.peers))
        # Every instance an earlier leader could have acknowledged was
        # accepted by a write quorum, so the prepare scan saw it and
        # ``next_instance`` is past it. Fast reads must not be served
        # from local state until all of them are applied here.
        self._read_barrier = [node.next_instance - 1 for node in self.groups]
        # Winning the prepare round grants *leadership*, not the lease:
        # fast reads stay disabled (NotReady) until the first heartbeat
        # round is acknowledged, which proves enough followers restarted
        # their vacancy timers for this ballot.
        self.lease.invalidate()
        self._trace("is leader")
        self._send_heartbeats()
        # A predecessor may have died mid-migration: the replicated map
        # still carries the migrating marker, so finish its copy.
        self._maybe_resume_migration()

    def _leadership_ballot(self) -> Ballot | None:
        return self.groups[0].leader_ballot if self.groups else None

    def _send_heartbeats(self) -> None:
        ballot = self._leadership_ballot()
        if ballot is None:
            return  # preempted since the last tick; monitor handles it
        self._hb_seq += 1
        seq = self._hb_seq
        sent_at = self.clock.now()
        self._hb_rounds[seq] = (sent_at, set())
        for old in [s for s in self._hb_rounds if s < seq - 8]:
            del self._hb_rounds[old]
        hb = Heartbeat(leader_id=self.node_id, seq=seq, ballot=ballot,
                       view_epoch=self.view_epoch)
        for nid in self.member_ids:
            if nid != self.node_id:
                self.endpoint.send(self.peers[nid], hb, hb.wire_bytes)
        # Degenerate single-member group: no follower can contest.
        if self._acks_needed() == 0:
            self.lease.renew_at(sent_at)
        if self.cfg.auto_reconfigure or self.cfg.auto_heal:
            self._membership_tick()

    def _acks_needed(self) -> int:
        """Follower acks required before a heartbeat round renews the
        lease.

        With the leader itself that makes N - Q_R + 1 members whose
        vacancy timers provably restarted at (or after) the round's send
        time. Any later challenger needs Q_R promises, and
        (N - Q_R + 1) + Q_R = N + 1 > N forces an overlap member — one
        that either out-ballots the old leader's heartbeats or waits out
        Δ + δ from the send time before helping depose it. Either way no
        two leaders hold the lease at once.
        """
        return max(0, self.config.n - self.config.q_r)

    def _membership_tick(self) -> None:
        """§6.1 failure-handling, run at heartbeat cadence on the
        leader: the accrual detector turns ack silence into suspicion,
        the repair controller turns sustained suspicion into an
        eviction view change and (with ``auto_heal``) later re-admits
        the rebuilt replacement. Eviction is suppressed whenever a
        partition is plausible: our own lease lapsed (we cannot hear a
        renewal quorum — check-quorum fires soon anyway), or a member
        recently probed us with a pre-vote (it cannot hear us)."""
        now = self.sim.now
        suppressed = not self.lease.held_by_leader() or (
            self._last_pre_vote_seen is not None
            and now - self._last_pre_vote_seen <= self.check_quorum_grace
        )
        self.repair.tick(
            now, set(self.member_ids),
            op_in_flight=self._view_changing,
            suppressed=suppressed,
        )

    def _probe_spare(self, nid: int, cb) -> None:
        """Ask the replacement candidate for slot ``nid`` whether it is
        up and fully rebuilt; ``cb(None)`` on silence (still down)."""
        if not self.up or nid not in self.peers:
            cb(None)
            return
        req = ProbeSpare(sender_id=self.node_id)
        self.endpoint.request(
            self.peers[nid], req, req.wire_bytes,
            on_reply=lambda rep: cb(
                rep.rebuilt if isinstance(rep, SpareStatus) else None
            ),
            timeout=0.5, retries=0,
            on_timeout=lambda: cb(None),
        )

    def _on_probe_spare(self, msg: ProbeSpare, src: str, respond) -> None:
        if not self.up:
            return
        _reply(respond, SpareStatus(node_id=self.node_id,
                                    rebuilt=not self.rebuilding,
                                    view_epoch=self.view_epoch))

    def _on_heartbeat(self, msg: Heartbeat, src: str) -> None:
        if not self.up:
            return
        if msg.ballot is not None and msg.ballot < self._hb_floor:
            # A deposed leader's heartbeat: acking it would extend a
            # lease we already helped invalidate. Stay silent; it steps
            # down when it hears the new leader (or its lease lapses).
            return
        if self.is_leader_server and msg.leader_id != self.node_id:
            ours = self._leadership_ballot()
            if msg.ballot is not None and ours is not None and msg.ballot < ours:
                return  # stale rival; our own heartbeats depose it
            # A higher-ballot leader exists: step down and follow it.
            self._trace(f"steps down for {msg.leader_id}")
            self.is_leader_server = False
            self.step_downs += 1
            self.metrics.counter("election.step_down").inc(1)
            self._lease_lost_since = None
            self._flush_admissions()
        if msg.ballot is not None:
            self._hb_floor = max(self._hb_floor, msg.ballot)
        self.current_leader = msg.leader_id
        if msg.leader_id != self.node_id:
            self._electing = False
            self.lease.renew()
            ack = HeartbeatAck(follower_id=self.node_id, seq=msg.seq)
            self.endpoint.send(src, ack, ack.wire_bytes)
        if msg.view_epoch > self.view_epoch:
            # The leader is heartbeating us as a member of an epoch we
            # never learned (our copy of the view log was compacted
            # away, or we were re-admitted while retired). Pull the
            # missing decisions — catch-up replays the view-change
            # commands in log order.
            now = self.sim.now
            if now - self._last_view_sync >= 1.0:
                self._last_view_sync = now
                for g in range(len(self.groups)):
                    self.rebuild.catch_up(g)

    def _on_heartbeat_ack(self, msg: HeartbeatAck, src: str) -> None:
        if not self.up:
            return
        self._last_ack[msg.follower_id] = self.sim.now
        self.detector.heard(msg.follower_id, self.sim.now)
        round_ = self._hb_rounds.get(msg.seq)
        if round_ is None or not self.is_leader_server:
            return
        sent_at, ackers = round_
        ackers.add(msg.follower_id)
        if len(ackers) >= self._acks_needed():
            # Enough vacancy timers provably restarted at sent_at:
            # anchor the lease there (monotonic; late acks are no-ops).
            self.lease.renew_at(sent_at)

    def _prepare_gate(self, ballot: Ballot) -> float:
        """Lease guard installed on every local acceptor (§4.3).

        Promise immediately for our own ballots and for the incumbent
        leader (its re-elections and renewals must never wait); any
        other challenger is deferred until this replica's own vacancy
        timer says the current lease has lapsed.
        """
        if ballot.proposer == self.node_id or ballot.proposer == self.current_leader:
            self._hb_floor = max(self._hb_floor, ballot)
            return 0.0
        wait = self.lease.remaining_follower_wait()
        if wait <= 0:
            # Granting helps depose the incumbent: refuse to refresh its
            # lease from now on.
            self._hb_floor = max(self._hb_floor, ballot)
            return 0.0
        return wait

    def _on_preempted(self, group: int) -> None:
        if self.is_leader_server:
            self._trace(f"demoted (group {group})")
            self.step_downs += 1
            self.metrics.counter("election.step_down").inc(1)
            self._lease_lost_since = None
        self.is_leader_server = False
        self.current_leader = None
        # A view change this (now deposed) leader had in flight is dead
        # — the winner re-runs membership repair itself. Holding the
        # fence would wedge this node's own controller if re-elected.
        self._view_changing = False
        self._flush_admissions()

    # ------------------------------------------------------------------
    # apply hook: Paxos decisions -> local store (§4.4)
    # ------------------------------------------------------------------

    def _make_apply_hook(self, group: int) -> Callable[[int, ChosenRecord], None]:
        def apply_(instance: int, rec: ChosenRecord) -> None:
            try:
                self._apply_one(group, instance, rec)
            finally:
                # Release client replies parked on this instance even
                # for no-op fillers: the waiter condition is "applied up
                # to here", not "this instance mutated the store".
                for cb in self._apply_waiters.pop((group, instance), ()):
                    cb()

        return apply_

    def _apply_one(self, group: int, instance: int, rec: ChosenRecord) -> None:
        meta = None
        if rec.value is not None:
            meta = rec.value.meta
        elif rec.share is not None:
            meta = rec.share.meta
        if not isinstance(meta, Command):
            return  # no-op filler or unknown decision: nothing to apply
        if meta.op == "batch":
            self._apply_batch(group, instance, rec, meta.arg)
            return
        if meta.op in ("put", "delete") and meta.client:
            # Exactly-once apply: client retries and duplicated requests
            # can commit the same operation in two instances; only the
            # first (in log order, identical on every replica) mutates
            # the store.
            if not self.applied.add(group, meta.client, meta.op_id):
                return
        # The store version encodes the shard-map era the *proposer*
        # stamped into the command — deterministic across replicas
        # (it rides inside the replicated value, never read from local
        # map state). Static mode always stamps 0, so version ==
        # instance exactly as before.
        version = encode_version(meta.mapv, instance)
        if meta.op in ("put", "copy"):
            if meta.op == "copy":
                # Migration copy: mutates the store only while the
                # existing entry still predates this migration's era.
                # The condition depends only on earlier entries of this
                # same log, so every replica decides it identically,
                # and a re-copy after a leader failover is a no-op for
                # keys a newer-era write (or earlier copy) already
                # reached.
                existing = self.store.get_entry(meta.key)
                if existing is not None and (
                    era_of(existing.version) >= meta.mapv
                ):
                    return
                if meta.arg == "tombstone":
                    self.store.delete(meta.key, version, group=group)
                    return
            if rec.value is not None:
                # Full value on the record (proposed here, or cached).
                self.store.put(
                    meta.key, rec.value.data, rec.value.size, version,
                    complete=True, group=group,
                )
            elif rec.share is not None and rec.share.config.x == 1:
                # Classic Paxos (θ(1, N)): the "share" is the full
                # value — followers hold complete copies.
                self.store.put(
                    meta.key, rec.share.data, rec.share.value_size,
                    version, complete=True, group=group,
                )
            elif rec.share is not None:
                # Follower path: only the coded share is stored,
                # tagged incomplete (§4.4).
                self.store.put(
                    meta.key, rec.share, rec.share.size, version,
                    complete=False, group=group,
                )
            else:
                # Chosen but no local payload at all (missed accept):
                # record an empty incomplete entry for catch-up.
                self.store.put(meta.key, None, 0, version,
                               complete=False, group=group)
        elif meta.op == "delete":
            self.store.delete(meta.key, version, group=group)
        elif meta.op == "view":
            self._apply_view_cmd(group, meta.arg)
        elif meta.op == "shard":
            self._apply_shard_cmd(group, meta.arg)
        # op == "read"/"fence": consistency/cutover marker, no state
        # change (the fence only occupies a src-group log slot so the
        # old owner's log frontier covers the cutover window).

    def _apply_batch(self, group: int, instance: int, rec: ChosenRecord,
                     bmeta) -> None:
        """Apply one batched instance: every command in frame order,
        atomically at this log position (identical order on every
        replica). Per-command dedup mirrors the single-command path;
        same-key commands later in the frame win because LocalStore
        overwrites at equal version."""
        items = bmeta.items if isinstance(bmeta, BatchMeta) else ()
        have_full, datas = self._batch_payloads(rec, items)
        meta = rec.value.meta if rec.value is not None else rec.share.meta
        version = encode_version(meta.mapv, instance)
        for idx, item in enumerate(items):
            if item.op in ("put", "delete") and item.client and (
                    not self.applied.add(group, item.client, item.op_id)):
                continue
            if item.op == "put":
                if have_full:
                    self.store.put(
                        item.key, datas[idx], item.size, version,
                        complete=True, group=group,
                    )
                elif rec.share is not None:
                    # Follower: the whole batch's coded share stands in
                    # for each key it wrote; a recovery read decodes the
                    # batch and extracts the key's payload.
                    self.store.put(
                        item.key, rec.share, rec.share.size, version,
                        complete=False, group=group,
                    )
                else:
                    self.store.put(item.key, None, 0, version,
                                   complete=False, group=group)
            elif item.op == "delete":
                self.store.delete(item.key, version, group=group)
            # "read": consistency marker, no state change.

    def _batch_payloads(self, rec: ChosenRecord, items):
        """(have_full, per-item payloads) for a batched record.

        have_full is True when this replica can materialize complete
        entries: it holds the whole value (proposed here, or cached) or
        a classic θ(1, N) "share" that *is* the frame. The payload list
        is all-None in modeled mode or if the frame fails validation —
        CRC damage never applies a partial batch."""
        if rec.value is not None:
            return True, _frame_payloads(rec.value.data, items)
        if rec.share is not None and rec.share.config.x == 1 and (
                not rec.share.corrupt):
            return True, _frame_payloads(rec.share.data, items)
        return False, None

    @staticmethod
    def _is_batch(meta) -> bool:
        return isinstance(meta, Command) and meta.op == "batch"

    def _payload_for_key(self, value: Value, key: str):
        """(data, size) that ``key`` holds after ``value`` applies: the
        value itself for a plain put; for a batch, the last framed write
        to the key (frame order is apply order)."""
        if not self._is_batch(value.meta):
            return value.data, value.size
        arg = value.meta.arg
        items = arg.items if isinstance(arg, BatchMeta) else ()
        data, size = None, 0
        for item, item_data in zip(items, _frame_payloads(value.data, items)):
            if item.key == key and item.op == "put":
                data, size = item_data, item.size
            elif item.key == key and item.op == "delete":
                data, size = None, 0
        return data, size

    def _release_skipped_waiters(self, group: int) -> None:
        """Release replies parked on instances a cursor jump skipped.

        A snapshot install advances ``apply_cursor`` without running
        the apply hook over the covered range — the streamed pages
        (latest store entries + dedup identities) already reflect
        those instances, so any reply parked inside the range is
        servable now. Leaving it parked would leak its admission slot
        forever (``check_no_starvation``): nothing ever applies an
        instance below the cursor again.
        """
        node = self.groups[group]
        skipped = [
            k for k in self._apply_waiters
            if k[0] == group and k[1] < node.apply_cursor
        ]
        for key in skipped:
            for cb in self._apply_waiters.pop(key):
                cb()

    def _respond_after_apply(
        self, group: int, instance: int, cb: Callable[[], None]
    ) -> None:
        """Run ``cb`` once ``instance`` has been applied locally.

        A decided-but-unapplied instance (an earlier instance is still a
        gap) must not be acknowledged yet: the client would read its own
        write back as stale data on the fast path. In the common
        contiguous case the apply hook has already run by the time the
        decide callback fires, so this adds no latency.
        """
        if self.groups[group].apply_cursor > instance:
            cb()
        else:
            self._apply_waiters.setdefault((group, instance), []).append(cb)

    # ------------------------------------------------------------------
    # client operations
    # ------------------------------------------------------------------

    def _leader_guard(self, respond) -> bool:
        """Common not-the-leader handling; True if the caller may proceed."""
        if not self.up:
            return False
        if self.is_leader_server:
            if self._electing or self._view_changing:
                _reply(respond, NotReady())
                return False
            return True
        hint = None
        if self.current_leader is not None:
            hint = self.peers.get(self.current_leader)
        _reply(respond, Redirect(hint))
        return False

    # -- admission control (overload protection) -----------------------

    def _admit(self, respond, start: Callable, tenant: str = "") -> None:
        """Gate one proposal-bearing client request through the
        admission pipeline: ``start(respond)`` runs the request body now
        or when the DRR scheduler reaches it; a request the pipeline
        refuses is shed with Busy(retry_after)."""
        if not self.cfg.admission_control:
            start(respond)
            return
        if self.admission.admit(respond, start, tenant):
            return
        self.metrics.counter("admission.shed").inc(1)
        if tenant:
            self.metrics.counter(f"admission.shed.{tenant}").inc(1)
        _reply(respond, Busy(retry_after=self.admission.retry_after(tenant)))

    def _flush_admissions(self) -> None:
        """Reset the admission pipeline on crash or loss of leadership.

        Queued requests would otherwise wait on proposals this server
        can no longer drive; answer them NotReady (when still up — a
        crashed host just goes silent) so clients re-resolve the leader.
        Pending (not yet proposed) batches are failed the same way: the
        batch was never an instance, so none of its commands may be
        acked — atomicity on step-down and crash."""
        queued = self.admission.flush()
        self._flush_batches()
        if not self.up:
            return
        for respond in queued:
            _reply(respond, NotReady())

    def _flush_batches(self) -> None:
        """Drop every pending batch: cancel linger timers and answer the
        parked commands NotReady (silently when crashed)."""
        for timer in self._batch_timers.values():
            timer.cancel()
        self._batch_timers.clear()
        pending, self._pending_batch = self._pending_batch, {}
        if not self.up:
            return
        for batch in pending.values():
            self._fail_batch(batch.entries)

    # -- leader-side command batching ----------------------------------

    def _enqueue_batched(self, group: int, entry: _BatchEntry) -> None:
        """Park an admitted command in ``group``'s pending batch; close
        the batch when full (count or framed bytes), else (re)arm the
        linger timer. linger=0 still coalesces commands arriving at the
        same sim instant: the close runs as a zero-delay event."""
        pending = self._pending_batch.get(group)
        if pending is None:
            pending = self._pending_batch[group] = _PendingBatch()
        pending.add(entry)
        if (
            len(pending.entries) >= self.cfg.batch_max_commands
            or pending.frame_bytes >= self.cfg.batch_max_bytes
        ):
            self._close_batch(group)
        elif group not in self._batch_timers:
            self._batch_timers[group] = self.sim.call_after(
                self.cfg.batch_linger,
                lambda: self._close_batch(group),
            )

    def _close_batch(self, group: int) -> None:
        """Seal ``group``'s pending batch into one Paxos value and
        propose it. Every parked command is released together: all of
        them on decide+apply (each with its own reply), or none (the
        whole batch fails NotReady if leadership is already gone)."""
        timer = self._batch_timers.pop(group, None)
        if timer is not None:
            timer.cancel()
        pending = self._pending_batch.pop(group, None)
        if pending is None or not self.up:
            return
        entries = pending.entries
        node = self.groups[group]
        if not self.is_leader_server or self._view_changing:
            self._fail_batch(entries)
            return
        n = len(entries)
        # Busy/shed accounting stays per command: each entry keeps its
        # own admission slot until its own reply fires, but its EWMA
        # contribution is the batch service time split across the batch.
        for e in entries:
            if isinstance(e.respond, AdmissionSlot):
                e.respond.svc_divisor = n
        items = tuple(
            BatchItem(e.op, e.key, e.size, e.client, e.op_id)
            for e in entries
        )
        # Concrete mode iff every put carries real bytes; otherwise the
        # frame is modeled by exact size only (dual-mode values).
        concrete = all(e.data is not None for e in entries if e.op == "put")
        if concrete:
            payload = encode_frame(tuple(
                FramedCommand(e.op, e.key, e.data or b"", e.client, e.op_id)
                for e in entries
            ))
            size = len(payload)
        else:
            payload = None
            size = pending.frame_bytes
        value = Value(
            fresh_value_id(self.node_id), size, payload,
            meta=Command("batch", "", arg=BatchMeta(items),
                         mapv=self.shard_map.version),
        )

        def decided(instance: int, v: Value) -> None:
            if not self.up:
                return

            def release_all() -> None:
                for e in entries:
                    e.finish()

            self._respond_after_apply(group, instance, release_all)

        self.batches_proposed += 1
        self.metrics.histogram("batch.commands").record(n)
        self.metrics.histogram("batch.bytes").record(size)
        try:
            node.propose(value, decided)
            self.metrics.counter("rs.encode_calls").inc(1)
        except RuntimeError:
            self._fail_batch(entries)

    def _fail_batch(self, entries: list) -> None:
        for e in entries:
            _reply(e.respond, NotReady())

    # -- client write/read handlers ------------------------------------

    # ``_on_put``/``_on_delete`` stay the registered entry points:
    # benchmarks/perf counts admitted requests by these span names.
    def _on_put(self, msg: ClientPut, src: str, respond) -> None:
        self._on_write(msg, respond)

    def _on_delete(self, msg: ClientDelete, src: str, respond) -> None:
        self._on_write(msg, respond)

    def _on_write(self, msg, respond) -> None:
        """A client mutation: §4.4 "Delete = write(key, NULL)", so put
        and delete differ only in the command name and the payload."""
        if not self._leader_guard(respond):
            return
        if not self._shard_write_ok(msg, respond):
            return
        group = self.shard_map.group_of(msg.key)
        if msg.client and (
            self.applied.seen(group, msg.client, msg.op_id)
            or self.cfg.dynamic_shards
            and self.applied.seen_anywhere(msg.client, msg.op_id)
        ):
            # Retry of a write that already committed (the first reply
            # was lost): acknowledge without burning a new instance.
            # Under dynamic sharding the identity check is group-
            # agnostic — a migration may have moved the key since the
            # original commit landed in the old owner's log.
            _reply(respond, PutOk(msg.key, map_version=self.shard_map.version))
            return
        self._admit(respond, lambda r: self._write_admitted(msg, r),
                    tenant=msg.tenant)

    def _write_admitted(self, msg, respond) -> None:
        group = self.shard_map.group_of(msg.key)
        if msg.client and self.applied.seen(group, msg.client, msg.op_id):
            # Committed while this retry sat in the admission queue.
            _reply(respond, PutOk(msg.key, map_version=self.shard_map.version))
            return
        # Only puts are "write" samples: a delete leaves ``start`` unset.
        # (No flag of its own, and the op is read off the message type,
        # not passed along: each variable a per-op closure captures is
        # one more GC-tracked cell.)
        if isinstance(msg, ClientPut):
            op, size, data, start = "put", msg.size, msg.data, self.sim.now
        else:
            op, size, data, start = "delete", 0, None, None
        self._account_write(group, msg.key)

        def reply_now() -> None:
            if not self.up:
                return
            if start is not None:
                self.metrics.latency("write").record(self.sim.now - start)
                self.metrics.throughput("write").record(self.sim.now, msg.size)
            _reply(respond, PutOk(msg.key, map_version=self.shard_map.version))

        if self.cfg.batch_max_commands > 1:
            self._enqueue_batched(group, _BatchEntry(
                op, msg.key, size, data, msg.client, msg.op_id,
                reply_now, respond,
            ))
            return
        if not self._group_slot_ok(group, msg.tenant, respond):
            return
        value = Value(
            fresh_value_id(self.node_id), size, data,
            meta=Command(op, msg.key, client=msg.client, op_id=msg.op_id,
                         mapv=self.shard_map.version),
        )
        if self._propose_one(group, value, reply_now, respond):
            self._maybe_fence_write(msg.key, group)

    def _propose_one(self, group: int, value: Value, after_apply,
                     respond) -> bool:
        """Propose a single-command value in ``group``; ``after_apply``
        runs once the decided instance is applied locally. False, having
        answered NotReady, if this server cannot propose (any more)."""
        def decided(instance: int, v: Value) -> None:
            if self.up:
                self._respond_after_apply(group, instance, after_apply)

        try:
            self.groups[group].propose(value, decided)
            self.metrics.counter("rs.encode_calls").inc(1)
        except RuntimeError:
            _reply(respond, NotReady())
            return False
        return True

    def _on_get(self, msg: ClientGet, src: str, respond) -> None:
        if self.up and self.cfg.dynamic_shards and (
            msg.map_version > self.shard_map.version
        ):
            # The client has seen a newer shard map than this replica
            # has applied: our routing (read-index group, ownership) may
            # be stale. Refuse rather than serve under the old map; the
            # client rotates while we catch up on the config log.
            self.wrong_shard_replies += 1
            self.metrics.counter("shard.wrong_shard").inc(1)
            _reply(respond,
                   WrongShard(msg.key, map_version=self.shard_map.version))
            return
        if msg.mode == "snapshot":
            # Snapshot read (§4.4): served by ANY replica from its local
            # (possibly stale) state — "recovery read can also function
            # as snapshot read if the application requires a snapshot
            # version from a non-leader replica". A follower holding
            # only a coded share gathers X shares first.
            if not self.up:
                return
            self.snapshot_reads += 1
            self._serve_read(msg.key, self.sim.now, respond)
            return
        if msg.mode == "follower":
            # Read-index read: linearizable on ANY replica — one round
            # to the leader for its applied frontier, zero proposals,
            # then a local serve once our apply cursor passes it. On
            # the leader itself this degenerates to the §4.3 lease fast
            # read (no round at all).
            if not self.up:
                return
            self._follower_read(msg, respond)
            return
        if not self._leader_guard(respond):
            return
        start = self.sim.now
        if msg.mode == "fast":
            # Fast read (§4.4): valid lease => serve from local storage
            # — but only once this leader's apply cursor has passed its
            # election read barrier, i.e. local state reflects every
            # write a predecessor could have acknowledged.
            group = self.shard_map.group_of(msg.key)
            if not self._fast_read_ready(group):
                _reply(respond, NotReady())
                return
            self.fast_reads += 1
            self._serve_read(msg.key, start, respond)
        elif msg.mode == "consistent":
            # Consistent read (§4.4): an explicit Paxos instance as a
            # marker; correct regardless of lease health. It burns a
            # proposal, so it rides the same admission pipeline as
            # writes.
            self.consistent_reads += 1
            self._admit(
                respond,
                lambda r: self._consistent_get_admitted(msg, start, r),
                tenant=msg.tenant,
            )
        else:
            raise ValueError(f"unknown read mode {msg.mode!r}")

    def _fast_read_ready(self, group: int) -> bool:
        """May this server serve a lease-gated local read right now?

        Valid lease AND apply cursor past the election read barrier —
        local state then reflects every write any leader could have
        acknowledged (§4.3 + the PR 1 fresh-leader barrier)."""
        return (
            self.is_leader_server
            and not self._electing
            and not self._view_changing
            and self.lease.held_by_leader()
            and self.groups[group].apply_cursor > self._read_barrier[group]
        )

    def _follower_read(self, msg: ClientGet, respond) -> None:
        """Serve a linearizable read without being (or redirecting to)
        the leader: ask the leader for its applied frontier
        (:class:`ReadIndex`), wait until the local apply cursor passes
        it, then serve from local state — degraded-decoding from X
        clean peer shares if our own share is rotten or missing.

        Linearizability argument: any write acknowledged before this
        read was invoked had been applied at the leader before the ack,
        so the frontier the leader returns (under a valid lease, past
        its read barrier) covers it; waiting for our own cursor to pass
        the frontier makes it locally visible. Rebuilding observers
        qualify too — a snapshot install advances the cursor past the
        frontier and releases the parked read.
        """
        start = self.sim.now
        group = self.shard_map.group_of(msg.key)
        if self.is_leader_server:
            # §4.3 fallback: the leaseholder needs no read-index round.
            if not self._fast_read_ready(group):
                _reply(respond, NotReady())
                return
            self.fast_reads += 1
            self._serve_read(msg.key, start, respond)
            return
        host = (
            self.peers.get(self.current_leader)
            if self.current_leader is not None else None
        )
        if host is None or self.current_leader == self.node_id:
            # No known leader to vouch for a frontier; the client backs
            # off and retries (possibly at another replica).
            _reply(respond, NotReady())
            return
        self.read_index_rounds += 1
        req = ReadIndex(group=group)

        def serve() -> None:
            if not self.up:
                return
            self.follower_reads += 1
            self.metrics.counter("read.follower").inc(1)
            self._serve_read(msg.key, start, respond)

        def on_reply(reply) -> None:
            if not self.up:
                return
            if not isinstance(reply, ReadIndexReply) or not reply.ok:
                # The peer we thought was leader cannot vouch (deposed,
                # lease expired, mid-election): fail fast, let the
                # client retry — blocking here would turn a leadership
                # transition into a read outage.
                _reply(respond, NotReady())
                return
            self._respond_after_apply(group, reply.index, serve)

        def on_timeout() -> None:
            if not self.up:
                return
            _reply(respond, NotReady())

        self.endpoint.request(
            host, req, req.wire_bytes, on_reply=on_reply,
            timeout=0.5, retries=1, adaptive=True, on_timeout=on_timeout,
        )

    def _on_read_index(self, msg: ReadIndex, src: str, respond) -> None:
        """Leader side of the read-index handshake: vouch for the
        applied frontier, but only under exactly the conditions that
        gate our own fast reads — otherwise a deposed-but-unaware
        leader could anchor a follower read behind the true frontier."""
        if not self.up:
            return
        if not self._fast_read_ready(msg.group):
            _reply(respond, ReadIndexReply(group=msg.group, ok=False))
            return
        self.read_index_served += 1
        _reply(respond, ReadIndexReply(
            group=msg.group, index=self.groups[msg.group].apply_cursor - 1,
            ok=True))

    def _consistent_get_admitted(self, msg: ClientGet, start: float, respond) -> None:
        group = self.shard_map.group_of(msg.key)

        def serve() -> None:
            if self.up:
                self._serve_read(msg.key, start, respond)

        if self.cfg.batch_max_commands > 1:
            self._enqueue_batched(group, _BatchEntry(
                "read", msg.key, 0, None, "", 0, serve, respond,
            ))
            return
        marker = Value(
            fresh_value_id(self.node_id), 0, None,
            meta=Command("read", msg.key),
        )
        self._propose_one(group, marker, serve, respond)

    def _serve_read(self, key: str, start: float, respond) -> None:
        entry = self.store.get(key)
        if entry is None:
            _reply(respond, NotFound(key, map_version=self.shard_map.version))
            return
        if entry.complete:
            self._reply_read(key, entry.size, entry.value, start, respond)
            return
        # Recovery read (§4.4): this (new) leader only holds a coded
        # share; gather >= X shares from peers, decode, then serve.
        self._recovery_read(key, entry, start, respond)

    def _reply_read(self, key: str, size: int, data, start: float,
                    respond) -> None:
        self.metrics.latency("read").record(self.sim.now - start)
        self.metrics.throughput("read").record(self.sim.now, size)
        _reply(respond,
               GetOk(key, size, data, map_version=self.shard_map.version))

    # ------------------------------------------------------------------
    # recovery read
    # ------------------------------------------------------------------

    def _recovery_read(self, key: str, entry, start: float, respond) -> None:
        self.recovery_reads += 1
        # The write that produced this entry may predate a migration:
        # its log record lives in the group that *chose* it (tagged on
        # the entry), not necessarily the key's current owner.
        group = entry.group if entry.group >= 0 else self.shard_map.group_of(key)
        node = self.groups[group]
        instance = instance_of(entry.version)
        share = entry.value  # this node's coded share (may be None)
        value_id = share.value_id if share is not None else None
        if isinstance(share, CodedShare) and share.corrupt:
            # Degraded read: the local share rotted (or sits
            # quarantined awaiting the scrubber). Its metadata still
            # names the decided value, but its bytes must never seed a
            # decode — fetch X *clean* shares instead of failing or
            # blocking on the repair.
            share = None
        if value_id is None:
            rec = node.chosen.get(instance)
            value_id = rec.value_id if rec is not None else None
        if value_id is None:
            _reply(respond, NotFound(key, map_version=self.shard_map.version))
            return
        if share is None:
            # No usable local fragment (rotten, quarantined, or
            # mid-rebuild): this read proceeds purely from peer shares.
            self.degraded_reads += 1
            self.metrics.counter("read.degraded").inc(1)

        def on_value(value) -> None:
            # For a batched value the decoded payload is the whole
            # frame; the entry materializes only this key's slice.
            data, size = self._payload_for_key(value, key)
            # Admission on the second hit: a value read once stays a
            # share here (N/X at rest); only a re-read keeps it whole.
            if self._decoded_once.pop(key, None) == entry.version:
                self.store.put(key, data, size, entry.version,
                               complete=True, group=group)
                self._cache_decoded(node, instance, value)  # batch or plain
            else:
                self._decoded_once[key] = entry.version
            self._reply_read(key, size, data, start, respond)

        self._gather_shares(group, instance, value_id, share, on_value)

    def _gather_shares(
        self, group: int, instance: int, value_id: str, seed_share, on_value
    ) -> None:
        """Collect coded shares of a decided value from peers until it
        is reconstructible, then call ``on_value(value)``.

        The number of shares needed comes from the *shares' own* coding
        configuration (not the group's current one): values written
        before a view change keep their original θ(X, N) and must be
        gathered under it. Whom to ask, how many at once, hedging and
        cycling are ``ShareFetch.gather``'s; a reader is waiting, so
        each fetch gets 8 retransmissions and an exhausted list cycles.
        """
        node = self.groups[group]
        shares: dict[int, object] = {}
        if seed_share is not None:
            shares[seed_share.index] = seed_share

        def first():
            return next(iter(shares.values()))

        def offer(reply, host: str, elapsed: float) -> bool:
            share = reply.share if isinstance(reply, ShareReply) else None
            if (
                share is None or share.value_id != value_id
                # never mix shares from different codings
                or (shares and share.config != first().config)
            ):
                return False
            shares[share.index] = share
            return True

        req = FetchShare(group=group, instance=instance, value_id=value_id)
        self.fetch.gather(
            req, req.wire_bytes, offer=offer,
            missing=lambda: max(0, (
                first().config.x if shares else node.config.coding.x
            ) - len(shares)),
            on_done=lambda: on_value(
                node.decode_from_shares(list(shares.values()))),
            timeout=0.5, retries=8,
        )

    def _on_fetch_share(self, msg: FetchShare, src: str, respond) -> None:
        if not self.up:
            return
        node = self.groups[msg.group]
        share = node.acceptor.accepted_share(msg.instance)
        if share is not None and (share.value_id != msg.value_id or share.corrupt):
            # Never serve a checksum-corrupt share: decoding with
            # rotten bytes reconstructs garbage silently.
            share = None
        if share is None:
            # Degraded-mode fallback: our stored fragment is gone or
            # rotten, but if we hold the full value (proposed here, or
            # cached) we can re-code the *requester's* fragment — one
            # share of traffic instead of X, per Rashmi et al.'s repair
            # cost argument.
            src_id = self._node_of(src)
            rec = node.chosen.get(msg.instance)
            if (
                src_id is not None
                and rec is not None
                and rec.value_id == msg.value_id
                and rec.value is not None
            ):
                share = node.recode_share_for(msg.instance, src_id)
        if msg.reason == "scrub":
            self.metrics.counter("scrub.fetches_served").inc(1)
        _reply(respond, ShareReply(share))

    # ------------------------------------------------------------------
    # background scrubber: detect and repair rotten coded shares
    # ------------------------------------------------------------------

    def inject_bit_rot(self, rng) -> bool:
        """Silently rot one durably stored coded share on this server.

        Picks a random durable accept record, invalidates its stored
        checksum (the WAL bytes decayed in place), and mirrors the
        damage into the in-memory acceptor/learner/store copies — they
        are cached views of the same durable bytes. ``rng`` is a numpy
        Generator (a named simulator substream, for determinism).
        Returns False when the server holds no accept records to rot.
        """
        candidates = [
            rec for rec in self.wal.durable
            if rec.valid and isinstance(rec.payload, Accept)
        ]
        if candidates:
            rec = candidates[int(rng.integers(len(candidates)))]
            self.wal.corrupt_record(rec.lsn)
            vote = rec.payload
            self._mark_share_corrupt(rec.tag, vote.instance, vote.share.value_id)
            self.metrics.counter("scrub.rot_injected").inc(1)
            self._trace(f"bit-rot g{rec.tag} inst={vote.instance} "
                        f"lsn={rec.lsn}", "scrub")
            return True
        # Every accept record may already be compacted into the
        # checkpoint; media decay does not care which file the bytes
        # live in, so rot a checkpoint-resident share instead.
        mem = [
            (g, inst, st.share)
            for g, node in enumerate(self.groups)
            for inst, st in sorted(node.acceptor.state.instances.items())
            if not st.share.corrupt
        ]
        if not mem:
            return False
        group, instance, share = mem[int(rng.integers(len(mem)))]
        self._mark_share_corrupt(group, instance, share.value_id)
        self.metrics.counter("scrub.rot_injected").inc(1)
        self._trace(f"bit-rot g{group} inst={instance} (checkpointed)",
                    "scrub")
        return True

    def _mark_share_corrupt(self, group: int, instance: int, value_id: str) -> None:
        """Flag every in-memory copy of a rotten stored share."""
        node = self.groups[group]
        st = node.acceptor.state.instances.get(instance)
        if (
            st is not None
            and st.share.value_id == value_id
            and not st.share.corrupt
        ):
            node.acceptor.state.instances[instance] = Accept(
                instance, st.ballot, st.share.corrupted())
        rec = node.chosen.get(instance)
        if (
            rec is not None
            and rec.value_id == value_id
            and rec.share is not None
            and not rec.share.corrupt
        ):
            rec = node.chosen[instance] = rec._replace(
                share=rec.share.corrupted())
            for key in self._put_keys_of(rec.share.meta):
                entry = self.store.get(key)
                if (
                    entry is not None
                    and instance_of(entry.version) == instance
                    and entry.group in (-1, group)
                    and not entry.complete
                    and isinstance(entry.value, CodedShare)
                ):
                    entry.value = rec.share

    def scrub_now(self) -> None:
        """One scrub pass: verify every durable record's checksum and
        start a repair for each corrupt coded share found — in the WAL
        and (post-compaction) in checkpoint-resident acceptor state."""
        if not self.up:
            return
        self.metrics.counter("scrub.passes").inc(1)
        wal_backed = {
            (rec.tag, rec.payload.instance) for rec in self.wal.durable
            if isinstance(rec.payload, Accept)
        }
        for rec in self.wal.verify():
            vote = rec.payload
            if not isinstance(vote, Accept):
                continue  # promise records carry no repairable payload
            key = (rec.tag, vote.instance)
            if key in self._scrubbing:
                continue
            self._scrubbing.add(key)
            self.metrics.counter("scrub.corrupt_found").inc(1)
            # The in-memory mirrors must agree before repair fetches
            # start, or we might serve the rotten copy meanwhile.
            self._mark_share_corrupt(rec.tag, vote.instance, vote.share.value_id)
            self._repair_share(rec.tag, rec.lsn, vote)
        # Shares whose WAL record was compacted away live only in memory
        # and the checkpoint; they have no LSN to rewrite but a repair
        # still restores the copies the next checkpoint will persist.
        for g, node in enumerate(self.groups):
            for inst, st in sorted(node.acceptor.state.instances.items()):
                if not st.share.corrupt:
                    continue
                key = (g, inst)
                if key in self._scrubbing or key in wal_backed:
                    continue
                rec_ = node.chosen.get(inst)
                if rec_ is not None and rec_.value_id != st.share.value_id:
                    continue  # losing vote, already quarantined in place
                self._scrubbing.add(key)
                self.metrics.counter("scrub.corrupt_found").inc(1)
                self._repair_share(g, None, st)

    def _repair_share(self, group: int, lsn: int | None, vote: Accept) -> None:
        """Reconstruct a checksum-valid replacement for the rotten share
        of ``vote``.

        Cheapest path first: a locally held full value re-encodes the
        fragment with zero network traffic. Otherwise gather clean
        shares (or a peer-re-coded fragment for our index) via
        FetchShare and RS-decode; all fetched share bytes are counted
        as repair traffic. If the cluster cannot currently supply
        enough clean shares the repair is deferred — the record stays
        corrupt and the next scrub pass retries. ``lsn`` is None for
        shares whose WAL record was already compacted away (only the
        in-memory/checkpoint copies need fixing).
        """
        node = self.groups[group]
        instance, share = vote.instance, vote.share
        value_id = share.value_id
        coding = share.config
        my_index = share.index
        key = (group, instance)
        rec = node.chosen.get(instance)
        if rec is not None and rec.value_id != value_id:
            # Rotten vote for a *losing* proposal: the instance decided
            # a different value, so this share can never be needed by
            # any future scan (a later proposal of value_id would
            # contradict the decision). Its bytes may be globally
            # unreconstructible — quarantine instead: rewrite the
            # record checksum-valid with the share durably flagged
            # corrupt, preserving the vote metadata.
            if lsn is not None:
                self.wal.rewrite_record(
                    lsn, Accept(instance, vote.ballot, share.corrupted()),
                    share.size,
                )
            self._scrubbing.discard(key)
            self.metrics.counter("scrub.quarantined").inc(1)
            return
        if rec is not None and rec.value_id == value_id and rec.value is not None:
            fixed = encode_one_share(rec.value, coding, my_index, share.members)
            self._install_repaired(
                group, lsn, Accept(instance, vote.ballot, fixed), 0)
            return

        # Otherwise gather as a read does (ShareFetch.gather), with a
        # background job's patience: two retransmissions per fetch, and
        # an exhausted list defers to the next pass. Each usable fetch's
        # latency lands in ``scrub.fetch_latency``; the whole gather,
        # waits for stragglers included, in ``scrub.repair_latency`` —
        # what the readpath gate compares against random selection.
        gathered: dict[int, CodedShare] = {}
        started = self.sim.now

        def offer(reply, host: str, elapsed: float) -> bool:
            s = reply.share if isinstance(reply, ShareReply) else None
            if (
                s is None or s.corrupt or s.value_id != value_id
                or s.config != coding
            ):
                return False
            self.metrics.histogram("scrub.fetch_latency").record(elapsed)
            gathered[s.index] = s
            return True

        def missing() -> int:
            if my_index in gathered:
                return 0  # a peer re-coded our exact fragment: install it
            return max(0, coding.x - len(gathered))

        def install() -> None:
            fixed = gathered.get(my_index)
            if fixed is None:
                value = node.decode_from_shares(list(gathered.values()))
                fixed = encode_one_share(value, coding, my_index, share.members)
            self.metrics.histogram("scrub.repair_latency").record(
                self.sim.now - started
            )
            self._install_repaired(
                group, lsn, Accept(instance, vote.ballot, fixed),
                sum(s.size for s in gathered.values()),
            )

        def defer() -> None:
            # Too many rotten/missing copies right now. Leave the record
            # corrupt; a later pass retries once peers recover or repair
            # their own copies.
            self._scrubbing.discard(key)
            self.metrics.counter("scrub.deferred").inc(1)

        req = FetchShare(
            group=group, instance=instance, value_id=value_id, reason="scrub"
        )
        self.fetch.gather(
            req, req.wire_bytes, missing=missing, offer=offer,
            on_done=install, on_exhausted=defer, timeout=0.5, retries=2,
        )

    def _install_repaired(
        self,
        group: int,
        lsn: int | None,
        repaired: Accept,
        repair_bytes: int,
    ) -> None:
        """Write the reconstructed share back: WAL record rewritten in
        place with ``repaired`` — the rotten vote's instance and ballot
        around the clean share (checksum recomputed, one device write) —
        and in-memory acceptor/learner/store copies replaced.
        With ``lsn`` None (record already compacted) only the in-memory
        copies are fixed; the next checkpoint persists them. Only ever
        runs while up: a crash retires the gather that would call it."""
        node = self.groups[group]
        instance, fixed = repaired.instance, repaired.share
        if lsn is not None:
            self.wal.rewrite_record(lsn, repaired, fixed.size)
        st = node.acceptor.state.instances.get(instance)
        if st is not None and st.share.value_id == fixed.value_id:
            node.acceptor.state.instances[instance] = Accept(
                instance, st.ballot, fixed)
        rec = node.chosen.get(instance)
        if rec is not None and rec.value_id == fixed.value_id:
            if rec.share is None or rec.share.corrupt:
                node.chosen[instance] = rec._replace(share=fixed)
            for key in self._put_keys_of(fixed.meta):
                entry = self.store.get(key)
                if (
                    entry is not None
                    and instance_of(entry.version) == instance
                    and entry.group in (-1, group)
                    and not entry.complete
                ):
                    entry.value = fixed
                    entry.size = fixed.size
        self._scrubbing.discard((group, instance))
        self.metrics.counter("scrub.repaired").inc(1)
        self.metrics.counter("scrub.repair_bytes").inc(repair_bytes)
        self._trace(f"repaired g{group} inst={instance} lsn={lsn} "
                    f"({repair_bytes}B fetched)", "scrub")

    # ------------------------------------------------------------------
    # checkpointing + WAL compaction
    # ------------------------------------------------------------------

    def checkpoint_now(self, on_done: Callable[[], None] | None = None) -> bool:
        """Persist applied KV state + acceptor metadata atomically, then
        truncate the WAL prefix the checkpoint subsumes.

        One device write replaces the *state part* (store map, view,
        floors, shard map, cursors: bounded by live data) and appends a
        *segment*: the acceptor/learner records and dedup keys that
        changed since the durable checkpoint, not all there ever were.

        The floor is ``last durable LSN + 1``: everything at or above it
        may still be pending in the group-commit window, so only the
        fully durable prefix is dropped. The checkpoint may *lead* the
        durable WAL (in-memory acceptor state mutates before the WAL
        append completes, §4.5) — that is strictly conservative: a
        recovered acceptor remembers votes it never acknowledged, and
        tail replay merges idempotently on top (ballot >= rule,
        version-monotone puts).
        """
        if not self.up or self._ckpt_inflight:
            return False
        self._ckpt_inflight = True
        floor_lsn = (
            self.wal.durable[-1].lsn + 1
            if self.wal.durable else self.wal.compaction_floor
        )
        group_floors = [node.apply_cursor for node in self.groups]
        state = {
            "groups": [node.export_cursors() for node in self.groups],
            "store": self.store.export_state(),
            "view": (self.view_epoch, tuple(sorted(self.member_ids)),
                     self.config),
            "floor_lsn": floor_lsn,
            "group_floors": group_floors,
            "shard_map": self.shard_map,
        }
        held = self._ckpt_held
        segment = {
            "groups": [(changed_records(node.acceptor.state.instances, acc),
                        changed_records(node.chosen, chosen))
                       for node, (acc, chosen)
                       in zip(self.groups, held["groups"])],
            "applied_ops": self.applied.since(held["applied_ops"]),
        }

        def durable() -> None:
            if not self.up:
                return
            self._ckpt_inflight = False
            self._hold_segment(segment)
            self.last_checkpoint_at = self.sim.now
            self.compact_floor = list(group_floors)
            dropped, dbytes = self.wal.truncate_prefix(floor_lsn)
            self.metrics.counter("ckpt.saves").inc(1)
            self.metrics.counter("ckpt.bytes").inc(size)
            self.metrics.counter("ckpt.records_compacted").inc(dropped)
            self.metrics.counter("ckpt.compacted_bytes").inc(dbytes)
            self.metrics.gauge(f"{self.name}.wal_bytes").set(
                self.wal.durable_bytes())
            self.metrics.gauge(f"{self.name}.checkpoint_bytes").set(
                self.checkpoint_store.stored_bytes())
            self._trace(f"checkpoint ({size}B, floor_lsn={floor_lsn}, "
                        f"compacted {dropped} records / {dbytes}B)", "ckpt")
            if on_done is not None:
                on_done()

        def failed() -> None:
            # Transient EIO: ``_ckpt_held`` did not move, so the next
            # interval's segment carries these records again.
            self._ckpt_inflight = False
            self.metrics.counter("ckpt.write_errors").inc(1)

        size = self.checkpoint_store.save(
            state, self.store.stored_bytes(), durable, failed,
            segment, self._segment_size(segment))
        return True

    def _empty_segment(self) -> dict:
        """``_ckpt_held`` of a server with no durable checkpoint."""
        return {"groups": [({}, {}) for _ in self.groups],
                "applied_ops": AppliedOps()}

    def _hold_segment(self, segment: dict) -> None:
        """Fold a segment that is durable into ``_ckpt_held``."""
        held = self._ckpt_held
        for (held_acc, held_chosen), (acc, chosen) in zip(
                held["groups"], segment["groups"]):
            held_acc.update(acc)
            held_chosen.update(chosen)
        held["applied_ops"].merge(segment["applied_ops"])

    @staticmethod
    def _segment_size(segment: dict) -> int:
        """Modeled bytes of a checkpoint segment, from its own content:
        acceptor share bytes + fixed per-record metadata + dedup keys.
        The leader's decoded-value cache rides along uncharged — a real
        implementation would persist shares only (a deliberate modeling
        simplification)."""
        size = 8 * len(segment["applied_ops"])
        for acc, chosen in segment["groups"]:
            size += 16 * (len(acc) + len(chosen))
            size += sum(st.share.size for st in acc.values())
        return size

    def _install_checkpoint(self, state: dict) -> None:
        """Load checkpointed state at recovery, before WAL tail replay:
        the state part, then every segment merged oldest-first."""
        for segment in self.checkpoint_store.segments:
            self._hold_segment(segment.payload)
        held = self._ckpt_held
        for node, cursors, (acc, chosen) in zip(
                self.groups, state["groups"], held["groups"]):
            node.install_snapshot(cursors, acc, chosen)
        self.store.install_state(state["store"])
        self.applied.reset()
        self.applied.merge(held["applied_ops"].since())
        self.compact_floor = list(state["group_floors"])
        ckpt_map = state.get("shard_map")
        if ckpt_map is not None and ckpt_map.version > self.shard_map.version:
            self.shard_map = ckpt_map
        epoch, members, config = state["view"]
        if epoch > self.view_epoch:
            self.view_epoch = epoch
            self.member_ids = set(members)
            self.config = config

    @property
    def eviction_events(self) -> list[tuple[float, int]]:
        """(t, node_id) for each removal this server's repair
        controller drove to completion (cumulative across crashes)."""
        return self.repair.eviction_events

    @property
    def replacement_events(self) -> list[tuple[float, int, float]]:
        """(t, node_id, time_to_restore) for each completed
        re-admission; time_to_restore runs from this controller's own
        eviction record (or its resume point after a leader change)."""
        return self.repair.replacement_events

    def durable_footprint(self) -> dict[str, int]:
        """Current durable byte usage (WAL + checkpoint) and cumulative
        compaction work; feeds the chaos episode summaries."""
        return {
            "wal_bytes": self.wal.durable_bytes(),
            "checkpoint_bytes": self.checkpoint_store.stored_bytes(),
            "checkpoint_bytes_written": self.checkpoint_store.bytes_written,
            "records_compacted": self.wal.records_compacted,
            "compacted_bytes": self.wal.compacted_bytes,
        }

    # ------------------------------------------------------------------
    # view change (§4.6 / §6.1)
    # ------------------------------------------------------------------

    def _shrunk_config(self, new_n: int):
        """The §6.1 shrink rule: keep the fault-tolerance target F and
        re-derive quorums/coding at the smaller N. For the paper's
        N=5, Q=4, θ(3,5) group this yields N=4, Q=3, θ(2,4). Classic
        Paxos shrinks to the smaller majority group."""
        from ..core import classic_paxos, rs_paxos

        if not self.config.is_erasure_coded:
            return classic_paxos(new_n)
        return rs_paxos(new_n, self.config.f)

    def reconfigure_remove(self, dead_id: int) -> None:
        """Drop ``dead_id`` from every Paxos group via view change.

        Leader-only. Client writes are fenced (NotReady) while the
        change runs; the §4.6 optimization-2 confirmation ensures every
        survivor holds its coded share of every chosen value before the
        smaller quorums take effect, so old data stays recoverable
        without re-coding.
        """
        if not self.is_leader_server or self._view_changing:
            return
        if dead_id not in self.member_ids or dead_id == self.node_id:
            return
        if len(self.member_ids) <= 3:
            return  # no meaningful smaller quorum system
        self._view_changing = True
        members = tuple(sorted(self.member_ids - {dead_id}))
        new_config = self._shrunk_config(len(members))
        self._trace(f"view change: drop {dead_id} -> "
                    f"N={new_config.n} Q={new_config.q_w} X={new_config.x}")
        self._drain_then(lambda: self._confirm_then_propose(members, new_config))

    #: Drain polls before an in-progress view change gives up (50 x
    #: 0.02 s = one second of proposals refusing to finish).
    DRAIN_BUDGET = 50

    def _drain_then(self, cont, budget: int | None = None) -> None:
        """Wait until no group has a proposal in flight, then ``cont``.

        Bounded: a wedged in-flight proposal (e.g. its write quorum
        vanished mid-accept) must not spin the view change forever
        while client writes stay fenced. After ``DRAIN_BUDGET`` polls
        the change aborts — ``view_changes_aborted`` ticks up, the
        fence lifts, and the repair controller (or operator) retries
        with backoff once the pipeline clears.
        """
        if not self.up:
            return
        budget = self.DRAIN_BUDGET if budget is None else budget
        if any(node._inflight for node in self.groups):
            if budget <= 0:
                self._view_changing = False
                self.view_changes_aborted += 1
                self.metrics.counter("view.aborted").inc(1)
                self._trace("view change aborted (drain budget spent)")
                return
            self.sim.call_after(
                0.02, lambda: self._drain_then(cont, budget - 1))
            return
        cont()

    def _confirm_then_propose(self, members: tuple[int, ...], new_config) -> None:
        """Optimization-2 confirmation, then the view-change instances."""
        if not self.up:
            return
        survivors = [m for m in members if m != self.node_id]
        pending = {"n": len(self.groups) * len(survivors)}
        if pending["n"] == 0:
            self._propose_view_change(members, new_config)
            return

        def one_done() -> None:
            pending["n"] -= 1
            if pending["n"] == 0:
                self._propose_view_change(members, new_config)

        for g, node in enumerate(self.groups):
            # Only instances above our compaction floor need placement
            # confirmation: everything below it is subsumed by the
            # checkpoint (snapshot transfer streams the latest version
            # per key, re-coded for the receiver), and superseded
            # pre-floor versions no longer have enough live shares to
            # gather once any survivor was rebuilt from a snapshot.
            floor = self.compact_floor[g]
            need = tuple(
                inst for inst, rec in sorted(node.chosen.items())
                if inst >= floor and self._put_keys_of(self._meta_of(rec))
            )
            req = ConfirmPlacement(group=g, upto=node.next_instance,
                                   instances=need)
            for m in survivors:
                self.endpoint.request(
                    self.peers[m], req, req.wire_bytes,
                    on_reply=lambda rep, g=g, m=m, done=one_done:
                        self._fill_gaps(g, m, rep, done),
                    timeout=1.0, retries=5,
                    on_timeout=one_done,  # unreachable survivor: proceed;
                    # it will catch up through the normal §4.5 path.
                )

    @staticmethod
    def _meta_of(rec):
        if rec.value is not None:
            return rec.value.meta
        if rec.share is not None:
            return rec.share.meta
        return None

    @staticmethod
    def _put_keys_of(meta) -> tuple[str, ...]:
        """Keys a decision wrote — drives placement confirmation and the
        scrubber's store-mirror bookkeeping, batch-aware."""
        if not isinstance(meta, Command):
            return ()
        if meta.op == "put" or (meta.op == "copy" and meta.arg != "tombstone"):
            return (meta.key,)
        if meta.op == "batch" and isinstance(meta.arg, BatchMeta):
            return tuple(i.key for i in meta.arg.items if i.op == "put")
        return ()

    def _fill_gaps(self, group: int, member: int, reply, done) -> None:
        if not self.up or not isinstance(reply, PlacementGaps):
            done()
            return
        node = self.groups[group]
        outstanding = {"n": len(reply.missing)}
        if outstanding["n"] == 0:
            done()
            return

        def sent_one() -> None:
            outstanding["n"] -= 1
            if outstanding["n"] == 0:
                done()

        for inst in reply.missing:
            rec = node.chosen.get(inst)
            if rec is None:
                sent_one()
                continue
            self._with_value(group, inst, rec, lambda rec, inst=inst: (
                self._send_install(group, member, inst, rec), sent_one()
            ))

    def _cache_decoded(self, node: PaxosNode, instance: int, value):
        """Keep a decoded value on the instance's chosen record if it
        has none; returns the record as it now stands (or None)."""
        rec = node.chosen.get(instance)
        if rec is not None and rec.value is None:
            rec = node.chosen[instance] = rec._replace(value=value)
        return rec

    def _with_value(self, group: int, instance: int, rec, cont) -> None:
        """``cont(rec)`` with the chosen record as it stands once it
        carries its full value (gathering shares from peers if this
        leader only holds a fragment)."""
        if rec.value is not None:
            cont(rec)
            return

        def on_value(value) -> None:
            # Kept: _send_install re-codes from the chosen record. Without
            # this cache and snapshot serving's, rs-paxos chaos seed 4
            # re-times into the free choice of DESIGN.md §5 "Rebuild gate".
            cont(self._cache_decoded(self.groups[group], instance, value)
                 or rec._replace(value=value))

        self._gather_shares(group, instance, rec.value_id, rec.share, on_value)

    def _decode_or_give_up(self, group: int, instance: int, value_id, seed,
                           cont, rec=None) -> None:
        """``cont(value)`` exactly once: with ``rec``'s value (through
        _with_value) or, with no record, one decoded from shares of
        ``value_id`` gathered around ``seed`` — or with None at once if
        ``value_id`` is None, or once a 3.0 s watchdog fires: one
        unreconstructible value must not stall a snapshot page or a
        migration."""
        fired = []

        def once(value) -> None:
            if not fired:
                fired.append(True)
                cont(value)

        self.sim.call_after(3.0, lambda: once(None))
        if rec is not None:
            self._with_value(group, instance, rec, lambda rec: once(rec.value))
        elif value_id is None:
            once(None)
        else:
            self._gather_shares(group, instance, value_id, seed, once)

    def _send_install(self, group: int, member: int, instance: int, rec) -> None:
        node = self.groups[group]
        share = node.recode_share_for(instance, member)
        if share is None:
            return
        msg = InstallShare(
            group=group, instance=instance, value_id=rec.value_id,
            share=share, meta=self._meta_of(rec),
        )
        self.endpoint.send(self.peers[member], msg, msg.wire_bytes)

    def _propose_view_change(self, members: tuple[int, ...], new_config) -> None:
        if not self.up:
            return
        nv = NewView(epoch=self.view_epoch + 1, members=members,
                     config=new_config)
        pending = {"n": len(self.groups)}
        removed = tuple(sorted(self.member_ids - set(members)))

        def decided(instance: int, v: Value) -> None:
            pending["n"] -= 1
            if pending["n"] == 0:
                self._view_changing = False
                self.view_changes_completed += 1
                # Commit fan-out switched to the new view's peer set the
                # moment the instance applied, so a *live* removed
                # member never hears its own removal and keeps acting
                # like a member. One farewell heartbeat carries the new
                # epoch; its view-epoch check pulls the shrink view via
                # catch-up and retires it.
                hb = Heartbeat(leader_id=self.node_id, seq=0,
                               ballot=self._leadership_ballot(),
                               view_epoch=self.view_epoch)
                for nid in removed:
                    if nid in self.peers:
                        self.endpoint.send(self.peers[nid], hb, hb.wire_bytes)
                self._trace("view change complete")

        for node in self.groups:
            value = Value(
                fresh_value_id(self.node_id), 0, None,
                meta=Command("view", "", nv),
            )
            try:
                node.propose(value, decided)
            except RuntimeError:
                # Lost leadership of this group mid-change (preempted):
                # abandon the view change; the new leader re-runs it.
                self._view_changing = False
                return

    def _apply_view_cmd(self, group: int, nv: NewView) -> None:
        """Runs at every replica when the view-change instance commits."""
        if not isinstance(nv, NewView):
            return
        node = self.groups[group]
        if self.node_id in nv.members:
            node.apply_view(
                nv.config, {m: self.peers[m] for m in nv.members}
            )
        else:
            node.retire()
        # Server-level bookkeeping once (first group to apply wins).
        if nv.epoch > self.view_epoch:
            self.view_epoch = nv.epoch
            self.member_ids = set(nv.members)
            self.config = nv.config
            if self.node_id not in nv.members:
                self.is_leader_server = False

    def _on_confirm_placement(self, msg: ConfirmPlacement, src: str, respond) -> None:
        if not self.up:
            return
        node = self.groups[msg.group]
        floor = self.compact_floor[msg.group]
        missing = tuple(
            inst for inst in msg.instances
            # Pre-floor instances are subsumed by our checkpoint; a
            # fragment for them is dead weight (and may be ungatherable
            # cluster-wide), so never report them as gaps.
            if inst >= floor
            and node.acceptor.accepted_share(inst) is None
            and not (
                inst in node.chosen and node.chosen[inst].share is not None
            )
        )
        _reply(respond, PlacementGaps(group=msg.group, missing=missing))

    def _on_install_share(self, msg: InstallShare, src: str) -> None:
        if not self.up:
            return
        node = self.groups[msg.group]
        rec = node.chosen.get(msg.instance)
        if rec is not None and rec.value_id == msg.value_id and rec.share is None:
            node.chosen[msg.instance] = rec._replace(share=msg.share)
        self._hold_share(node, msg.instance, node.acceptor.state.floor,
                         msg.share)
        # Reflect it in the local store too.
        if isinstance(msg.meta, Command) and msg.meta.op == "put":
            self.store.put(
                msg.meta.key, msg.share, msg.share.size, msg.instance,
                complete=False,
            )
        elif self._is_batch(msg.meta):
            # A batched share stands in for every key the batch wrote,
            # in frame order (later same-key commands win).
            items = msg.meta.arg.items if isinstance(msg.meta.arg, BatchMeta) else ()
            for item in items:
                if item.op == "put":
                    self.store.put(
                        item.key, msg.share, msg.share.size, msg.instance,
                        complete=False,
                    )
                elif item.op == "delete":
                    self.store.delete(item.key, msg.instance)

    # ------------------------------------------------------------------
    # catch-up and snapshot transfer (§4.5): what the Rebuild component
    # installs through the server, and the donor's side
    # ------------------------------------------------------------------

    def _commit_only(self, group: int, instance: int) -> bool:
        """Known by a Commit alone: the chosen id, no value or share?"""
        rec = self.groups[group].chosen.get(instance)
        return rec is not None and rec.value is None and rec.share is None

    def _install_entries(self, reply: CatchUpReply) -> None:
        node = self.groups[reply.group]
        for e in reply.entries:
            value = None
            if e.share is None and e.meta is not None:
                # No fragment came back (e.g. a zero-size delete/marker
                # from a non-leader): carry the command metadata so the
                # apply hook still sees the operation.
                value = Value(e.value_id, e.value_size, None, meta=e.meta)
            node.install_chosen(e.instance, ChosenRecord(
                value_id=e.value_id, ballot=node.acceptor.state.floor,
                value=value, share=e.share,
            ))

    def _install_page(self, page: SnapshotChunk) -> None:
        group = page.group
        node = self.groups[group]
        ballot = node.acceptor.state.floor
        for e in page.entries:
            # Store versions carry the shard-map era in their high bits;
            # log indexing (chosen records, acceptor state) uses the
            # bare Paxos instance.
            inst = instance_of(e.version)
            if e.tombstone:
                self.store.delete(e.key, e.version, group=group)
                continue
            share = e.share
            if share is not None and share.config.x == 1:
                # Classic Paxos: the "share" is the full value. For a
                # batch that is the whole frame: keep this key's slice.
                data, vsize = share.data, share.value_size
                if self._is_batch(e.meta):
                    data, vsize = self._payload_for_key(
                        Value(e.value_id, vsize, data, meta=e.meta), e.key)
                self.store.put(e.key, data, vsize, e.version, complete=True,
                               group=group)
            else:
                size = 0 if share is None else share.size
                self.store.put(e.key, share, size, e.version, complete=False,
                               group=group)
            node.install_chosen(inst, ChosenRecord(
                value_id=e.value_id, ballot=ballot, value=None, share=share))
            if share is not None:
                self._hold_share(node, inst, ballot, share)

    def _hold_share(self, node: PaxosNode, instance: int, ballot,
                    share) -> None:
        """Durably hold a received fragment like an accepted share
        (§4.5), so this node counts toward decodability again."""
        instances = node.acceptor.state.instances
        if instance not in instances:
            vote = instances[instance] = Accept(instance, ballot, share)
            node.wal.append(vote, share.size, lambda: None)

    def _adopt_snapshot(self, first: SnapshotChunk) -> None:
        """After a transfer's last page, adopt what its first page said
        the streamed state represents: the cursor, the dedup identities
        as of it, and the donor's ballot high-water mark (it feeds the
        observer's floor bump in _vote_again)."""
        group = first.group
        node = self.groups[group]
        node._max_ballot_seen = max(node._max_ballot_seen, first.max_ballot)
        self.applied.merge(first.applied_ops)
        snap_map = first.shard_map
        if snap_map is not None and snap_map.version > self.shard_map.version:
            # Shard commands write no KV state, so a joiner rebuilt from
            # a compacted donor would otherwise never learn the map.
            self.shard_map = snap_map
        if first.view_config is not None and first.view_epoch >= self.view_epoch:
            # The view changes behind the donor's view sit in the
            # compacted prefix: adopt their net effect, as log replay
            # would (retiring ourselves if evicted while down). ``>=``:
            # the first group's install bumps the server-level epoch, but
            # every group's node still needs its config/peer switch.
            self._apply_view_cmd(group, NewView(
                epoch=first.view_epoch, members=first.view_members,
                config=first.view_config,
            ))
        if first.floor > node.apply_cursor:
            node.apply_cursor = first.floor
        node.next_instance = max(node.next_instance, first.floor)
        node._advance_apply()
        self._release_skipped_waiters(group)

    def _vote_again(self, group: int) -> None:
        """``group`` is rebuilt: leave observer mode."""
        node = self.groups[group]
        if node.observer:
            # Refuse every ballot at or below everything learned during
            # the rebuild before voting again. This fences ballots, not
            # the instances whose votes were lost (DESIGN.md §5 "Rebuild
            # gate": what stays open); reconfigure-add fences fully.
            node.acceptor.state.floor = max(
                node.acceptor.state.floor, node._max_ballot_seen,
                self._hb_floor)
            node.observer = False

    def _node_of(self, host: str) -> int | None:
        """The node id of peer ``host`` (None: not a peer)."""
        return next((nid for nid, h in self.peers.items() if h == host), None)

    def _on_catch_up(self, msg: CatchUp, src: str, respond) -> None:
        if not self.up:
            return
        node = self.groups[msg.group]
        src_id = self._node_of(src)
        _reply(respond, catch_up_page(
            msg, self.compact_floor[msg.group], node.chosen,
            None if src_id is None
            else lambda inst: node.recode_share_for(inst, src_id),
        ))

    def _on_fetch_snapshot(self, msg: FetchSnapshot, src: str, respond) -> None:
        """Serve one snapshot page (``rebuild.snapshot_page``), each entry
        carrying a fragment re-coded for the requester — §4.5's "re-code
        the data and send the corresponding fragment", applied to
        whole-state transfer. Everything the page claims is read now,
        before any gather: its entries and, on the first page, the floor
        and the rest of the transfer's metadata (DESIGN.md §5)."""
        if not self.up:
            return
        group, src_id = msg.group, self._node_of(src)
        node = self.groups[group]
        pinned = [
            (k, self.store.get_entry(k)) for k in self.store.keys()
            if self._entry_group_of(k) == group and k > msg.cursor
        ]
        first = {} if msg.cursor else dict(
            first=True, floor=node.apply_cursor,
            applied_ops=self.applied.since(group=group),
            max_ballot=node._max_ballot_seen, view_epoch=self.view_epoch,
            view_members=tuple(sorted(self.member_ids)),
            view_config=self.config, shard_map=self.shard_map,
        )

        def send(chunk: SnapshotChunk) -> None:
            self.metrics.counter("rebuild.snapshots_served").inc(1)
            _reply(respond, chunk)

        snapshot_page(
            msg, pinned, first,
            lambda entry, cont: self._share_for_peer(group, entry, src_id, cont),
            send, lambda: self.up,
        )

    def _share_for_peer(self, group: int, entry, src_id, cont) -> None:
        """Produce ``src_id``'s coded fragment of a stored entry:
        re-encode from a locally held full value when possible, else
        gather >= X peer shares and decode first, like the scrubber.
        Calls ``cont(share, meta, value_id, value_size)``; share may be
        None (metadata-only entry) and value_id "" when the entry names
        no value."""
        node = self.groups[group]
        instance = instance_of(entry.version)
        rec = node.chosen.get(instance)
        own = entry.value if isinstance(entry.value, CodedShare) else None
        if own is None and rec is not None:
            own = rec.share
        if own is None:
            own = node.acceptor.accepted_share(instance)
        clean = own if own is not None and not own.corrupt else None
        value_id = rec.value_id if rec is not None else (
            own.value_id if own is not None else None)
        meta = self._meta_of(rec) if rec is not None else None
        if meta is None and own is not None:
            meta = own.meta
        if value_id is None:
            # Unreconstructible here: the joiner fills the hole from
            # another peer or a later catch-up pass.
            self.metrics.counter("rebuild.entries_skipped").inc(1)
            cont(None, None, "", 0)
            return

        def encode_for(value) -> None:
            coding, members = (
                (own.config, own.members) if own is not None
                else (node.config.coding, tuple(sorted(node.peers))))
            if src_id is None or src_id not in members:
                # Requester outside the stamped membership (value coded
                # before it joined): hand over our own clean fragment —
                # any X distinct clean shares decode.
                cont(clean, meta, value_id, value.size)
            else:
                cont(encode_one_share(value, coding, members.index(src_id),
                                      members), meta, value_id, value.size)

        def decoded(value) -> None:
            if value is None:
                cont(None, meta, value_id, 0)
                return
            # Kept (see _with_value): a retried or second transfer
            # re-codes this entry from the record instead of gathering.
            self._cache_decoded(node, instance, value)
            encode_for(value)

        if rec is not None and rec.value is not None:
            encode_for(rec.value)
        elif entry.complete and not self._is_batch(meta):
            encode_for(Value(value_id, entry.size, entry.value, meta=meta))
        elif clean is not None and clean.config.x == 1:
            cont(clean, meta, value_id, clean.value_size)  # a full copy
        else:  # only a fragment here: decode, then re-encode
            self._decode_or_give_up(group, instance, value_id, clean, decoded)

    # ------------------------------------------------------------------
    # reconfigure-add: re-admit a rebuilt node (§4.6 inverse of remove)
    # ------------------------------------------------------------------

    def _grown_config(self, new_n: int):
        """Inverse of the §6.1 shrink rule: keep the fault-tolerance
        target F and re-derive quorums/coding at the larger N. For the
        paper's group this restores N=5, Q=4, θ(3,5) after a rejoin.

        Growth needs no placement confirmation: the new read quorum
        Q_R' >= Q_R means any post-growth read quorum still contains at
        least Q_R - 1 >= X_old members of the old view, so values coded
        under the old θ stay recoverable without re-coding."""
        from ..core import classic_paxos, rs_paxos

        if not self.config.is_erasure_coded:
            return classic_paxos(new_n)
        return rs_paxos(new_n, self.config.f)

    def reconfigure_add(self, new_id: int) -> None:
        """Re-admit ``new_id`` to every Paxos group via view change.

        Leader-only. The inverse of :meth:`reconfigure_remove`: client
        writes are fenced while the change runs; once the view commits,
        every replica (including the rejoining node, which learns both
        view commands in log order through catch-up) adopts the grown
        quorum system, and the §4.5 rebuild path gives the newcomer its
        own RS fragments of pre-join values.
        """
        if not self.is_leader_server or self._view_changing:
            return
        if new_id in self.member_ids or new_id not in self.peers:
            return
        self._view_changing = True
        members = tuple(sorted(self.member_ids | {new_id}))
        new_config = self._grown_config(len(members))
        self._trace(f"view change: add {new_id} -> "
                    f"N={new_config.n} Q={new_config.q_w} X={new_config.x}")
        self._drain_then(lambda: self._propose_view_change(members, new_config))

    # ------------------------------------------------------------------
    # dynamic sharding: routing guards, rebalancer, migration driver
    # ------------------------------------------------------------------

    def _entry_group_of(self, key: str) -> int:
        """The Paxos group whose log *owns the stored entry* for a key:
        the group recorded at apply time when known, else the current
        map's route (static mode and pre-sharding entries)."""
        entry = self.store.get_entry(key)
        if entry is not None and entry.group >= 0:
            return entry.group
        return self.shard_map.group_of(key)

    def _account_write(self, group: int, key: str) -> None:
        """Per-group load window + bounded per-key write frequencies
        (the weighted-median sample for split boundaries)."""
        if not self.cfg.dynamic_shards:
            return
        self._group_load[group] += 1.0
        if key in self._key_freq or len(self._key_freq) < self._key_freq_cap:
            self._key_freq[key] = self._key_freq.get(key, 0) + 1

    def _shard_write_ok(self, msg, respond) -> bool:
        """Dynamic-sharding write admission, after the leader guard.

        Two refusals: the client piggybacked a *newer* map version than
        we have applied (our routing is stale — WrongShard, the client
        rotates while we catch up on the config log), and the fresh-
        leader config fence (NotReady until this leader has applied its
        whole config-group election barrier; accepting a write under a
        predecessor's newer map would stamp it with a stale era and a
        later copy could silently supersede the acknowledged value).
        """
        if not self.cfg.dynamic_shards:
            return True
        if msg.map_version > self.shard_map.version:
            self.wrong_shard_replies += 1
            self.metrics.counter("shard.wrong_shard").inc(1)
            _reply(respond,
                   WrongShard(msg.key, map_version=self.shard_map.version))
            return False
        cfg = self.cfg_group
        if self.groups[cfg].apply_cursor <= self._read_barrier[cfg]:
            _reply(respond, NotReady())
            return False
        return True

    def _group_slot_ok(self, group: int, tenant: str, respond) -> bool:
        """Per-group pipeline cap: a hot shard saturating one group's
        proposal pipeline sheds (Busy) instead of queueing the whole
        server into collapse — this is what makes a hot range *leader-
        bound per group* and splitting it measurably help."""
        if self.cfg.max_group_pipeline <= 0:
            return True
        node = self.groups[group]
        if len(node._inflight) < self.cfg.max_group_pipeline:
            return True
        self.metrics.counter("shard.group_shed").inc(1)
        if tenant:
            self.metrics.counter(f"admission.shed.{tenant}").inc(1)
        _reply(respond, Busy(retry_after=self.admission.retry_after(tenant)))
        return False

    def _maybe_fence_write(self, key: str, group: int) -> None:
        """Dual-write fence: while a migration is in flight, a write
        routed to the new owner of a migrating key also appends a no-op
        marker to the old owner's log. The old log therefore observes
        every cutover-window mutation's ordering, and any straggler
        state derived from it (catch-up of a lagging replica) cannot
        present the window as write-free."""
        if not self.cfg.dynamic_shards:
            return
        mig = self.shard_map.migrating
        if mig is None:
            return
        lo, hi, src, dst = mig
        if group != dst or src == dst:
            return
        if not (lo <= key and (hi is None or key < hi)):
            return
        value = Value(
            fresh_value_id(self.node_id), 0, None,
            meta=Command("fence", key, mapv=self.shard_map.version),
        )
        try:
            self.groups[src].propose(value, lambda inst, v: None)
        except RuntimeError:
            return  # lost src-group leadership; successor re-drives
        self.fence_writes += 1
        self.metrics.counter("shard.fence_writes").inc(1)

    def _apply_shard_cmd(self, group: int, cmd) -> None:
        """Runs at every replica when a shard instance commits on the
        config group: a pure CAS on the map version, so replays and
        duplicate proposals after failovers are no-ops."""
        if not isinstance(cmd, ShardCmd) or group != self.cfg_group:
            return
        if cmd.version <= self.shard_map.version:
            return
        was_migrating = self.shard_map.migrating
        self.shard_map = ShardMap(
            cmd.num_groups, version=cmd.version, ranges=cmd.ranges,
            migrating=cmd.migrating,
        )
        self.metrics.counter("shard.map_changes").inc(1)
        if was_migrating is not None and cmd.migrating is None:
            self.migrations_completed += 1
            self._migration_task = None
            self._key_freq.clear()  # stale medians for the moved range
        self._trace(f"shard map v{cmd.version} "
                    f"({len(cmd.ranges)} ranges"
                    + (f", migrating {cmd.migrating}" if cmd.migrating else "")
                    + ")", "shard")
        if cmd.migrating is not None and self.is_leader_server:
            # Deferred: we are inside the apply loop and the driver
            # proposes into other groups.
            self.sim.call_after(0.0, self._maybe_resume_migration)

    # -- migration driver (leader-resident, crash-resumable) -----------

    def _maybe_resume_migration(self) -> None:
        """Start/resume the copy phase if the replicated map says a
        migration is in flight and no local driver is running. Called
        on map apply and on winning an election — the authoritative
        in-flight marker is the map itself, so a successor leader picks
        up exactly where a crashed predecessor left off (the copy is
        idempotent: applies are era-guarded)."""
        if (
            not self.up
            or not self.cfg.dynamic_shards
            or not self.is_leader_server
            or self.shard_map.migrating is None
            or self._migration_task is not None
        ):
            return
        mapv = self.shard_map.version
        self._migration_task = mapv
        mig = self.shard_map.migrating
        hi = "+inf" if mig[1] is None else repr(mig[1])
        self._trace(f"migration driver v{mapv}: copy [{mig[0]!r}, {hi}) "
                    f"g{mig[2]} -> g{mig[3]}", "shard")
        src = mig[2]
        # Scan-wait: every write the *previous* map's owner could have
        # acknowledged is chosen at an instance below our election
        # barrier, hence below next_instance now. Wait until the source
        # group has applied that whole prefix locally, so the store
        # scan below observes every acked value.
        target = self.groups[src].next_instance
        self._await_src_applied(mapv, src, target, budget=500)

    def _migration_live(self, mapv: int) -> bool:
        return (
            self.up
            and self.is_leader_server
            and self._migration_task == mapv
            and self.shard_map.version == mapv
            and self.shard_map.migrating is not None
        )

    def _abort_migration(self, mapv: int, retry: float = 0.0) -> None:
        if self._migration_task == mapv:
            self._migration_task = None
            if retry > 0 and self.up:
                self.sim.call_after(retry, self._maybe_resume_migration)

    def _await_src_applied(
        self, mapv: int, src: int, target: int, budget: int,
    ) -> None:
        if not self._migration_live(mapv):
            return
        if self.groups[src].apply_cursor < target:
            if budget <= 0:
                # A wedged source instance: give up this attempt; the
                # retry re-captures the target and tries again.
                self._abort_migration(mapv, retry=0.5)
                return
            self.sim.call_after(
                0.02,
                lambda: self._await_src_applied(mapv, src, target, budget - 1),
            )
            return
        self._copy_range(mapv)

    def _copy_range(self, mapv: int) -> None:
        """Stream every stored key of the migrating range into the new
        owner group as era-stamped ``copy`` commands, a bounded window
        at a time, then propose the migration commit."""
        if not self._migration_live(mapv):
            return
        lo, hi, src, dst = self.shard_map.migrating
        keys = [
            k for k in self.store.keys()
            if lo <= k and (hi is None or k < hi)
        ]
        state = {"i": 0, "pending": 0, "failed": 0, "committed": False}

        def step() -> None:
            if not self._migration_live(mapv) or state["committed"]:
                return
            while state["i"] < len(keys) and state["pending"] < 8:
                key = keys[state["i"]]
                state["i"] += 1
                entry = self.store.get_entry(key)
                if entry is None or era_of(entry.version) >= mapv:
                    # Already copied this era, or rewritten through the
                    # new owner since the cutover — never regress it.
                    continue
                state["pending"] += 1
                if entry.tombstone:
                    propose_copy(key, 0, None, tombstone=True)
                else:
                    g = entry.group if entry.group >= 0 else src
                    self._materialize_for_copy(
                        g, key, entry,
                        lambda size, data, key=key: (
                            fail_one() if size is None
                            else propose_copy(key, size, data)
                        ),
                    )
            if state["i"] >= len(keys) and state["pending"] == 0:
                finish()

        def propose_copy(key, size, data, tombstone=False) -> None:
            if not self._migration_live(mapv):
                return
            value = Value(
                fresh_value_id(self.node_id), size, data,
                meta=Command(
                    "copy", key, arg="tombstone" if tombstone else None,
                    mapv=mapv,
                ),
            )
            try:
                self.groups[dst].propose(
                    value,
                    lambda inst, v: self._respond_after_apply(
                        dst, inst, done_one),
                )
            except RuntimeError:
                self._abort_migration(mapv)
                return
            self.copies_proposed += 1
            self.metrics.counter("shard.copies").inc(1)

        def fail_one() -> None:
            state["failed"] += 1
            done_one()

        def done_one() -> None:
            state["pending"] -= 1
            self.sim.call_after(0.0, step)

        def finish() -> None:
            if state["committed"] or not self._migration_live(mapv):
                return
            state["committed"] = True
            if state["failed"]:
                # Some values were unreconstructible right now (e.g.
                # too many peers down): retry the idempotent copy soon.
                self.metrics.counter("shard.copy_retries").inc(1)
                self._abort_migration(mapv, retry=0.5)
                return
            committed = self.shard_map.commit_migration()
            if not self._propose_shard_cmd(committed):
                self._abort_migration(mapv)
                return
            self._trace(f"migration v{mapv} copies done ({state['i']} "
                        f"scanned), committing v{committed.version}", "shard")

        step()

    def _materialize_for_copy(self, group: int, key: str, entry, cont) -> None:
        """``cont(size, data)`` with the full current value of a stored
        entry (decode-and-gather when only a fragment is local), or
        ``cont(None, None)`` when unreconstructible right now."""
        if entry.complete:
            cont(entry.size, entry.value)
            return
        node = self.groups[group]
        inst = instance_of(entry.version)

        def decoded(value) -> None:
            if value is None:
                cont(None, None)  # the retry pass picks it up
            elif self._is_batch(value.meta):
                data, size = self._payload_for_key(value, key)
                cont(size, data)
            else:
                cont(value.size, value.data)

        share = node.acceptor.accepted_share(inst)
        usable = share is not None and not share.corrupt
        self._decode_or_give_up(group, inst,
                                share.value_id if usable else None, share,
                                decoded, rec=node.chosen.get(inst))

    def _propose_shard_cmd(self, new_map: ShardMap) -> bool:
        """Replicate a successor map through the config group."""
        cmd = ShardCmd(
            version=new_map.version, num_groups=new_map.num_groups,
            ranges=new_map.ranges, migrating=new_map.migrating,
        )
        value = Value(
            fresh_value_id(self.node_id), 0, None,
            meta=Command("shard", "", cmd),
        )
        try:
            self.groups[self.cfg_group].propose(value, lambda inst, v: None)
        except RuntimeError:
            return False
        self.metrics.counter("shard.cmds_proposed").inc(1)
        return True

    # -- load-driven rebalancer ----------------------------------------

    def _rebalance(self) -> None:
        """One load-accounting window (see _arm_background): fold it
        into the per-group EWMAs and, on the leader, split the hottest
        range or merge the coldest."""
        window = list(self._group_load)
        self._group_load = [0.0] * len(self.groups)
        for g, n in enumerate(window):
            self._load_ewma[g] = 0.7 * self._load_ewma[g] + 0.3 * n
        if not (self.is_leader_server and self.shard_map.is_range_map):
            self._key_freq.clear()  # follower samples go stale fast
            return
        hist = self.metrics.histogram("shard.group_load")
        for g in self.shard_map.active_groups():
            hist.record(self._load_ewma[g])
        if self.shard_map.migrating is not None:
            return  # one migration at a time
        active = self.shard_map.active_groups()
        loads = {g: self._load_ewma[g] for g in active}
        total = sum(loads.values())
        if total < 1.0:
            return  # idle window: nothing to learn
        # Compare against the *pool* mean, not the active mean: a
        # single group carrying the whole keyspace must look hot even
        # though it is also the average of the active set.
        mean = total / self.shard_map.num_groups
        hot = max(active, key=lambda g: loads[g])
        cold = min(active, key=lambda g: loads[g])
        if (
            loads[hot] > SPLIT_THRESHOLD * mean
            and self.shard_map.spare_groups()
        ):
            boundary = self._split_boundary(hot)
            if boundary is not None and self.force_split(boundary=boundary):
                return
        if len(active) >= 2 and loads[cold] < MERGE_THRESHOLD * mean:
            self.force_merge(group=cold)

    def _split_boundary(self, group: int) -> str | None:
        """Weighted-median key of a range: half the observed write
        traffic lands on each side. Falls back to the middle stored
        key when the frequency sample is empty."""
        span = self.shard_map.range_of(group)
        if span is None:
            return None
        lo, hi = span

        def in_range(k: str) -> bool:
            return lo <= k and (hi is None or k < hi)

        freq = sorted(
            (k, n) for k, n in self._key_freq.items()
            if in_range(k) and k > lo
        )
        if freq:
            total = sum(n for _k, n in freq)
            acc = 0
            for k, n in freq:
                acc += n
                if acc * 2 >= total:
                    return k
        keys = [k for k in self.store.keys() if in_range(k) and k > lo]
        return keys[len(keys) // 2] if keys else None

    def force_split(
        self, boundary: str | None = None, dst: int | None = None,
    ) -> bool:
        """Begin splitting the range containing ``boundary`` (default:
        the weighted median of the hottest range) into a spare group.
        Leader-only; True when the prepare ShardCmd was proposed."""
        if (
            not self.up or not self.cfg.dynamic_shards
            or not self.is_leader_server
            or not self.shard_map.is_range_map
            or self.shard_map.migrating is not None
        ):
            return False
        spares = self.shard_map.spare_groups()
        if not spares:
            return False
        if boundary is None:
            active = self.shard_map.active_groups()
            hot = max(active, key=lambda g: self._load_ewma[g])
            boundary = self._split_boundary(hot)
        if not boundary:
            return False
        if dst is None:
            dst = spares[0]
        try:
            new_map = self.shard_map.begin_split(boundary, dst)
        except ValueError:
            return False
        if not self._propose_shard_cmd(new_map):
            return False
        self.splits_started += 1
        self.metrics.counter("shard.splits").inc(1)
        self._trace(f"split at {boundary!r} -> g{dst} "
                    f"(v{new_map.version})", "shard")
        return True

    def force_merge(self, group: int | None = None) -> bool:
        """Begin merging a (default: the coldest) range into its
        neighbour; the emptied group returns to the spare pool.
        Leader-only; True when the prepare ShardCmd was proposed."""
        if (
            not self.up or not self.cfg.dynamic_shards
            or not self.is_leader_server
            or not self.shard_map.is_range_map
            or self.shard_map.migrating is not None
        ):
            return False
        active = self.shard_map.active_groups()
        if len(active) < 2:
            return False
        if group is None:
            group = min(active, key=lambda g: self._load_ewma[g])
        try:
            new_map = self.shard_map.begin_merge(group)
        except ValueError:
            return False
        if not self._propose_shard_cmd(new_map):
            return False
        self.merges_started += 1
        self.metrics.counter("shard.merges").inc(1)
        self._trace(f"merge g{group} -> g{new_map.migrating[3]} "
                    f"(v{new_map.version})", "shard")
        return True
