"""The replicated KV server (§4).

One :class:`KVServer` per host. It owns:

- one RPC endpoint + channel mux (all Paxos groups share the NIC);
- one disk + one shared WAL (all groups share the device, §6.1);
- one :class:`~repro.core.PaxosNode` per Paxos group (§4.2);
- the local KV store (§4.1), leader leases (§4.3), the read paths
  (§4.4, a ReadPath), crash/recovery + catch-up (§4.5) and leader election
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
from ..storage import Disk, DiskSpec, LocalStore, WalView, WriteAheadLog
from .admission import Admission, AdmissionSlot
from .batch import (
    BatchItem,
    BatchMeta,
    Batcher,
    FramedCommand,
    Parked,
    encode_frame,
    frame_payloads,
    frame_size,
    is_batch,
    meta_of,
    payload_for_key,
)
from .checkpointer import Checkpointer
from .config import ServerConfig
from .dedup import AppliedOps
from .messages import (
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
    Heartbeat,
    HeartbeatAck,
    InstallShare,
    NewView,
    NotReady,
    PreVote,
    PreVoteReply,
    ProbeSpare,
    PutOk,
    ReadIndex,
    Redirect,
    ShardCmd,
    ShareReply,
    SnapshotChunk,
    SpareStatus,
    WhoLeads,
    WrongShard,
)
from .membership import AccrualFailureDetector, RepairController
from .reads import ReadPath
from .rebuild import Rebuild, catch_up_page, snapshot_page
from .reconfig import Reconfig
from .scrubber import Scrubber
from .sharefetch import ShareFetch
from .shard import ShardMap, encode_version, era_of, instance_of


#: Load-driven rebalancer (``_rebalance``): split the hottest range
#: into a spare group when its load EWMA exceeds SPLIT_THRESHOLD × the
#: pool-mean load; merge the coldest into its neighbour when it falls
#: below MERGE_THRESHOLD × the mean (and at least two ranges exist).
SPLIT_THRESHOLD = 2.0
MERGE_THRESHOLD = 0.25


def _reply(respond, msg) -> None:
    """Answer a request with ``msg`` at its modeled wire size."""
    respond(msg, msg.wire_bytes)


def _refuse(parked) -> None:
    """Answer parked commands NotReady: their batch was never proposed."""
    for e in parked:
        _reply(e.respond, NotReady())


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
            node.on_missing_value = (lambda instance, source=None, g=g:
                                     self.rebuild.missing(g, instance, source))
            node.prepare_gate = self._prepare_gate
            self.groups.append(node)

        self.up = True
        # Node 0 elects itself at start(); a recovering server knows
        # no leader until it hears one.
        self.current_leader: int | None = 0
        self._reset_volatile()
        # Heartbeat rounds and pre-vote rounds are numbered across
        # crashes, so a late answer never matches a newer round.
        self._hb_seq = 0
        self._pre_vote_round = 0
        # Check-quorum: a leader whose lease stays expired past this
        # grace (it cannot hear a renewal quorum) demotes itself instead
        # of limping on — the cluster's other side may already be
        # electing, and a deaf leader serving stale lease reads is the
        # failure mode the lease math exists to prevent.
        self.check_quorum_grace = 2 * cfg.lease_config.heartbeat_interval
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
        # the client of its gathers (_gather_shares, the scrubber's repairs).
        self.fetch = ShareFetch(
            sim, [h for nid, h in sorted(peers.items()) if nid != node_id],
            request=self.endpoint.request,
            cancel_request=self.endpoint.cancel_request,
            rto=self.endpoint.rto, peer_stats=self.endpoint.peer_stats,
            rng=sim.rng.stream(f"{name}.select"),
        )

        # Catch-up and replica rebuild (wipe + rejoin): the Rebuild
        # component asks peers and decides when a group is rebuilt; the
        # server installs what arrives (DESIGN.md §4).
        self.rebuild = Rebuild(
            sim, sources=self.fetch, request=self.endpoint.request,
            cursor=lambda group: self.groups[group].apply_cursor,
            unknown=self._unknown,
            install_entries=self._install_entries,
            install_page=self._install_page, adopt=self._adopt_snapshot,
            on_rebuilt=self._vote_again,
            count=lambda name, n: self.metrics.counter(name).inc(n),
            trace=self.trace,
        )

        # The one write pipeline: every admitted write and consistent-
        # read marker is parked in the Batcher, and ``_close_batch``
        # proposes each batch it closes as ONE Paxos value (one RS
        # encode, one WAL append, one Accept round). The apply path
        # unpacks it and releases each parked client reply.
        self.batcher = Batcher(
            sim, cfg.batch_max_commands, cfg.batch_max_bytes,
            cfg.batch_linger, self._close_batch,
        )
        self.batches_proposed = 0

        # The read modes, the election read barrier, both sides of
        # read-index and the second-hit rule live in the ReadPath
        # component; the server answers for leadership, log and store.
        self.reads = ReadPath(
            sim, self.store, self.metrics, len(self.groups), self.cfg_group,
            leader_guard=self._leader_guard,
            lease_ready=lambda: (
                self.is_leader_server and not self._electing
                and not self.reconfig.view_changing
                and self.lease.held_by_leader()),
            leader_host=lambda: (
                None if self.current_leader in (None, self.node_id)
                else self.peers.get(self.current_leader)),
            shard_map=lambda: self.shard_map,
            cursor=lambda group: self.groups[group].apply_cursor,
            after_apply=self.after_apply,
            request=self.endpoint.request, admit=self._admit,
            park=self.batcher.add,
            chosen=lambda group, i: self.groups[group].chosen.get(i),
            retired=lambda group, i: self.groups[group].retired(i),
            gather=self._gather_shares,
            cache=lambda g, i, v: self._cache_decoded(self.groups[g], i, v),
        )

        # Checkpoints and WAL compaction (off when checkpoint_interval
        # is 0): kvstore/checkpointer.py.
        self.checkpointer = Checkpointer(self)
        # Bit rot, scrub passes and share repair: kvstore/scrubber.py.
        self.scrubber = Scrubber(self)

        # Dynamic sharding: the leader-resident rebalancer (its load
        # windows are volatile, see _reset_volatile). ``_key_freq_cap``
        # bounds the per-key write counts kept for a split boundary.
        self._key_freq_cap = 512
        self.splits_started = 0
        self.merges_started = 0
        self.fence_writes = 0
        self.wrong_shard_replies = 0

        # View / reconfiguration state (§4.6) and the self-healing
        # membership subsystem riding on it. ``auto_reconfigure``
        # enables accrual-detector-driven eviction of silent members
        # (§6.1's "drop the dead member so the next failure is
        # survivable"); ``auto_heal`` additionally closes the loop —
        # probe the evicted slot for a rebuilt spare and re-admit it
        # via reconfigure_add, restoring full redundancy.
        self.detector = AccrualFailureDetector(
            heartbeat_interval=cfg.lease_config.heartbeat_interval,
        )
        # View changes and shard migrations: one driver, resumed from
        # replicated markers (kvstore/reconfig.py).
        self.reconfig = Reconfig(self, NewView(
            epoch=0, members=tuple(sorted(peers)), config=config))
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
        self.endpoint.on_request(WhoLeads, self._on_who_leads)
        # Server-server.
        self.endpoint.on(Heartbeat, self._on_heartbeat)
        self.endpoint.on(HeartbeatAck, self._on_heartbeat_ack)
        self.endpoint.on(PreVote, self._on_pre_vote)
        self.endpoint.on(PreVoteReply, self._on_pre_vote_reply)
        self.endpoint.on_request_async(FetchShare, self._on_fetch_share)
        self.endpoint.on_request_async(ReadIndex, self.reads.on_read_index)
        self.endpoint.on_request_async(CatchUp, self._on_catch_up)
        self.endpoint.on_request_async(FetchSnapshot, self._on_fetch_snapshot)
        self.endpoint.on_request_async(ConfirmPlacement,
                                       self.reconfig.on_confirm_placement)
        self.endpoint.on(InstallShare, self.reconfig.on_install_share)
        self.endpoint.on_request_async(ProbeSpare, self._on_probe_spare)

    # Read-only views for gates, reports and invariant probes.

    @property
    def requests_shed(self) -> int:
        return self.admission.shed

    @property
    def requests_shed_by_tenant(self) -> dict[str, int]:
        return self.admission.shed_by_tenant

    # benchmarks/perf reads these four by name.
    fast_reads = property(lambda self: self.reads.fast_reads)
    consistent_reads = property(lambda self: self.reads.consistent_reads)
    recovery_reads = property(lambda self: self.reads.recovery_reads)
    degraded_reads = property(lambda self: self.reads.degraded_reads)

    # The protocol's view (N, quorums, coding; members; epoch): the
    # newest any group applied. Groups differ only while a view change
    # is being finished (kvstore/reconfig.py).
    config = property(lambda self: self.reconfig.newest().config)
    member_ids = property(lambda self: set(self.reconfig.newest().members))
    view_epoch = property(lambda self: self.reconfig.newest().epoch)

    # benchmarks/perf reads its ``saves``.
    checkpoint_store = property(lambda self: self.checkpointer.store)

    @property
    def rebuilding(self) -> bool:
        """Wiped and not yet rebuilt: an observer in at least one group."""
        return bool(self.rebuild.pending)

    def trace(self, text: str, layer: str = "kv") -> None:
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
        """Fail-stop: the host is unreachable and everything it started
        ends with it (DESIGN.md §4 "The crash rule"). Each component
        forgets its volatile state and cancels its own timers; the
        endpoint retires every request in flight, so no reply, timeout
        or suspicion of this incarnation ever runs a continuation. What
        no component owns is reset by _reset_volatile."""
        self.up = False
        self.net.crash_host(self.name)
        for reset in (
            self.endpoint.reset, *(node.crash for node in self.groups),
            self.checkpointer.crash, self.scrubber.crash, self.store.clear,
            self.reconfig.reset, self.detector.reset, self.repair.reset,
            self.applied.reset, self.reads.reset, self.fetch.reset,
            self.rebuild.reset, self.admission.flush, self.batcher.flush,
            *(timer.cancel for timer in self._timers.values()),
        ):
            reset()
        self._reset_volatile()

    def _reset_volatile(self) -> None:
        """The server's own volatile state, as a new server has it and
        a crash leaves it. ``shard_map`` is not here on purpose: applied
        map versions were chosen by a quorum, so the in-memory map is
        correct cluster state even if the local WAL tail was lost;
        replay and catch-up re-apply older versions as no-ops."""
        self.is_leader_server = False
        self._electing = False
        # Pending timers by job name (_arm_background, _arm_election,
        # _defer_pre_vote, decode_or_give_up).
        self._timers: dict[str, object] = {}
        # Group -> its apply cursor at the previous monitor tick
        # (_poll_stalled_cursors).
        self._cursor_seen: dict[int, int] = {}
        # Lease safety state (§4.3 done right under partitions):
        # followers only honor heartbeats at or above this ballot, and
        # the leader only treats its lease as renewed once a heartbeat
        # round is acked by enough followers to guarantee overlap with
        # any future electing read quorum.
        self._hb_floor: Ballot = NULL_BALLOT
        self._hb_rounds: dict[int, tuple[float, set[int]]] = {}
        # Pre-vote (partial-partition tolerance): a vacancy-timeout
        # candidate first asks whether the leader looks dead to a read
        # quorum, and only bumps a real ballot once Q_R members
        # (including itself) concur. Grants are stateless opinions, so
        # a one-way-deaf follower probing forever cannot depose a
        # healthy leader. ``_pre_vote_state`` is (round_id, grants).
        self._pre_vote_state: tuple[int, set[int]] | None = None
        self._lease_lost_since: float | None = None
        # Failure detection inputs (_on_heartbeat_ack, _on_pre_vote) and
        # the last view sync a heartbeat triggered.
        self._last_ack: dict[int, float] = {}
        self._last_pre_vote_seen: float | None = None
        self._last_view_sync = float("-inf")
        # Client responses parked until the decided instance is applied
        # locally (read-your-writes: PutOk must imply visibility).
        self._apply_waiters: dict[tuple[int, int], list[Callable[[], None]]] = {}
        # Rebalancer windows: admitted mutations per group in the
        # current window, their EWMA across windows, and bounded per-key
        # write counts for a weighted-median split boundary.
        self._group_load: list[float] = [0.0] * len(self.groups)
        self._load_ewma: list[float] = [0.0] * len(self.groups)
        self._key_freq: dict[str, int] = {}

    def wipe(self) -> None:
        """Catastrophic failure: the host goes down AND its disk is lost
        (WAL + checkpoint). The next :meth:`recover` starts from
        nothing and must rebuild via snapshot transfer, voting
        suspended (observer mode) until the rebuild completes —
        an amnesiac acceptor re-voting could contradict promises it
        made before the wipe."""
        self.crash()
        self.wal.wipe()
        self.checkpointer.wipe()
        self.rebuild.pending = set(range(len(self.groups)))
        self.trace("disk wiped")

    def recover(self) -> None:
        """Restart from durable state and catch up from the leader (§4.5).

        Recovery order: checkpoint first (bulk state), then per-group
        WAL tail replay merges on top of it (replay is idempotent —
        acceptor records merge under ballot >=, store puts are
        version-monotone). A wiped server has neither, and one whose
        checkpoint cannot be loaded has lost the WAL prefix it covered:
        either enters observer mode and rebuilds from peers via
        snapshot transfer."""
        self.up = True
        self.net.recover_host(self.name)
        if self.checkpointer.recover():
            self.trace("checkpoint unreadable")
            self.rebuild.pending = set(range(len(self.groups)))
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
             cfg.scrub_interval * (1.0 + 0.1 * stagger), self.scrubber.scrub),
            ("checkpoint", cfg.checkpoint_interval,
             cfg.checkpoint_interval * (1.0 + 0.07 * stagger),
             self.checkpointer.save),
            ("rebalance", cfg.rebalance_interval,
             cfg.rebalance_interval * (1.0 + 0.1 * stagger), self._rebalance),
        ):
            if interval > 0:
                self._every(name, interval, first, job)

    def _every(self, name: str, interval: float, first: float, job) -> None:
        """Run ``job`` every ``interval`` seconds while up, the first
        time after ``first``."""
        def tick() -> None:
            job()
            self._timers[name] = self.sim.call_after(interval, tick)

        self._timers[name] = self.sim.call_after(first, tick)

    # ------------------------------------------------------------------
    # leases, heartbeats, election
    # ------------------------------------------------------------------

    def _monitor(self) -> None:
        """Heartbeat-cadence upkeep (see _arm_background): the leader's
        heartbeats and check-quorum; a follower's election deadline."""
        self._poll_stalled_cursors()
        if self.is_leader_server:
            if self._check_quorum_lapsed():
                self._step_down("check-quorum")
            else:
                self._send_heartbeats()
        elif not self._electing:
            self._arm_election()

    def _arm_election(self) -> None:
        """Elect the instant the lease lapses (§4.3: Δ + δ after the last
        heartbeat heard), not at the first tick after it. A tick that
        sees the lapse come before the next tick arms one timer at it,
        so a follower that hears its leader schedules nothing. Candidates
        are staggered in ring order after the failed leader so the next
        replica usually wins uncontested (§4.5). A heartbeat cancels the
        timer (_on_heartbeat)."""
        beat = self.cfg.lease_config.heartbeat_interval
        wait = self.lease.remaining_follower_wait()
        if wait >= beat:
            return
        last = self.current_leader if self.current_leader is not None else 0
        rank = (self.node_id - last - 1) % len(self.peers)
        self._timers["elect"] = self.sim.call_after(
            wait + rank * beat * 0.5, self._maybe_elect)
        self._electing = True

    def _poll_stalled_cursors(self) -> None:
        """Ask peers for an instance a follower's apply cursor stands
        on. A Commit is one-way: a follower that misses one holds no
        record of the instance, its cursor stops there while later
        instances are learned, and no other path fetches it. A cursor
        that stood at such an instance since the previous tick, with a
        later instance learned, is stalled (Rebuild.missing polls until
        the instance arrives). A leader decides its own instances, and
        an observer's group is the rebuild's to pull."""
        seen = self._cursor_seen
        for g, node in enumerate(self.groups):
            cursor = node.apply_cursor
            if (seen.get(g) == cursor and cursor not in node.chosen
                    and not node.is_leader and not node.observer
                    and max(node.chosen, default=cursor) > cursor):
                self.rebuild.missing(g, cursor)
            seen[g] = cursor

    def _maybe_elect(self) -> None:
        # The lease has lapsed: a heartbeat since the timer was armed
        # would have cancelled it.
        if self.is_leader_server:
            return
        if self.rebuilding:
            # Still amnesiac: our ballot counter may have reset, so a
            # fresh ballot could collide with one we issued pre-wipe.
            # Sit the election out until the rebuild restores
            # _max_ballot_seen from peers.
            self._electing = False
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
        self.trace(f"pre-vote {rid}")
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
        if msg.candidate_id in self.member_ids:
            # A member's vacancy timer lapsed — someone cannot hear the
            # leader. If that is us, connectivity is messy enough that
            # a partition is plausible: suppress eviction suspicion for
            # a grace window rather than risk dropping a healthy peer.
            self._last_pre_vote_seen = self.sim.now
        # Leader stickiness: grant only if our own vacancy timer lapsed
        # too. A rebuilding observer also refuses — it will not vote in
        # the real election, so its opinion would overpromise success.
        wait = self.lease.remaining_follower_wait()
        if (self.is_leader_server or self.rebuilding
                or wait >= self.cfg.rpc_timeout):
            self._answer_pre_vote(msg, src, False)
        elif wait == 0:
            self._answer_pre_vote(msg, src, True)
        else:
            self._defer_pre_vote(msg, src, wait)

    def _defer_pre_vote(self, msg: PreVote, src: str, wait: float) -> None:
        """Defer, don't drop (as _prepare_gate does a Prepare): a voter
        whose own wait ends within the candidate's round answers when
        it ends. The candidate lapsed first only because it heard the
        last heartbeat a little earlier; a refusal would cost the round
        and hand the election to the next candidate's stagger. The
        verdict is the one held then: a renewal in between — a heartbeat,
        or our own failed election — refuses, as does winning one (it
        invalidates the lease). The deferral is one of ``_timers``, so a
        crash ends it."""
        key = f"pre-vote {msg.candidate_id}.{msg.round}"
        if key in self._timers:
            return  # a duplicate of a probe already deferred
        renewed = self.lease.renewed_at

        def lapsed() -> None:
            del self._timers[key]
            self._answer_pre_vote(msg, src, self.lease.renewed_at == renewed)

        self._timers[key] = self.sim.call_after(wait, lapsed)

    def _answer_pre_vote(self, msg: PreVote, src: str, granted: bool) -> None:
        self.metrics.counter(
            "election.pre_vote_granted" if granted
            else "election.pre_vote_refused"
        ).inc(1)
        reply = PreVoteReply(
            voter_id=self.node_id, round=msg.round, granted=granted)
        self.endpoint.send(src, reply, reply.wire_bytes)

    def _on_pre_vote_reply(self, msg: PreVoteReply, src: str) -> None:
        if self._pre_vote_state is None:
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
        if self.is_leader_server:
            self._demote(f"steps down ({why})")
            self.lease.invalidate()

    def _demote(self, why: str) -> None:
        """Stop leading, counted once if this server led. What it was
        reconfiguring is its successor's to finish from the replicated
        markers; holding the write fence would wedge its own repair
        controller if it were re-elected."""
        if self.is_leader_server:
            self.trace(why)
            self.step_downs += 1
            self.metrics.counter("election.step_down").inc(1)
            self._lease_lost_since = None
        self.is_leader_server = False
        self.current_leader = None
        for node in self.groups:
            node.step_down()
        self.reconfig.reset()
        self._flush_admissions()

    def _start_election(self) -> None:
        """Become leader of every group (batch prepare each)."""
        self._electing = True
        self.elections_started += 1
        self.metrics.counter("election.started").inc(1)
        pending = {"n": len(self.groups), "failed": False}
        self.trace("election start")

        def one_done(ok: bool) -> None:
            if not ok:
                pending["failed"] = True
            pending["n"] -= 1
            if pending["n"] == 0:
                self._election_finished(not pending["failed"])

        for node in self.groups:
            node.become_leader(one_done)

    def _election_finished(self, ok: bool) -> None:
        self._electing = False
        # A group preempted while the others still prepared stepped
        # down (_on_preempted): the election is lost with it.
        if not ok or not all(node.is_leader for node in self.groups):
            # Lost the race: give up the groups it did win, then wait
            # for the winner's heartbeats (or the next vacancy check
            # retries with a higher ballot).
            for node in self.groups:
                node.step_down()
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
        self.reads.elected([node.next_instance - 1 for node in self.groups])
        # Winning the prepare round grants *leadership*, not the lease:
        # fast reads stay disabled (NotReady) until the first heartbeat
        # round is acknowledged, which proves enough followers restarted
        # their vacancy timers for this ballot.
        self.lease.invalidate()
        self.trace("is leader")
        self._send_heartbeats()
        # A predecessor may have died mid-migration or mid-view-change:
        # the replicated markers say so, so finish what it started.
        self.reconfig.resume()

    def leadership_ballot(self) -> Ballot | None:
        return self.groups[0].leader_ballot if self.groups else None

    def _send_heartbeats(self) -> None:
        ballot = self.leadership_ballot()
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
            op_in_flight=self.reconfig.view_changing,
            suppressed=suppressed,
        )

    def _probe_spare(self, nid: int, cb) -> None:
        """Ask the replacement candidate for slot ``nid`` whether it is
        up and fully rebuilt; ``cb(None)`` on silence (still down)."""
        if nid not in self.peers:
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
        _reply(respond, SpareStatus(node_id=self.node_id,
                                    rebuilt=not self.rebuilding,
                                    view_epoch=self.view_epoch))

    def _on_heartbeat(self, msg: Heartbeat, src: str) -> None:
        if msg.ballot is not None and msg.ballot < self._hb_floor:
            # A deposed leader's heartbeat: acking it would extend a
            # lease we already helped invalidate. Stay silent; it steps
            # down when it hears the new leader (or its lease lapses).
            return
        if self.is_leader_server and msg.leader_id != self.node_id:
            ours = self.leadership_ballot()
            if msg.ballot is not None and ours is not None and msg.ballot < ours:
                return  # stale rival; our own heartbeats depose it
            # A higher-ballot leader exists: step down and follow it.
            self._demote(f"steps down for {msg.leader_id}")
        if msg.ballot is not None:
            self._hb_floor = max(self._hb_floor, msg.ballot)
        self.current_leader = msg.leader_id
        if msg.leader_id != self.node_id:
            self._electing = False
            elect = self._timers.pop("elect", None)
            if elect is not None:
                elect.cancel()
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
        self._demote(f"demoted (group {group})")

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
            return True, frame_payloads(rec.value.data, items)
        if rec.share is not None and rec.share.config.x == 1 and (
                not rec.share.corrupt):
            return True, frame_payloads(rec.share.data, items)
        return False, None

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

    def after_apply(
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
        if self.is_leader_server:
            if self._electing or self.reconfig.view_changing:
                _reply(respond, NotReady())
                return False
            return True
        _reply(respond, Redirect(self._leader_hint()))
        return False

    def _leader_hint(self) -> str | None:
        """The leader's host name as this server knows it, if any."""
        if self.is_leader_server:
            return self.name
        if self.current_leader is None:
            return None
        return self.peers.get(self.current_leader)

    def _on_who_leads(self, msg: WhoLeads, src: str):
        """A client's suspicion probe: name the leader, this server
        included."""
        reply = Redirect(self._leader_hint())
        return reply, reply.wire_bytes

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
        """Reset the admission pipeline on loss of leadership (a crash
        flushes both components without answering).

        Queued requests would otherwise wait on proposals this server
        can no longer drive; answer them NotReady so clients re-resolve
        the leader. Pending (not yet proposed) batches are failed the
        same way: the batch was never an instance, so none of its
        commands may be acked — atomicity on step-down."""
        queued = self.admission.flush()
        parked = self.batcher.flush()
        _refuse(parked)
        for respond in queued:
            _reply(respond, NotReady())

    def _close_batch(self, group: int, entries: list) -> None:
        """The Batcher's close: seal ``entries`` into one Paxos value
        and propose it. Every command is released together: all of them
        on decide+apply (each with its own reply), or none (the whole
        batch fails NotReady if leadership is already gone)."""
        if not self.is_leader_server or self.reconfig.view_changing:
            _refuse(entries)
            return
        n = len(entries)
        # Busy/shed accounting stays per command: each entry keeps its
        # own admission slot until its own reply fires, but its EWMA
        # contribution is the batch service time split across the batch.
        for e in entries:
            if isinstance(e.respond, AdmissionSlot):
                e.respond.svc_divisor = n
        # A batch of one is the plain command; only two or more pay the
        # frame.
        mapv = self.shard_map.version
        if n == 1:
            (e,) = entries
            value = Value(
                fresh_value_id(self.node_id), e.size, e.data,
                meta=Command(e.op, e.key, client=e.client, op_id=e.op_id,
                             mapv=mapv),
            )
        else:
            value = self._batch_value(entries, mapv)

        def decided(instance: int, v: Value) -> None:
            def release_all() -> None:
                for e in entries:
                    e.finish()

            self.after_apply(group, instance, release_all)

        self.batches_proposed += 1
        self.metrics.histogram("batch.commands").record(n)
        self.metrics.histogram("batch.bytes").record(value.size)
        try:
            self.groups[group].propose(value, decided)
        except RuntimeError:
            _refuse(entries)
            return
        self.metrics.counter("rs.encode_calls").inc(1)
        for e in entries:
            if e.op != "read":
                self._maybe_fence_write(e.key, group)

    def _batch_value(self, entries: list, mapv: int) -> Value:
        """``entries`` framed as one value: concrete iff every put
        carries real bytes, otherwise modeled by exact frame size."""
        items = tuple(
            BatchItem(e.op, e.key, e.size, e.client, e.op_id)
            for e in entries
        )
        payload = None
        if all(e.data is not None for e in entries if e.op == "put"):
            payload = encode_frame(tuple(
                FramedCommand(e.op, e.key, e.data or b"", e.client, e.op_id)
                for e in entries
            ))
        return Value(
            fresh_value_id(self.node_id), frame_size(items), payload,
            meta=Command("batch", "", arg=BatchMeta(items), mapv=mapv),
        )

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
            if start is not None:
                self.metrics.latency("write").record(self.sim.now - start)
                self.metrics.throughput("write").record(self.sim.now, msg.size)
            _reply(respond, PutOk(msg.key, map_version=self.shard_map.version))

        if self._group_slot_ok(group, msg.tenant, respond):
            self.batcher.add(group, Parked(
                op, msg.key, size, data, msg.client, msg.op_id,
                reply_now, respond,
            ))

    def _on_get(self, msg: ClientGet, src: str, respond) -> None:
        if not self._map_stale(msg, respond):
            self.reads.get(msg, respond)

    def _gather_shares(self, group: int, instance: int, value_id: str,
                       seed_share, on_value, gone=None, on_gone=None) -> None:
        """Collect coded shares of a decided value from peers until it
        is reconstructible, then call ``on_value(value)``.

        The number of shares needed comes from the *shares' own* coding
        configuration (not the group's current one): values written
        before a view change keep their original θ(X, N) and must be
        gathered under it. Whom to ask, how many at once, hedging and
        cycling are ``ShareFetch.gather``'s; a reader is waiting, so
        each fetch gets 8 retransmissions and an exhausted list cycles
        — until ``gone()``: then ``on_gone()`` (no peer may hold them).
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
            missing=lambda: 0 if gone and gone() else max(0, (
                first().config.x if shares else node.config.coding.x
            ) - len(shares)),
            on_done=lambda: on_gone() if gone and gone() else on_value(
                node.decode_from_shares(list(shares.values()))),
            timeout=0.5, retries=8,
        )

    def _on_fetch_share(self, msg: FetchShare, src: str, respond) -> None:
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
    # checkpointing + WAL compaction: kvstore/checkpointer.py
    # ------------------------------------------------------------------

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
    # reconfiguration (§4.6 / §6.1, shard migration): kvstore/reconfig.py
    # drives it; the server proposes, applies and gathers for it
    # ------------------------------------------------------------------

    def reconfigure_remove(self, dead_id: int) -> None:
        """Drop ``dead_id`` from every Paxos group via view change
        (leader-only; client writes are fenced while it runs)."""
        self.reconfig.remove(dead_id)

    def reconfigure_add(self, new_id: int) -> None:
        """Re-admit ``new_id`` to every Paxos group via view change."""
        self.reconfig.add(new_id)

    def propose(self, group: int, value: Value, on_decided) -> bool:
        """Propose ``value`` in ``group``; False once this server no
        longer leads the group."""
        try:
            self.groups[group].propose(value, on_decided)
        except RuntimeError:
            return False
        return True

    def _cache_decoded(self, node: PaxosNode, instance: int, value):
        """Keep a decoded value on the instance's chosen record if it
        has none; returns the record as it now stands (or None)."""
        rec = node.chosen.get(instance)
        if rec is not None and rec.value is None:
            rec = node.chosen[instance] = rec._replace(value=value)
        return rec

    def with_value(self, group: int, instance: int, rec, cont) -> None:
        """``cont(rec)`` with the chosen record as it stands once it
        carries its full value (gathering shares from peers if this
        leader only holds a fragment)."""
        if rec.value is not None:
            cont(rec)
            return

        def on_value(value) -> None:
            # Kept: an InstallShare re-codes from the chosen record. Without
            # this cache and snapshot serving's, rs-paxos chaos seed 4
            # re-times into the free choice of DESIGN.md §5 "Rebuild gate".
            cont(self._cache_decoded(self.groups[group], instance, value)
                 or rec._replace(value=value))

        self._gather_shares(group, instance, rec.value_id, rec.share, on_value)

    def decode_or_give_up(self, group: int, instance: int, value_id, seed,
                          cont, rec=None) -> None:
        """``cont(value)`` exactly once: with ``rec``'s value (through
        with_value) or, with no record, one decoded from shares of
        ``value_id`` gathered around ``seed`` — or with None at once if
        ``value_id`` is None, or once a 3.0 s watchdog fires: one
        unreconstructible value must not stall a snapshot page or a
        migration. The watchdog is one of ``_timers``, so a crash ends
        it with the gather."""
        fired = []
        key = f"give-up {id(fired)}"

        def once(value) -> None:
            if not fired:
                fired.append(True)
                self._timers.pop(key).cancel()
                cont(value)

        self._timers[key] = self.sim.call_after(3.0, lambda: once(None))
        if rec is not None:
            self.with_value(group, instance, rec, lambda rec: once(rec.value))
        elif value_id is None:
            once(None)
        else:
            self._gather_shares(group, instance, value_id, seed, once)

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
        if nv.epoch > self.view_epoch and self.node_id not in nv.members:
            self.is_leader_server = False
        self.reconfig.views[group] = nv
        self.reconfig.view_applied()

    # ------------------------------------------------------------------
    # catch-up and snapshot transfer (§4.5): what the Rebuild component
    # installs through the server, and the donor's side
    # ------------------------------------------------------------------

    def _unknown(self, group: int, instance: int) -> bool:
        """No record of ``instance``, or a Commit's chosen id alone?"""
        rec = self.groups[group].chosen.get(instance)
        return rec is None or (rec.value is None and rec.share is None)

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
                data, vsize = payload_for_key(
                    e.meta, share.data, share.value_size, e.key)
                self.store.put(e.key, data, vsize, e.version, complete=True,
                               group=group)
            else:
                size = 0 if share is None else share.size
                self.store.put(e.key, share, size, e.version, complete=False,
                               group=group)
            node.install_chosen(inst, ChosenRecord(
                value_id=e.value_id, ballot=ballot, value=None, share=share))
            if share is not None:
                self.hold_share(node, inst, ballot, share)

    def hold_share(self, node: PaxosNode, instance: int, ballot,
                   share) -> None:
        """Durably hold a received fragment like an accepted share
        (§4.5), so this node counts toward decodability again."""
        instances = node.acceptor.state.instances
        if not (instance in instances or node.retired(instance)):
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
        if (first.view is not None
                and first.view.epoch >= self.reconfig.views[group].epoch):
            # The view changes behind the donor group's view sit in the
            # compacted prefix: adopt their net effect, as log replay
            # would (retiring ourselves if evicted while down).
            self._apply_view_cmd(group, first.view)
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
        node = self.groups[msg.group]
        src_id = self._node_of(src)
        _reply(respond, catch_up_page(
            msg, node.retired_below, node.chosen,
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
        group, src_id = msg.group, self._node_of(src)
        node = self.groups[group]
        pinned = [
            (k, self.store.get_entry(k)) for k in self.store.keys()
            if self._entry_group_of(k) == group and k > msg.cursor
        ]
        first = {} if msg.cursor else dict(
            first=True, floor=node.apply_cursor,
            applied_ops=self.applied.since(group=group),
            max_ballot=node._max_ballot_seen,
            view=self.reconfig.views[group], shard_map=self.shard_map,
        )

        def send(chunk: SnapshotChunk) -> None:
            self.metrics.counter("rebuild.snapshots_served").inc(1)
            _reply(respond, chunk)

        snapshot_page(
            msg, pinned, first,
            lambda entry, cont: self._share_for_peer(group, entry, src_id, cont),
            send,
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
        meta = meta_of(rec) if rec is not None else None
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
            # Kept (see with_value): a retried or second transfer
            # re-codes this entry from the record instead of gathering.
            self._cache_decoded(node, instance, value)
            encode_for(value)

        if rec is not None and rec.value is not None:
            encode_for(rec.value)
        elif entry.complete and not is_batch(meta):
            encode_for(Value(value_id, entry.size, entry.value, meta=meta))
        elif clean is not None and clean.config.x == 1:
            cont(clean, meta, value_id, clean.value_size)  # a full copy
        else:  # only a fragment here: decode, then re-encode
            self.decode_or_give_up(group, instance, value_id, clean, decoded)

    # ------------------------------------------------------------------
    # dynamic sharding: routing guards and the rebalancer
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
        if self._map_stale(msg, respond):
            return False
        if not self.reads.caught_up(self.cfg_group):
            _reply(respond, NotReady())
            return False
        return True

    def _map_stale(self, msg, respond) -> bool:
        """Has the client seen a newer shard map than this replica has
        applied? Then our routing may be stale: refuse (WrongShard) and
        let the client rotate while we catch up on the config log."""
        if not self.cfg.dynamic_shards or (
                msg.map_version <= self.shard_map.version):
            return False
        self.wrong_shard_replies += 1
        self.metrics.counter("shard.wrong_shard").inc(1)
        _reply(respond, WrongShard(msg.key, map_version=self.shard_map.version))
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
        if not self.propose(src, value, lambda inst, v: None):
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
            self.reconfig.migration_committed()
            self._key_freq.clear()  # stale medians for the moved range
        self.trace(f"shard map v{cmd.version} "
                   f"({len(cmd.ranges)} ranges"
                   + (f", migrating {cmd.migrating}" if cmd.migrating else "")
                   + ")", "shard")
        if cmd.migrating is not None and self.is_leader_server:
            # Deferred: we are inside the apply loop and the driver
            # proposes into other groups.
            self.sim.call_after(0.0, self.reconfig.resume_migration)

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
            not self.cfg.dynamic_shards
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
        if not self.reconfig.propose_map(new_map):
            return False
        self.splits_started += 1
        self.metrics.counter("shard.splits").inc(1)
        self.trace(f"split at {boundary!r} -> g{dst} "
                   f"(v{new_map.version})", "shard")
        return True

    def force_merge(self, group: int | None = None) -> bool:
        """Begin merging a (default: the coldest) range into its
        neighbour; the emptied group returns to the spare pool.
        Leader-only; True when the prepare ShardCmd was proposed."""
        if (
            not self.cfg.dynamic_shards
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
        if not self.reconfig.propose_map(new_map):
            return False
        self.merges_started += 1
        self.metrics.counter("shard.merges").inc(1)
        self.trace(f"merge g{group} -> g{new_map.migrating[3]} "
                   f"(v{new_map.version})", "shard")
        return True
