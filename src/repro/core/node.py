"""A full (RS-)Paxos replica: acceptor + leader/proposer + learner.

One :class:`PaxosNode` per server per Paxos group. It binds the pure
state machines (:mod:`.acceptor`, :mod:`.proposer`) to the simulated
substrate: RPC endpoint (network costs), write-ahead log (disk costs)
and a modeled codec CPU cost.

Leader path (Multi-Paxos, §5):

1. :meth:`become_leader` runs one batch prepare covering all instances
   >= the first locally-unchosen one; on a read quorum of promises it
   runs the phase-1(c) scan and re-drives every unfinished instance it
   learned about (recovered values re-proposed, gaps filled with
   no-ops).
2. :meth:`propose` allocates the next instance, encodes the value under
   θ(X, N), sends each acceptor *its* coded share, and reports the
   value chosen on QW accepted votes.
3. Commit notifications are bundled and flushed off the critical path
   every ``commit_interval`` (§5 optimization 2).

Durability: acceptor handlers append to the WAL and reply only from the
flush-completion callback (§4.5).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

from ..rpc import Batch, RpcEndpoint
from ..sim import NULL_TRACER, Simulator, Tracer
from ..storage import WriteAheadLog, retirable
from .acceptor import Acceptor, AcceptorState
from .ballot import NULL_BALLOT, Ballot
from .messages import (
    META_BYTES,
    Accept,
    Accepted,
    Commit,
    Nack,
    Prepare,
    Promise,
)
from .proposer import PromiseTracker, VoteTracker, scan_promises
from .protocol import ProtocolConfig, UnsafeProtocolConfig
from .value import (
    CodedShare,
    Value,
    decode_value,
    encode_one_share,
    encode_value,
    fresh_value_id,
    value_digest,
)

AnyConfig = Union[ProtocolConfig, UnsafeProtocolConfig]


def noop_value(instance: int) -> Value:
    """Gap-filling no-op proposal used during leader takeover."""
    return Value(value_id=f"noop.{instance}", size=0, data=None)


def is_noop(value_id: str) -> bool:
    return value_id.startswith("noop.")


class ChosenRecord(NamedTuple):
    """What this node knows about a decided instance: an immutable
    value, replaced in ``PaxosNode.chosen`` (``_replace``) when a value
    or share is filled in — never mutated, like the acceptor's
    ``Accept`` records."""

    value_id: str
    ballot: Ballot
    value: Value | None = None  # full value (leader / decoded)
    share: CodedShare | None = None  # this node's coded share


@dataclass
class NodeStats:
    """Cost accounting for the evaluation (§6.2.3 CPU; byte counters
    come from the network/disk layers)."""

    encode_ops: int = 0
    decode_ops: int = 0
    cpu_seconds: float = 0.0
    proposals: int = 0
    chosen: int = 0
    preemptions: int = 0


class PaxosNode:
    """One replica of one Paxos group."""

    def __init__(
        self,
        sim: Simulator,
        endpoint: RpcEndpoint,
        wal: WriteAheadLog,
        config: AnyConfig,
        node_id: int,
        peers: dict[int, str],
        # Fallback retransmit timeout: prepare/accept rounds run with
        # adaptive per-peer timeouts (endpoint RTT estimator) and only
        # use this value until the first sample toward a peer exists.
        rpc_timeout: float = 0.25,
        commit_interval: float = 0.005,
        codec_bw: float = 2e9,
        tracer: Tracer = NULL_TRACER,
    ):
        if node_id not in peers:
            raise ValueError("peers must include this node")
        if len(peers) != config.n:
            raise ValueError(f"group size {len(peers)} != configured N={config.n}")
        self.sim = sim
        self.endpoint = endpoint
        self.wal = wal
        self.config = config
        self.node_id = node_id
        self.peers = dict(peers)
        self.members = tuple(sorted(peers))  # share i goes to members[i]
        self.rpc_timeout = rpc_timeout
        self.commit_interval = commit_interval
        self.codec_bw = codec_bw
        self.tracer = tracer
        self.stats = NodeStats()

        self.acceptor = Acceptor(node_id)
        self.chosen: dict[int, ChosenRecord] = {}
        self.next_instance = 0
        self.apply_cursor = 0
        # The value digest (value.value_digest) of every instance whose
        # learner record was retired, by instance (0 where none was):
        # what this node learned there, for a late learn and the
        # unique-choice probe — eight bytes, not a record, charged once
        # in the checkpoint segment that retires it. It rides on the
        # durable checkpoint, so a crash keeps it and a wipe loses it
        # (:meth:`retire_records`).
        self.retired_digests = array("Q")

        # Leader state.
        self.is_leader = False
        self.leader_ballot: Ballot | None = None
        self._max_ballot_seen: Ballot = NULL_BALLOT
        self._inflight: dict[int, Value] = {}
        self._decide_cbs: dict[int, Callable[[int, Value], None]] = {}
        self._pending_commits: list[Commit] = []
        self._commit_timer = None
        # Request ids of each Accept round not yet decided, by instance:
        # what a leader that loses its ballot cancels (step_down).
        self._rounds: dict[int, list[int]] = {}
        # Pending timers (_after) by sequence number: the lease-gate
        # deferrals of Prepares and the modeled encode delays, which a
        # crash or a retirement cancels.
        self._timers: dict[int, object] = {}
        self._timer_seq = 0
        self._down = False
        # (floor, host) while the apply cursor is short of a retirement
        # floor this node skipped to as leader: every stall below it
        # asks ``host`` first (_finish_prepare).
        self._floor_source: tuple[int, str] | None = None
        # Observer mode (rebuild safety): a replica recovering from
        # total local-state loss has forgotten its promises and accepted
        # votes, so letting it vote again could un-promise the past and
        # break Paxos safety. While ``observer`` is set the node still
        # learns commits and serves nothing, but refuses prepare/accept;
        # the KV layer clears it once the snapshot + tail catch-up has
        # restored state at least as advanced as anything it ever
        # acknowledged.
        self.observer = False

        # Hooks for the KV layer.
        self.on_apply: Callable[[int, ChosenRecord], None] | None = None
        self.on_preempted: Callable[[Ballot], None] | None = None
        # Called when the apply cursor stalls on an instance whose
        # decision id is known (via a Commit) but whose command is not
        # (neither a full value nor an accepted share) — the KV layer
        # fetches the missing value through catch-up (§4.5). A leader
        # that skipped to a promiser's retirement floor calls it too,
        # naming that promiser's host: it holds the instances, or a
        # checkpoint past them.
        self.on_missing_value: Callable[..., None] | None = None
        # Lease guard (§4.3): if set, called with the incoming Prepare
        # ballot; returns 0 to promise now, else how long to defer the
        # prepare before re-checking (a challenger must wait out the
        # incumbent's lease before this acceptor helps depose it).
        self.prepare_gate: Callable[[Ballot], float] | None = None

        endpoint.on_request_async(Prepare, self._handle_prepare)
        endpoint.on_request_async(Accept, self._handle_accept)
        endpoint.on(Commit, self._handle_commit)

    # ------------------------------------------------------------------
    # crash / recovery
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Lose all volatile state. Durable state stays in the WAL.
        The host's endpoint retires every request this node has out, so
        no reply of a round begun before the crash reaches it, and the
        node cancels its own timers, so no deferred Prepare or encode
        delay of this incarnation runs in the next."""
        self._down = True
        self.wal.crash()
        self._cancel_timers()
        if self._commit_timer is not None:
            self._commit_timer.cancel()
            self._commit_timer = None
        self.acceptor = Acceptor(self.node_id)
        self.chosen.clear()
        self.retired_digests = array("Q")  # the checkpoint keeps the old
        self._rounds.clear()
        self._inflight.clear()
        self._decide_cbs.clear()
        self._pending_commits.clear()
        self._floor_source = None
        self.is_leader = False
        self.leader_ballot = None
        self._max_ballot_seen = NULL_BALLOT
        self.next_instance = 0
        self.apply_cursor = 0

    def recover(self) -> None:
        """Rebuild acceptor state from the durable WAL (§4.5).

        Accept records whose payload checksum fails (bit-rot survived
        on media) are still replayed — the vote happened and must be
        remembered — but their share is installed flagged corrupt, so
        it is never served to peers or fed to the decoder until the
        scrubber repairs it.
        """
        self._down = False
        state = self.acceptor.state
        for rec in self.wal.recover():
            msg = rec.payload
            if isinstance(msg, Prepare):
                state.floor = max(state.floor, msg.ballot)
            elif self.retired(msg.instance):
                pass  # retired by the checkpoint: that vote stays gone
            else:
                if not rec.valid and not msg.share.corrupt:
                    msg = Accept(msg.instance, msg.ballot, msg.share.corrupted())
                st = state.instances.get(msg.instance)
                if st is None or msg.ballot >= st.ballot:
                    state.instances[msg.instance] = msg
            self._max_ballot_seen = max(self._max_ballot_seen, msg.ballot)

    def _after(self, delay: float, fn: Callable, *args) -> None:
        """``fn(*args)`` after ``delay`` seconds, unless this node
        crashes or is retired first (:meth:`_cancel_timers`)."""
        key = self._timer_seq
        self._timer_seq = key + 1

        def run() -> None:
            del self._timers[key]
            fn(*args)

        self._timers[key] = self.sim.call_after(delay, run)

    def _cancel_timers(self) -> None:
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def export_cursors(self) -> dict:
        """The scalars of this group's durable state, which every
        checkpoint replaces in full (the per-instance records it only
        appends to: ``Checkpointer.save``). A checkpoint retires
        the records below its apply cursor once it is durable
        (:meth:`retire_records`), so that cursor is the
        ``retired_below`` it names. The retired digests ride along by
        reference: each was charged 8 B once, in the segment of the save
        that retired its record, and they change only when a checkpoint
        turns durable, and are then that checkpoint's."""
        return {
            "floor": self.acceptor.state.floor,
            "apply_cursor": self.apply_cursor,
            "next_instance": self.next_instance,
            "max_ballot": self._max_ballot_seen,
            "retired_below": self.apply_cursor,
            "retired_digests": self.retired_digests,
        }

    def install_snapshot(self, cursors: dict, acc: dict, chosen: dict) -> None:
        """Install checkpointed state before WAL tail replay on
        recovery: the :meth:`export_cursors` of the last checkpoint and
        the acceptor/learner records by instance of all of them. The
        maps are copied (a later crash loads the same durable ones
        again), the records shared. ``max_ballot`` merges (never
        regresses a ballot learned since the snapshot)."""
        self.acceptor.restore_state(AcceptorState(
            cursors["floor"], dict(acc), cursors["retired_below"]))
        self.retired_digests = cursors["retired_digests"]
        self.chosen = dict(chosen)
        self.apply_cursor = cursors["apply_cursor"]
        self.next_instance = max(self.next_instance, cursors["next_instance"])
        self._max_ballot_seen = max(self._max_ballot_seen, cursors["max_ballot"])

    def retire_records(self, below: int, keep) -> None:
        """Forget the acceptor and learner records of every instance
        below ``below`` except those in ``keep``, once a durable
        checkpoint covers them all (every one is chosen and applied).
        A retired learner record leaves the digest of its value id in
        ``retired_digests``; a later learn of the instance is checked
        against it and otherwise ignored."""
        self.acceptor.retire(below, keep)
        chosen, digests = self.chosen, self.retired_digests
        for inst in retirable(chosen, below, keep):
            if inst >= len(digests):
                digests.frombytes(bytes(8 * (inst + 1 - len(digests))))
            digests[inst] = value_digest(chosen.pop(inst).value_id)

    @property
    def retired_below(self) -> int:
        """Below it every instance is chosen and checkpointed."""
        return self.acceptor.state.retired_below

    def retired(self, instance: int) -> bool:
        """Below the retirement floor with no learner record left: a
        durable checkpoint covers the instance, this node keeps nothing
        of it but the digest, and no leader will ask for a vote there."""
        return (instance < self.acceptor.state.retired_below
                and instance not in self.chosen)

    def retired_digest(self, instance: int) -> int:
        """The digest of the value id this node learned for
        ``instance`` before it retired the record, or 0."""
        digests = self.retired_digests
        return digests[instance] if instance < len(digests) else 0

    def _learn_retired(self, instance: int, value_id: str) -> None:
        """A learn of an instance below the retirement floor that has no
        record left changes nothing, but must agree with what was
        retired."""
        known = self.retired_digest(instance)
        if known and known != value_digest(value_id):
            raise ConsistencyViolation(
                f"instance {instance} decided twice: a retired value "
                f"then {value_id!r}"
            )

    # ------------------------------------------------------------------
    # acceptor handlers
    # ------------------------------------------------------------------

    def _handle_prepare(self, msg: Prepare, src: str, respond) -> None:
        if self._down or self.observer:
            return
        if self.prepare_gate is not None:
            wait = self.prepare_gate(msg.ballot)
            if wait > 0:
                # Defer, don't drop: the proposer's RPC timeout may be
                # far longer than the lease, so a dropped prepare would
                # stall failover. Re-handling re-checks the gate (and
                # the acceptor state, which may have moved on).
                self._after(wait, self._handle_prepare, msg, src, respond)
                return
        self._max_ballot_seen = max(self._max_ballot_seen, msg.ballot)
        reply, durable = self.acceptor.on_prepare(msg)
        if isinstance(reply, Nack):
            respond(reply, reply.wire_bytes)
            return
        self.tracer.emit(
            self.sim.now, "paxos",
            f"{self.endpoint.name} promise {msg.ballot} from_inst={msg.from_instance}",
        )
        self.wal.append(msg, durable, lambda: respond(reply, reply.wire_bytes))

    def _handle_accept(self, msg: Accept, src: str, respond) -> None:
        if self._down or self.observer:
            return
        self._max_ballot_seen = max(self._max_ballot_seen, msg.ballot)
        reply, durable = self.acceptor.on_accept(msg)
        if isinstance(reply, Nack):
            respond(reply, reply.wire_bytes)
            return
        rec = self.chosen.get(msg.instance)
        if (rec is not None and rec.share is None
                and rec.value_id == msg.share.value_id):
            # The Commit came first and found no vote to keep, so the
            # apply cursor may be stalled on this instance; peers that
            # never learned it cannot serve it to the missing-value poll.
            self.chosen[msg.instance] = rec._replace(share=msg.share)
            self._advance_apply()
        if self.tracer.enabled:
            self.tracer.emit(
                self.sim.now, "paxos",
                f"{self.endpoint.name} accepted inst={msg.instance} "
                f"{msg.ballot} {msg.share.value_id} share#{msg.share.index}",
            )
        self.wal.append(msg, durable, lambda: respond(reply, reply.wire_bytes))

    def _handle_commit(self, msg: Commit, src: str) -> None:
        if self._down:
            return
        self._learn(msg.instance, msg.ballot, msg.value_id, value=None)

    # ------------------------------------------------------------------
    # leader: batch prepare
    # ------------------------------------------------------------------

    def become_leader(self, on_ready: Callable[[bool], None]) -> None:
        """Run phase 1 for all instances >= the first unchosen one.

        Calls ``on_ready(True)`` once a read quorum has promised and all
        previously started instances have been re-driven; ``on_ready(False)``
        if preempted by a higher ballot (the caller may retry; the next
        attempt will use a ballot above everything seen).
        """
        if self._down:
            on_ready(False)
            return
        ballot = Ballot(self._max_ballot_seen.round + 1, self.node_id)
        self._max_ballot_seen = ballot
        from_instance = self._first_unchosen()
        msg = Prepare(ballot=ballot, from_instance=from_instance)
        tracker = PromiseTracker(ballot=ballot, quorum=self.config.q_r)
        finished = False
        self.tracer.emit(
            self.sim.now, "paxos",
            f"{self.endpoint.name} batch-prepare {ballot} from_inst={from_instance}",
        )

        def on_reply(acceptor_id: int, reply) -> None:
            nonlocal finished
            # A node retired mid-prepare must not take the lead.
            if finished or self._down:
                return
            if isinstance(reply, Nack):
                finished = True
                self._cancel(requests)
                self._max_ballot_seen = max(self._max_ballot_seen, reply.promised)
                self.stats.preemptions += 1
                on_ready(False)
                return
            if isinstance(reply, Promise) and tracker.record(acceptor_id, reply):
                finished = True
                self._cancel(requests)
                self._finish_prepare(ballot, from_instance, tracker, on_ready)

        requests = self._prepare_all(msg, on_reply)

    def _prepare_all(self, msg: Prepare, on_reply) -> list[int]:
        """Send ``msg`` to every peer; ``on_reply(node_id, reply)``.
        Returns the request ids, for :meth:`_cancel` once the phase
        ends: a Prepare nobody reads must not go on retransmitting."""
        return [
            self.endpoint.request(
                host, msg, msg.wire_bytes,
                on_reply=lambda r, nid=node_id: on_reply(nid, r),
                timeout=self.rpc_timeout, retries=-1, adaptive=True,
            )
            for node_id, host in self.peers.items()
        ]

    def _cancel(self, requests: list[int]) -> None:
        for req_id in requests:
            self.endpoint.cancel_request(req_id)

    def _finish_prepare(
        self,
        ballot: Ballot,
        from_instance: int,
        tracker: PromiseTracker,
        on_ready: Callable[[bool], None],
    ) -> None:
        self.is_leader = True
        self.leader_ballot = ballot
        results = scan_promises(list(tracker.promises.values()))
        max_started = max(results, default=from_instance - 1)
        # Below a promiser's retirement floor every instance is chosen
        # and votes may be gone, so the scan could not tell a chosen
        # value from none: never re-drive (or free-choose) there. The
        # apply cursor gets there by catch-up or snapshot instead.
        floor = tracker.retired_below
        self.next_instance = max(self._first_unchosen(), max_started + 1,
                                 floor)
        if self.apply_cursor < floor:
            source = max(tracker.promises,
                         key=lambda a: tracker.promises[a].retired_below)
            self._floor_source = (floor, self.peers[source])
            self._toward_floor()
        # Re-drive every unfinished instance visible in the promises.
        for inst in range(max(from_instance, floor), max_started + 1):
            if inst in self.chosen:
                continue
            scan = results.get(inst)
            if scan is not None and scan.must_repropose is not None:
                value = scan.must_repropose.value
            else:
                # Nothing recoverable: free choice. A real client value
                # may be lost here if it was never chosen; the no-op
                # makes the log contiguous (its client will retry).
                value = noop_value(inst)
            if scan is not None and scan.unrecoverable:
                self.tracer.emit(
                    self.sim.now, "paxos",
                    f"{self.endpoint.name} inst={inst} unrecoverable "
                    f"accepted values {scan.unrecoverable} -> free choice",
                )
            self._run_accept_round(inst, value, lambda i, v: None)
        self.tracer.emit(
            self.sim.now, "paxos", f"{self.endpoint.name} leader ready {ballot}"
        )
        on_ready(True)

    def _first_unchosen(self) -> int:
        inst = self.apply_cursor
        while inst in self.chosen:
            inst += 1
        return inst

    # ------------------------------------------------------------------
    # leader: accept rounds
    # ------------------------------------------------------------------

    def propose(
        self, value: Value, on_decided: Callable[[int, Value], None]
    ) -> int:
        """Propose a client value in the next free instance.

        Requires leadership (batch prepare done). Returns the instance
        id. ``on_decided(instance, value)`` fires when chosen.
        """
        if not self.is_leader or self.leader_ballot is None:
            raise RuntimeError("propose() requires leadership; call become_leader")
        instance = self.next_instance
        self.next_instance += 1
        self.stats.proposals += 1
        self._run_accept_round(instance, value, on_decided)
        return instance

    def propose_canonical(
        self,
        value: Value,
        on_decided: Callable[[int, Value], None],
        _retries: int = 8,
    ) -> int:
        """Propose without standing leadership: the unoptimized §2.1
        flow — a fresh prepare round, then the accept round, costing
        two round trips and an extra acceptor flush per value.

        Exists for the Multi-Paxos ablation and for ad-hoc proposers;
        the KV store always uses the leader path.
        """
        instance = self.next_instance
        self.next_instance += 1
        self._propose_canonical_at(instance, value, on_decided, _retries)
        return instance

    def _propose_canonical_at(
        self, instance: int, value: Value, on_decided, retries: int
    ) -> None:
        if self._down:
            return
        ballot = Ballot(self._max_ballot_seen.round + 1, self.node_id)
        self._max_ballot_seen = ballot
        msg = Prepare(ballot=ballot, from_instance=instance)
        tracker = PromiseTracker(ballot=ballot, quorum=self.config.q_r)
        state = {"resolved": False}

        def on_reply(acceptor_id: int, reply) -> None:
            if state["resolved"]:
                return
            if isinstance(reply, Nack):
                state["resolved"] = True
                self._cancel(requests)
                self._max_ballot_seen = max(self._max_ballot_seen, reply.promised)
                if retries > 0:
                    self._propose_canonical_at(
                        instance, value, on_decided, retries - 1
                    )
                return
            if isinstance(reply, Promise) and tracker.record(acceptor_id, reply):
                state["resolved"] = True
                self._cancel(requests)
                if instance < tracker.retired_below:
                    # Chosen already, maybe with its votes retired: take
                    # a fresh instance above the floor instead.
                    self.next_instance = max(self.next_instance,
                                             tracker.retired_below)
                    if retries > 0:
                        self.propose_canonical(value, on_decided, retries - 1)
                    return
                results = scan_promises(list(tracker.promises.values()))
                scan = results.get(instance)
                chosen_value = value
                if scan is not None and scan.must_repropose is not None:
                    chosen_value = scan.must_repropose.value
                self._run_accept_round(
                    instance, chosen_value, on_decided, ballot=ballot
                )

        requests = self._prepare_all(msg, on_reply)

    def _run_accept_round(
        self,
        instance: int,
        value: Value,
        on_decided: Callable[[int, Value], None],
        ballot: Ballot | None = None,
    ) -> None:
        if ballot is None:
            ballot = self.leader_ballot
        assert ballot is not None
        self._inflight[instance] = value
        self._decide_cbs[instance] = on_decided
        # Modeled encode CPU cost: the value is split and parity rows
        # computed before any accept can leave the host.
        delay = self._charge_codec(value.size if self.config.is_erasure_coded else 0)
        self.stats.encode_ops += 1
        self._after(delay, self._send_accepts, instance, ballot, value)

    def _charge_codec(self, nbytes: int) -> float:
        if nbytes <= 0:
            return 0.0
        seconds = nbytes / self.codec_bw
        self.stats.cpu_seconds += seconds
        return seconds

    def _send_accepts(self, instance: int, ballot: Ballot, value: Value) -> None:
        if instance not in self._inflight:
            return  # its leader stepped down during the encode
        if self.leader_ballot is not None and ballot != self.leader_ballot:
            return  # stale leader round (canonical rounds pass through)
        members = self.members
        shares = encode_value(value, self.config.coding, members)
        # Owned by on_reply alone, so it dies with the round's requests.
        tracker = VoteTracker(
            instance=instance, ballot=ballot,
            value_id=value.value_id, quorum=self.config.q_w,
        )

        def on_reply(reply) -> None:
            if isinstance(reply, Nack):
                self._preempted(reply.promised)
                return
            if isinstance(reply, Accepted) and tracker.record(reply):
                self._on_chosen_at_leader(instance, ballot, value)

        request, peers = self.endpoint.request, self.peers
        self._rounds[instance] = [
            request(
                peers[node_id], Accept(instance, ballot, share),
                META_BYTES + share.size,  # Accept.wire_bytes, size in hand
                on_reply=on_reply,
                timeout=self.rpc_timeout, retries=-1, adaptive=True,
            )
            for node_id, share in zip(members, shares)
        ]

    def step_down(self) -> None:
        """Stop leading, and end every Accept round not yet decided. A
        leader that lost its ballot must not go on retransmitting it: an
        acceptor that never heard the higher ballot (cut off, or rebuilt
        after a wipe lost its promise) would still accept, and the
        deposed leader would decide at its old ballot. Its instances
        leave ``_inflight`` with their callbacks (an encode still pending
        sends nothing), so nothing waits on them; the successor re-drives
        what may have been chosen and the rounds' clients retry there."""
        for ids in self._rounds.values():
            self._cancel(ids)
        self._rounds.clear()
        self._inflight.clear()
        self._decide_cbs.clear()
        self.is_leader = False
        self.leader_ballot = None

    def _preempted(self, higher: Ballot) -> None:
        if not self.is_leader:
            return
        self.step_down()
        self._max_ballot_seen = max(self._max_ballot_seen, higher)
        self.stats.preemptions += 1
        self.tracer.emit(
            self.sim.now, "paxos", f"{self.endpoint.name} preempted by {higher}"
        )
        if self.on_preempted is not None:
            self.on_preempted(higher)

    def _on_chosen_at_leader(self, instance: int, ballot: Ballot, value: Value) -> None:
        self.stats.chosen += 1
        self._rounds.pop(instance, None)  # decided: let it finish
        self._inflight.pop(instance, None)
        cb = self._decide_cbs.pop(instance, None)
        self._learn(instance, ballot, value.value_id, value=value)
        # Bundle the commit notification off the critical path (§5).
        self._pending_commits.append(
            Commit(instance=instance, ballot=ballot, value_id=value.value_id)
        )
        if self._commit_timer is None:
            self._commit_timer = self.sim.call_after(
                self.commit_interval, self._flush_commits
            )
        if cb is not None:
            cb(instance, value)

    def _flush_commits(self) -> None:
        self._commit_timer = None
        commits, self._pending_commits = self._pending_commits, []
        if not commits or self._down:  # retired since the round decided
            return
        payload = commits[0] if len(commits) == 1 else Batch(items=list(commits))
        size = META_BYTES * len(commits)
        for node_id, host in self.peers.items():
            if node_id == self.node_id:
                continue
            self.endpoint.send(host, payload, size)

    # ------------------------------------------------------------------
    # learner
    # ------------------------------------------------------------------

    def _learn(
        self, instance: int, ballot: Ballot, value_id: str, value: Value | None
    ) -> None:
        existing = self.chosen.get(instance)
        if existing is None and instance < self.acceptor.state.retired_below:
            self._learn_retired(instance, value_id)
            return
        if existing is not None:
            # Consistency: a decided instance never changes its value.
            if existing.value_id != value_id:
                raise ConsistencyViolation(
                    f"instance {instance} decided twice: "
                    f"{existing.value_id!r} then {value_id!r}"
                )
            if value is not None and existing.value is None:
                self.chosen[instance] = existing._replace(value=value)
                self._advance_apply()  # may have been stalled on this
            return
        share = self.acceptor.accepted_share(instance)
        if share is not None and share.value_id != value_id:
            share = None  # we accepted a different (losing) proposal
        self.chosen[instance] = ChosenRecord(value_id, ballot, value, share)
        if self.tracer.enabled:
            self.tracer.emit(
                self.sim.now, "paxos",
                f"{self.endpoint.name} learned inst={instance} {value_id}",
            )
        self._advance_apply()

    def _advance_apply(self) -> None:
        while self.apply_cursor in self.chosen:
            rec = self.chosen[self.apply_cursor]
            if rec.value is None and rec.share is None:
                # A Commit told us *what id* was chosen but we never
                # accepted the proposal (missed Accept, or accepted a
                # losing value), so we do not know the command. Applying
                # it as a noop would silently diverge this replica's
                # state machine; stall instead and let the KV layer
                # fetch the value (§4.5).
                if self.on_missing_value is not None:
                    self.on_missing_value(self.apply_cursor)
                return
            if self.on_apply is not None:
                self.on_apply(self.apply_cursor, rec)
            self.apply_cursor += 1
        if self._floor_source is not None:
            self._toward_floor()

    def _toward_floor(self) -> None:
        """Stalled short of the retirement floor this leader skipped to:
        fetch from the promiser that named it, which holds the instances
        or a checkpoint past them; a snapshot covers the rest."""
        floor, source = self._floor_source
        if self.apply_cursor >= floor:
            self._floor_source = None
        elif self.on_missing_value is not None:
            self.on_missing_value(self.apply_cursor, source)

    # ------------------------------------------------------------------
    # recovery reads / catch-up support
    # ------------------------------------------------------------------

    # ------------------------------------------------------------------
    # reconfiguration (§4.6)
    # ------------------------------------------------------------------

    def apply_view(self, config: AnyConfig, peers: dict[int, str]) -> None:
        """Switch this replica to a new view's configuration.

        Caller contract (enforced by the KV layer's view-change
        orchestration): no proposals of this node are in flight, and
        every instance below the view-change instance is chosen and —
        for coded data — share-placement-confirmed (the §4.6
        optimization-2 precondition). Quorums and coding of *new*
        instances follow the new config; old shares keep the coding
        stamped on them and remain decodable as long as the new quorums
        overlap >= old X survivors.
        """
        if self._inflight and (config != self.config or peers != self.peers):
            # A committed view landing while this node still has its own
            # proposals in flight means the proposer lost a leadership
            # race: the winning leader drained before proposing, so only
            # a deposed leader (e.g. partitioned mid-view-change) can be
            # here. Its proposals are superseded — abandon them. This is
            # Paxos-safe: an accepted-but-unchosen value is either
            # completed or out-balloted by the next prepare; refusing
            # instead would wedge this replica on the view it must adopt.
            # The view it already has (a leader catching up to a
            # retirement floor by snapshot re-applies it) supersedes
            # nothing.
            for inst in list(self._inflight):
                self._inflight.pop(inst, None)
                self._decide_cbs.pop(inst, None)
        if self.node_id not in peers:
            raise ValueError("apply_view on a non-member; use retire()")
        if len(peers) != config.n:
            raise ValueError(f"{len(peers)} peers != configured N={config.n}")
        self.config = config
        self.peers = dict(peers)
        self.members = tuple(sorted(peers))
        # A node that was retired by an earlier view and is a member of
        # this one has been re-admitted (reconfigure-add): un-retire it.
        # Observer mode, if set, stays until the rebuild completes.
        self._down = False
        self.tracer.emit(
            self.sim.now, "paxos",
            f"{self.endpoint.name} view -> N={config.n} QR={config.q_r} "
            f"QW={config.q_w} X={config.x}",
        )

    def retire(self) -> None:
        """Leave the group permanently (this node was removed from the
        view). The node stops participating; durable state is kept so a
        later operator can harvest it, but it never votes again (nor
        sends the Accepts of an encode still pending)."""
        self._down = True
        self._cancel_timers()
        self.is_leader = False
        self.leader_ballot = None

    def install_chosen(self, instance: int, rec: ChosenRecord) -> None:
        """Install an externally learned decision (catch-up, §4.5) and
        advance the apply cursor. Consistency-checked like any learn."""
        if self.retired(instance):
            self._learn_retired(instance, rec.value_id)
            return
        if instance in self.chosen:
            existing = self.chosen[instance]
            if existing.value_id != rec.value_id:
                raise ConsistencyViolation(
                    f"instance {instance} decided twice: "
                    f"{existing.value_id!r} then {rec.value_id!r}"
                )
            # Merge: a commit-only record (no value, no share) gets its
            # command filled in by catch-up, unstalling the cursor.
            if rec.value is not None and existing.value is None:
                existing = existing._replace(value=rec.value)
            if rec.share is not None and existing.share is None:
                existing = existing._replace(share=rec.share)
            self.chosen[instance] = existing
            self._advance_apply()
            return
        self.chosen[instance] = rec
        self._advance_apply()

    def recode_share_for(self, instance: int, target_node: int) -> CodedShare | None:
        """Re-code the chosen value of ``instance`` for a recovering
        replica (§4.5: "the leader needs to re-code the data and send
        the corresponding fragment").

        Only possible on a node that holds the full value.
        """
        rec = self.chosen.get(instance)
        if rec is None or rec.value is None:
            return None
        # Re-code under the coding and membership the value was
        # originally spread with (stamped on our own share), so the
        # fragment interoperates with the shares other replicas already
        # hold even across view changes.
        if rec.share is not None:
            coding = rec.share.config
            members = rec.share.members or self.members
        else:
            coding = self.config.coding
            members = self.members
        if target_node not in members:
            return None
        index = members.index(target_node)
        self._charge_codec(rec.value.size)
        return encode_one_share(rec.value, coding, index, members)

    def decode_from_shares(self, shares: list[CodedShare]) -> Value:
        """Reconstruct a value from gathered shares, charging CPU."""
        value = decode_value(shares)
        self.stats.decode_ops += 1
        self._charge_codec(value.size)
        return value


class ConsistencyViolation(AssertionError):
    """Two different values decided for one instance.

    Never raised under safe configurations; the naive EC+Paxos demo
    (§2.3 / Figure 2) triggers it.
    """
