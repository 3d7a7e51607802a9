"""Replica rebuild (§4.5): catch-up, snapshot state transfer, and the
finish line after which a wiped replica votes again.

A replica that was down pulls the decisions it missed from its peers,
each entry carrying a fragment re-coded for it. A peer that compacted
the prefix it needs answers with its floor instead; the replica then
streams that peer's state in pages and pulls the log tail above it. A
wiped replica is an observer in a group until :meth:`Rebuild.finish_line`.

Pure, like :mod:`repro.kvstore.sharefetch`: a :class:`Rebuild` knows a
clock, source ranking, an RPC endpoint's bound ``request`` and callbacks
for the I/O only the server can do — nothing of servers, Paxos nodes or
the simulator. The donor side is two functions over callables,
:func:`catch_up_page` and :func:`snapshot_page`.
"""

from __future__ import annotations

from typing import Callable

from .messages import (
    KV_META,
    CatchUp,
    CatchUpEntry,
    CatchUpReply,
    FetchSnapshot,
    SnapshotChunk,
    SnapshotEntry,
)

#: A missing value is fetched off the learn path (the apply loop that
#: reports it may run inside a message handler), then polled for again
#: every ``MISSING_REPOLL`` while still missing.
MISSING_DEFER = 0.0
MISSING_REPOLL = 0.5
#: A stalled snapshot transfer starts over after this pause.
STALL_PAUSE = 0.5
#: Peers are asked again this often while a rebuild is pending.
TICK = 1.0
#: Patience of one catch-up or snapshot page request, and its retries.
CATCH_UP_TIMEOUT = 1.0
SNAPSHOT_TIMEOUT = 2.0
RETRIES = 3


def _ignore() -> None:
    pass


class Rebuild:
    """The requester side of catch-up and snapshot transfer, and the
    groups still being rebuilt (``pending``).

    ``clock`` has ``now`` and ``call_after(delay, fn)`` returning
    something with ``cancel()``; ``sources`` has ShareFetch's
    ``ranked()`` / ``started(host)`` / ``finished(host)``. A crash of the
    owner is :meth:`reset` here and the endpoint's own reset, which
    retires every request asked here: no reply or timeout of the
    previous incarnation reaches this component. The owner's state:
    ``cursor(group)``,
    its apply cursor, and ``unknown(group, instance)``, true while it
    does not know the instance's command: no record, or one that names
    its value but holds neither it nor a share. The owner's
    I/O: ``install_entries(reply)``, ``install_page(chunk)``,
    ``adopt(first)`` (after the last page, the metadata on the first)
    and ``on_rebuilt(group)`` (fence ballots, vote again). ``count(name,
    n)`` and ``trace(text)`` report.
    """

    def __init__(
        self, clock, *, sources, request: Callable[..., int],
        cursor: Callable[[int], int],
        unknown: Callable[[int, int], bool],
        install_entries: Callable[[CatchUpReply], None],
        install_page: Callable[[SnapshotChunk], None],
        adopt: Callable[[SnapshotChunk], None],
        on_rebuilt: Callable[[int], None],
        count: Callable[[str, int], None], trace: Callable[[str], None],
    ):
        self._clock = clock
        self._sources = sources
        self._request = request
        self._cursor = cursor
        self._unknown = unknown
        self._install_entries = install_entries
        self._install_page = install_page
        self._adopt = adopt
        self._on_rebuilt = on_rebuilt
        self._count = count
        self._trace = trace
        self.pending: set[int] = set()  # groups the owner observes in
        self.streaming: dict[int, str] = {}  # group -> snapshot donor
        self._first: dict[int, SnapshotChunk] = {}  # its first page
        # Every timer armed here, by what it is for: "tick", a missing
        # value's poll (group, instance), a stalled transfer's restart
        # (group). reset() cancels them all.
        self._timers: dict = {}

    def reset(self) -> None:
        """The owner crashed: its transfers, polls and tick are gone.
        ``pending`` survives: a replica that crashed mid-rebuild is
        still amnesiac and must come back an observer until its rebuild
        completes."""
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        self.streaming.clear()
        self._first.clear()

    def begin(self, groups: int) -> None:
        """The owner is up again: ask for every group's missed
        decisions, and again every ``TICK`` while a rebuild is pending
        (the first round can be lost wholesale to a partition)."""
        if self.pending:
            self._timers["tick"] = self._clock.call_after(TICK, self._retick)
        for group in range(groups):
            self.catch_up(group)

    def _retick(self) -> None:
        if not self.pending:
            del self._timers["tick"]
            return
        for group in sorted(self.pending):
            if group not in self.streaming:
                self.catch_up(group)
        self._timers["tick"] = self._clock.call_after(TICK, self._retick)

    def catch_up(self, group: int) -> None:
        """Pull ``group``'s decisions from the apply cursor on."""
        self._fan_out(group, self._cursor(group))

    def missing(self, group: int, instance: int,
                source: str | None = None) -> None:
        """The apply cursor stalled on ``instance``, whose command it
        does not know: a Commit named the chosen value's id (the Accept
        never reached us, or we accepted a losing proposal), or nothing
        did (a new leader skipped to a promiser's retirement floor).
        Poll peers for it rather than apply a blind noop, which would
        silently diverge this replica — ``source`` first, if given: a
        peer known to hold it (the promiser that named the floor)."""
        key = (group, instance)
        if key not in self._timers:
            self._timers[key] = self._clock.call_after(
                MISSING_DEFER, lambda: self._poll(group, instance, source))

    def _poll(self, group: int, instance: int,
              source: str | None = None) -> None:
        # Over once the value arrived, or once the cursor is past the
        # instance (a snapshot covered it).
        key = (group, instance)
        if instance < self._cursor(group) or not self._unknown(group, instance):
            del self._timers[key]
            return
        # Again until a peer supplies it: a round may race a partition,
        # or every peer reached may hold it commit-only too. Each poll
        # re-ranks, so a dead best-ranked source stops being first pick.
        self._fan_out(group, instance, source)
        self._timers[key] = self._clock.call_after(
            MISSING_REPOLL, lambda: self._poll(group, instance, source))

    def _fan_out(self, group: int, start: int,
                 first: str | None = None) -> None:
        """Ask the two best-ranked peers (``first`` ahead of them, if
        given), widening to the next-ranked each time one times out: a
        healthy steady state ships about two page streams, not N-1. Not
        a ShareFetch gather: it takes every reply and never hedges or
        cancels."""
        ranked = self._sources.ranked()
        if first is not None:
            ranked = [first, *(host for host in ranked if host != first)]
        hosts = iter(ranked)

        def issue_one() -> None:
            host = next(hosts, None)
            if host is None:
                return
            self._sources.started(host)

            def widen() -> None:
                self._sources.finished(host)
                issue_one()

            self._ask(host, group, start,
                      lambda: self._sources.finished(host), widen)

        issue_one()
        issue_one()

    def _ask(self, host: str, group: int, start: int, settle=_ignore,
             on_timeout=_ignore) -> None:
        """Request one catch-up page; ``settle()`` runs first when it
        is answered."""
        req = CatchUp(group=group, from_instance=start)

        def replied(reply) -> None:
            settle()
            self.on_catch_up(reply, host)

        self._request(
            host, req, req.wire_bytes, on_reply=replied,
            timeout=CATCH_UP_TIMEOUT, retries=RETRIES, adaptive=True,
            on_timeout=on_timeout,
        )

    def on_catch_up(self, reply, host: str) -> None:
        """A catch-up page arrived from ``host``."""
        if not isinstance(reply, CatchUpReply):
            return
        group = reply.group
        if reply.floor > self._cursor(group):
            # The peer compacted the prefix we still need: entry
            # catch-up cannot close the gap, so stream its checkpointed
            # state instead (InstallSnapshot-style).
            self._start_snapshot(group, host, reply.floor)
        self._install_entries(reply)
        if group in self.pending:
            self._count("rebuild.catchup_bytes", reply.wire_bytes)
        if reply.next_from is not None:
            self._ask(host, group, reply.next_from)  # the peer's page was full
        else:
            self.finish_line(group, reply.floor)

    def finish_line(self, group: int, floor: int) -> None:
        """A pass over a peer's log, compacted up to ``floor``, ended
        with nothing further to pull. With no snapshot in flight and the
        cursor at the floor, the group is rebuilt. One peer's log, not a
        quorum's: DESIGN.md §5 "Rebuild gate" says what that leaves
        open."""
        if (group not in self.pending or group in self.streaming
                or floor > self._cursor(group)):
            return
        self.pending.discard(group)
        self._on_rebuilt(group)
        self._count("rebuild.groups_rebuilt", 1)
        self._trace(f"rebuilt g{group} (cursor={self._cursor(group)})")
        if not self.pending:
            self._trace("fully rebuilt")

    def _start_snapshot(self, group: int, host: str, floor: int) -> None:
        if group in self.streaming:
            return  # one transfer per group at a time
        self.streaming[group] = host
        self._count("rebuild.snapshot_transfers", 1)
        self._trace(f"snapshot fetch g{group} from {host} (peer floor={floor})")
        self._fetch_page(group, host, "")

    def _fetch_page(self, group: int, host: str, cursor: str) -> None:
        req = FetchSnapshot(group=group, cursor=cursor)
        self._request(
            host, req, req.wire_bytes,
            on_reply=lambda reply: self.on_page(reply, host),
            timeout=SNAPSHOT_TIMEOUT, retries=RETRIES, adaptive=True,
            on_timeout=lambda: self._stalled(group, host),
        )

    def _stalled(self, group: int, host: str) -> None:
        if self.streaming.get(group) != host:
            return
        # The donor died or became unreachable mid-stream. Start over
        # shortly: any peer's floor reply starts a new transfer, and
        # installing a page is idempotent. One restart per group is
        # pending at a time: it asks for the group from the cursor on.
        del self.streaming[group]
        self._first.pop(group, None)
        if group not in self._timers:
            self._timers[group] = self._clock.call_after(
                STALL_PAUSE, lambda: self._restart(group))

    def _restart(self, group: int) -> None:
        del self._timers[group]
        self.catch_up(group)

    def on_page(self, reply, host: str) -> None:
        """A snapshot page arrived from ``host``."""
        if not isinstance(reply, SnapshotChunk):
            return
        group = reply.group
        if self.streaming.get(group) != host:
            return  # stale page (the transfer restarted elsewhere)
        if reply.first:
            self._first[group] = reply
        self._count("rebuild.snapshot_bytes", reply.wire_bytes)
        self._install_page(reply)
        if reply.next_cursor is not None:
            self._fetch_page(group, host, reply.next_cursor)
            return
        # Last page: adopt what the first page said the state represents.
        # Later pages may hold entries newer than its floor; the catch-up
        # from the floor re-applies them idempotently.
        first = self._first.pop(group)
        self._adopt(first)
        del self.streaming[group]
        self._trace(f"snapshot installed g{group} (floor={first.floor})")
        self._ask(host, group, self._cursor(group))  # the tail above it


def catch_up_page(msg: CatchUp, floor: int, chosen: dict,
                  recode: Callable | None) -> CatchUpReply:
    """One page of decisions for ``msg``: from ``msg.from_instance`` but
    not below the compaction ``floor``, within ``msg.max_entries`` and
    ``msg.max_bytes``. ``chosen`` maps instance to chosen record.
    ``recode(instance)`` re-codes the requester's own fragment (§4.5);
    where it cannot, the record's own share ships. ``recode`` is None
    for a requester that is not a peer, which gets no shares."""
    entries: list[CatchUpEntry] = []
    size = 0
    next_from: int | None = None
    # Ascending from the start, holes skipped: a page costs the
    # instances it spans, not a sort of everything ever chosen.
    for inst in range(max(msg.from_instance, floor),
                      max(chosen, default=-1) + 1):
        rec = chosen.get(inst)
        if rec is None:
            continue
        if ((msg.max_entries > 0 and len(entries) >= msg.max_entries)
                or (msg.max_bytes > 0 and size >= msg.max_bytes)):
            next_from = inst
            break
        share = None if recode is None else recode(inst) or rec.share
        if rec.value is not None:
            meta, value_size = rec.value.meta, rec.value.size
        elif rec.share is not None:
            meta, value_size = rec.share.meta, rec.share.value_size
        else:
            meta, value_size = None, 0
        entries.append(CatchUpEntry(
            instance=inst, value_id=rec.value_id, value_size=value_size,
            meta=meta, share=share,
        ))
        size += KV_META + (share.size if share is not None else 0)
    return CatchUpReply(group=msg.group, entries=tuple(entries),
                        next_from=next_from, floor=floor)


def snapshot_page(msg: FetchSnapshot, pinned: list, first: dict,
                  share_for: Callable,
                  send: Callable[[SnapshotChunk], None]) -> None:
    """Build one snapshot page for ``msg`` and ``send`` it.

    ``pinned`` is the (key, store entry) pairs past ``msg.cursor`` in
    key order, taken when the page started; ``first`` the transfer's
    metadata as ``SnapshotChunk`` fields on the first page, else empty.
    The page ends once it holds ``msg.max_bytes``. ``share_for(entry,
    cont)`` calls ``cont(share, meta, value_id, value_size)`` at once or
    after a share gather; an empty ``value_id`` leaves the entry out. A
    crash of the donor ends the gather and its continuation, so nothing
    is sent: the requester times out and starts over elsewhere.
    """
    entries: list[SnapshotEntry] = []
    size = 0

    def add(entry: SnapshotEntry, nbytes: int) -> None:
        nonlocal size
        entries.append(entry)
        size += nbytes

    def step(i: int) -> None:
        # Trampolined, not recursive: share_for usually answers at
        # once, and a page can span thousands of small keys.
        while True:
            if i >= len(pinned) or size >= msg.max_bytes:
                send(SnapshotChunk(
                    group=msg.group, entries=tuple(entries),
                    next_cursor=None if i >= len(pinned) else pinned[i - 1][0],
                    **first,
                ))
                return
            key, entry = pinned[i]
            if entry.tombstone:
                add(SnapshotEntry(
                    key=key, version=entry.version, value_id="",
                    value_size=0, meta=None, share=None, tombstone=True,
                ), KV_META + len(key))
                i += 1
                continue
            # None while share_for runs; True if it answered inside the
            # call, False once the page waits on a gather.
            answered: list = [None]

            def with_share(share, meta, value_id, value_size, key=key,
                           entry=entry, i=i, answered=answered) -> None:
                if value_id:
                    add(SnapshotEntry(
                        key=key, version=entry.version, value_id=value_id,
                        value_size=value_size, meta=meta, share=share,
                    ), KV_META + len(key) + (
                        share.size if share is not None else 0))
                if answered[0] is None:
                    answered[0] = True  # the loop goes on
                else:
                    step(i + 1)  # resumed from a gather

            share_for(entry, with_share)
            if answered[0]:
                i += 1
                continue
            answered[0] = False
            return

    step(0)
