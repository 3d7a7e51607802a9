"""A server's scrubber: bit rot, scrub passes and share repair.

Under RS-Paxos a replica stores one 1/X share of a value (§2.2), so a
rotten share cannot be re-read locally: it is re-encoded from a full
value the replica holds, or rebuilt from X peers' clean shares — the
repair traffic Rashmi et al. measure (PAPERS.md). A rotten vote that no
future read or recovery needs is quarantined instead of fetched.
"""

from __future__ import annotations

from typing import Any

from ..core import Accept, CodedShare, encode_one_share
from .batch import put_keys_of
from .messages import FetchShare, ShareReply
from .shard import instance_of


class Scrubber:
    """Rot injection, scrub passes and share repair for one server, its
    one host, as for ``Checkpointer``. ``inflight`` holds the (group,
    instance) pairs with a repair in flight; :meth:`crash` forgets them,
    as a crash stops the gathers that would finish them."""

    def __init__(self, host: Any):
        self._host = host
        self.inflight: set[tuple[int, int]] = set()

    def crash(self) -> None:
        self.inflight.clear()

    def rot(self, rng) -> bool:
        """Silently rot one stored coded share on this server.

        Picks a random retained durable accept record, invalidates its
        stored checksum (the WAL bytes decayed in place) and mirrors the
        damage into the in-memory acceptor/learner/store copies — cached
        views of the same durable bytes. With every accept record
        compacted into the checkpoint, a checkpoint-resident share rots
        instead: media decay does not care which file the bytes live in.
        ``rng`` is a numpy Generator (a named simulator substream, for
        determinism). False when the server holds no share to rot."""
        host = self._host
        picks = [  # retained votes only: a retired one is gone
            (rec.tag, rec.payload, rec.lsn) for rec in host.wal.durable
            if rec.valid and isinstance(rec.payload, Accept)
            and not host.groups[rec.tag].retired(rec.payload.instance)
        ] or [
            (g, st, None) for g, node in enumerate(host.groups)
            for _, st in sorted(node.acceptor.state.instances.items())
            if not st.share.corrupt
        ]
        if not picks:
            return False
        group, vote, lsn = picks[int(rng.integers(len(picks)))]
        if lsn is not None:
            host.wal.corrupt_record(lsn)
        self._mark_share_corrupt(group, vote.instance, vote.share.value_id)
        host.metrics.counter("scrub.rot_injected").inc(1)
        where = "(checkpointed)" if lsn is None else f"lsn={lsn}"
        host.trace(f"bit-rot g{group} inst={vote.instance} {where}", "scrub")
        return True

    def _mark_share_corrupt(self, group: int, instance: int,
                            value_id: str) -> None:
        """Flag every in-memory copy of a rotten stored share."""
        node = self._host.groups[group]
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
            for entry in self._entries_at(group, instance, rec.share.meta):
                if not entry.complete and isinstance(entry.value, CodedShare):
                    entry.value = rec.share

    def _entries_at(self, group: int, instance: int, meta) -> list:
        """The store entries of the keys ``meta`` put that still name
        ``instance`` of ``group`` as their version."""
        return [e for e in map(self._host.store.get, put_keys_of(meta))
                if e is not None and instance_of(e.version) == instance
                and e.group in (-1, group)]

    def _retirable(self, group: int, instance: int, meta) -> bool:
        """Has a checkpoint retired ``instance``, or will the next one?
        Below the floor, a put no key's stored version names any more."""
        node = self._host.groups[group]
        return node.retired(instance) or (
            bool(put_keys_of(meta))
            and instance < node.retired_below
            and not self._entries_at(group, instance, meta))

    def scrub(self) -> None:
        """One scrub pass: verify every durable record's checksum and
        start a repair for each corrupt coded share found — in the WAL
        and (post-compaction) in checkpoint-resident acceptor state."""
        host = self._host
        if not host.up:
            return
        host.metrics.counter("scrub.passes").inc(1)
        wal_backed = {
            (rec.tag, rec.payload.instance) for rec in host.wal.durable
            if isinstance(rec.payload, Accept)
        }
        for rec in host.wal.verify():
            if isinstance(rec.payload, Accept):  # a promise has no share
                self._start(rec.tag, rec.lsn, rec.payload)
        # Shares whose WAL record was compacted away live only in memory
        # and the checkpoint; they have no LSN to rewrite but a repair
        # still restores the copies the next checkpoint will persist.
        for g, node in enumerate(host.groups):
            for inst, st in sorted(node.acceptor.state.instances.items()):
                if not st.share.corrupt or (g, inst) in wal_backed:
                    continue
                rec = node.chosen.get(inst)
                if rec is not None and rec.value_id != st.share.value_id:
                    continue  # losing vote, already quarantined in place
                self._start(g, None, st)

    def _start(self, group: int, lsn: int | None, vote: Accept) -> None:
        """Repair the rotten share of ``vote`` unless one is in flight.
        A WAL record's in-memory mirrors are marked first, or the rotten
        copy might be served while the repair fetches."""
        key = (group, vote.instance)
        if key in self.inflight:
            return
        self.inflight.add(key)
        self._host.metrics.counter("scrub.corrupt_found").inc(1)
        if lsn is not None:
            self._mark_share_corrupt(group, vote.instance,
                                     vote.share.value_id)
        self._repair_share(group, lsn, vote)

    def _repair_share(self, group: int, lsn: int | None,
                      vote: Accept) -> None:
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
        host = self._host
        node = host.groups[group]
        instance, share = vote.instance, vote.share
        value_id, coding, my_index = share.value_id, share.config, share.index
        key = (group, instance)
        rec = node.chosen.get(instance)
        if (rec is not None and rec.value_id != value_id
                or self._retirable(group, instance, share.meta)):
            # Rotten vote for a *losing* proposal, or one a checkpoint
            # retires: no future scan needs this share (a later proposal
            # of value_id would contradict the decision; none drives
            # below a floor, and no store names it for a read).
            # Its bytes may be globally unreconstructible — quarantine:
            # rewrite the record checksum-valid with the share durably
            # flagged corrupt, preserving the vote metadata.
            if lsn is not None:
                host.wal.rewrite_record(
                    lsn, Accept(instance, vote.ballot, share.corrupted()),
                    share.size,
                )
            self.inflight.discard(key)
            host.metrics.counter("scrub.quarantined").inc(1)
            return
        if rec is not None and rec.value_id == value_id and rec.value is not None:
            fixed = encode_one_share(rec.value, coding, my_index, share.members)
            self.install(group, lsn, Accept(instance, vote.ballot, fixed), 0)
            return

        # Otherwise gather as a read does (ShareFetch.gather), with a
        # background job's patience: two retransmissions per fetch, and
        # an exhausted list defers to the next pass. Each usable fetch's
        # latency lands in ``scrub.fetch_latency``; the whole gather,
        # waits for stragglers included, in ``scrub.repair_latency`` —
        # what the readpath gate compares against random selection.
        gathered: dict[int, CodedShare] = {}
        started = host.sim.now

        def offer(reply, src: str, elapsed: float) -> bool:
            s = reply.share if isinstance(reply, ShareReply) else None
            if (
                s is None or s.corrupt or s.value_id != value_id
                or s.config != coding
            ):
                return False
            host.metrics.histogram("scrub.fetch_latency").record(elapsed)
            gathered[s.index] = s
            return True

        def missing() -> int:
            if my_index in gathered:
                return 0  # a peer re-coded our exact fragment: install it
            return max(0, coding.x - len(gathered))

        def done() -> None:
            fixed = gathered.get(my_index)
            if fixed is None:
                value = node.decode_from_shares(list(gathered.values()))
                fixed = encode_one_share(value, coding, my_index, share.members)
            host.metrics.histogram("scrub.repair_latency").record(
                host.sim.now - started
            )
            self.install(
                group, lsn, Accept(instance, vote.ballot, fixed),
                sum(s.size for s in gathered.values()),
            )

        def defer() -> None:
            # Too many rotten/missing copies right now. Leave the record
            # corrupt; a later pass retries once peers recover or repair
            # their own copies.
            self.inflight.discard(key)
            host.metrics.counter("scrub.deferred").inc(1)

        req = FetchShare(
            group=group, instance=instance, value_id=value_id, reason="scrub"
        )
        host.fetch.gather(
            req, req.wire_bytes, missing=missing, offer=offer,
            on_done=done, on_exhausted=defer, timeout=0.5, retries=2,
        )

    def install(self, group: int, lsn: int | None, repaired: Accept,
                repair_bytes: int) -> None:
        """Write the reconstructed share back: WAL record rewritten in
        place with ``repaired`` — the rotten vote's instance and ballot
        around the clean share (checksum recomputed, one device write) —
        and in-memory acceptor/learner/store copies replaced.
        With ``lsn`` None (record already compacted) only the in-memory
        copies are fixed; the next checkpoint persists them. Only ever
        runs while up: a crash retires the gather that would call it."""
        host = self._host
        node = host.groups[group]
        instance, fixed = repaired.instance, repaired.share
        if lsn is not None:
            host.wal.rewrite_record(lsn, repaired, fixed.size)
        st = node.acceptor.state.instances.get(instance)
        if st is not None and st.share.value_id == fixed.value_id:
            node.acceptor.state.instances[instance] = Accept(
                instance, st.ballot, fixed)
        rec = node.chosen.get(instance)
        if rec is not None and rec.value_id == fixed.value_id:
            if rec.share is None or rec.share.corrupt:
                node.chosen[instance] = rec._replace(share=fixed)
            for entry in self._entries_at(group, instance, fixed.meta):
                if not entry.complete:
                    entry.value, entry.size = fixed, fixed.size
        self.inflight.discard((group, instance))
        host.metrics.counter("scrub.repaired").inc(1)
        host.metrics.counter("scrub.repair_bytes").inc(repair_bytes)
        host.trace(f"repaired g{group} inst={instance} lsn={lsn} "
                   f"({repair_bytes}B fetched)", "scrub")
