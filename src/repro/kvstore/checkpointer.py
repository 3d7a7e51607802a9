"""A server's checkpoints (§4.5): what one holds, what it is charged,
and what recovery installs from it.

The rule is "each value byte stored once" (DESIGN.md §5, the charge
rule): a save writes the records that changed since the durable
checkpoint, less those its own retirement drops, and holds by reference
(:data:`HELD`) every store entry a vote the checkpoint holds rebuilds.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable

from ..storage import CheckpointStore, retirable
from .batch import payload_for_key
from .dedup import AppliedOps
from .shard import instance_of, named_instances

#: The value of a state-part store entry that the checkpoint holds by
#: reference: the share of the acceptor record its segments hold for the
#: entry's (group, instance), from which recovery rebuilds the entry.
HELD = object()


class HeldRecords:
    """What a chain of durable segments holds of per-instance records,
    and in which segment.

    A segment carries, per group, two record maps — the acceptor
    records, then the learner records — each mapping instance to an
    immutable record. Per map this keeps instance -> the durable segment
    map holding the instance's newest record:

    - :meth:`changed` — the live records a new segment must carry: those
      that differ *by identity* from the held one, less those the save's
      own retirement drops. Records are never mutated, only replaced
      (DESIGN.md §4), so a changed record is a different object and this
      scan cannot miss a write site the way a dirty set can;
    - :meth:`hold` — fold in a segment that turned durable; a record it
      supersedes leaves the older segment map that held it, and with a
      retirement at the same point, what that retires leaves the index
      and the older segments.

    Each costs what it touches and none walks the segment chain. What a
    segment is charged (:attr:`CheckpointRecord.size`) is what it holds
    when it turns durable; a later retirement shrinks older segment
    maps but not their charged sizes: dropping records that no reader
    can reach frees memory, not modeled device bytes, and the merge of
    the trimmed segments is the merge of the full ones minus what was
    dropped.
    :meth:`refer` and :meth:`resolved` let a state part hold a store
    entry by reference to the vote that rebuilds it (:data:`HELD`).
    """

    def __init__(self, groups: int):
        self._where: list[tuple[dict[int, dict], dict[int, dict]]] = [
            ({}, {}) for _ in range(groups)]

    def changed(self, group: int, floor, acc: dict,
                chosen: dict) -> tuple[dict, dict]:
        """The acceptor and learner records of ``group`` a new segment
        must carry: not held, and not retired by the retirement at
        ``floor`` (``(below, keep)``) that the same save makes."""
        below, keep = floor
        return tuple(
            {inst: rec for inst, rec in records.items()
             if ((seg := where.get(inst)) is None or seg[inst] is not rec)
             and (inst >= below or inst in keep)}
            for where, records in zip(self._where[group], (acc, chosen)))

    def get(self, group: int, instance: int, which: int = 0):
        """The record held for ``instance`` of ``group`` in map
        ``which`` (0 the acceptor records, 1 the learner records), or
        None."""
        seg = self._where[group][which].get(instance)
        return None if seg is None else seg[instance]

    def refer(self, entries, segment_groups) -> int:
        """Modeled bytes of a state part's store ``entries``, each made a
        reference where it can be. A checkpoint persists this replica's
        share, never a value it can rebuild from its own vote: an entry
        costs 16 B and keeps :data:`HELD` for a value when the
        checkpoint, once ``segment_groups`` is held, holds the acceptor
        record at its (group, ``instance_of(version)``) and

        - the entry is incomplete and its share *is* that record's; or
        - the entry is complete and not a tombstone, the record's share
          is clean, and a learner record is held at the same instance
          for the same value id: the vote is this replica's share of
          the value the entry holds.

        Every other entry — a tombstone, no vote held, a vote for a
        losing value, a rotten vote — costs its size."""
        size = 0
        for e in entries:
            if e.group >= 0 and not e.tombstone and self._rebuilds(
                    segment_groups, e, instance_of(e.version)):
                e.value, size = HELD, size + 16
            else:
                size += e.size
        return size

    def _rebuilds(self, segment_groups, e, inst: int) -> bool:
        """Does the vote held at ``inst`` of ``e.group``, once
        ``segment_groups`` is held, rebuild store entry ``e``?"""
        vote, learned = (
            new.get(inst) or self.get(e.group, inst, which)
            for which, new in enumerate(segment_groups[e.group]))
        if vote is None:
            return False
        if not e.complete:
            return e.value is not None and vote.share is e.value
        return (learned is not None and not vote.share.corrupt
                and vote.share.value_id == learned.value_id)

    def resolved(self, entries: dict) -> dict:
        """``entries`` with each :data:`HELD` value put back from the
        share of the acceptor record held for the entry's (group,
        ``instance_of(version)``): what applying that vote rebuilds on a
        replica that holds no decoded value, as WAL-tail replay of it
        would. An incomplete entry gets the share back. A complete one
        comes back incomplete, holding the share, under θ(X > 1); under
        θ(1, N) the share is the full copy, and the entry comes back
        complete with the ``(data, size)`` the key holds once that value
        applies (its own payload, if the value is a batch). A reference
        to a record no segment holds raises: that checkpoint cannot be
        installed."""
        out = dict(entries)
        for key, e in entries.items():
            if e.value is HELD:
                rec = self.get(e.group, instance_of(e.version))
                if rec is None:
                    raise LookupError(
                        f"checkpoint entry {key!r} refers to group "
                        f"{e.group} instance {instance_of(e.version)}, "
                        f"which no segment holds")
                share = rec.share
                if not e.complete:
                    out[key] = replace(e, value=share)
                elif share.config.x > 1:
                    out[key] = replace(e, value=share, size=share.size,
                                       complete=False)
                else:
                    data, size = payload_for_key(
                        share.meta, share.data, share.value_size, key)
                    out[key] = replace(e, value=data, size=size)
        return out

    def hold(self, segment_groups, floors=None) -> None:
        """Fold in the per-group record maps of a durable segment.
        ``floors``, if given, holds per group the ``(below, keep)`` of a
        retirement that happens now: every held record of an instance
        below ``below`` and not in ``keep`` goes (the segment, built by
        :meth:`changed` with the same floor, carries none)."""
        for g, (wheres, maps) in enumerate(zip(self._where, segment_groups)):
            below, keep = floors[g] if floors else (0, ())
            trimmed = {}
            for where, seg in zip(wheres, maps):
                for inst in retirable(where, below, keep):
                    older = where.pop(inst)
                    del older[inst]
                    trimmed[id(older)] = older
                for inst in seg:
                    older = where.get(inst)
                    if older is not None:
                        del older[inst]
                        trimmed[id(older)] = older
                    where[inst] = seg
            for seg in trimmed.values():
                _shrink(seg)

    def records(self, group: int) -> tuple[dict, dict]:
        """The held acceptor and learner records of ``group``, by
        instance."""
        return tuple({inst: seg[inst] for inst, seg in where.items()}
                     for where in self._where[group])


def _shrink(seg: dict) -> None:
    """Give back the table of a segment map that records left: a dict
    keeps its size through deletions, so refill it from a copy sized to
    what is left (or clear it, if nothing is)."""
    rest = dict(seg)
    seg.clear()
    seg.update(rest)


class Checkpointer:
    """Everything a server's checkpoint holds, and the saves that
    advance it. The server is its one host, as for ``Reconfig``.

    ``store`` is the server's :class:`CheckpointStore`; ``held`` indexes
    the records the durable segments hold and ``applied`` their dedup
    keys — both advance only when a save turns durable; ``inflight`` is
    set while a save is on its way to the device; ``last_at`` is when
    the last save turned durable (None since a wipe, or if none did)."""

    def __init__(self, host: Any):
        self._host = host
        self.store = CheckpointStore(host.sim, host.disk, f"{host.name}.ckpt")
        self.held = HeldRecords(len(host.groups))
        self.applied = AppliedOps()
        self.inflight = False
        self.last_at: float | None = None

    def save(self, on_done: Callable[[], None] | None = None) -> bool:
        """Persist applied KV state + acceptor metadata atomically, then
        truncate the WAL prefix the checkpoint subsumes. False if the
        host is down or a save is already in flight.

        One device write replaces the *state part* (store map, views,
        shard map, cursors: bounded by live data) and appends a
        *segment*: the acceptor/learner records and dedup keys that
        changed since the durable checkpoint, less what this save
        retires; store entries its votes rebuild are references
        (:meth:`HeldRecords.refer`).

        The WAL floor is ``last durable LSN + 1``: everything at or
        above it may still be pending in the group-commit window, so
        only the fully durable prefix is dropped. The checkpoint may
        *lead* the durable WAL (in-memory acceptor state mutates before
        the WAL append completes, §4.5) — that is strictly conservative:
        a recovered acceptor remembers votes it never acknowledged, and
        tail replay merges idempotently on top (ballot >= rule,
        version-monotone puts).
        """
        host = self._host
        if not host.up or self.inflight:
            return False
        self.inflight = True
        wal, groups = host.wal, host.groups
        floor_lsn = (wal.durable[-1].lsn + 1 if wal.durable
                     else wal.compaction_floor)
        store = host.store.export_state()
        # The retirement this save makes once durable (DESIGN.md §5), per
        # group (apply cursor, the instances its store names): the
        # segment carries only what survives it, and a digest per
        # learner record it retires.
        floors = list(zip([node.apply_cursor for node in groups],
                          named_instances(store.values(), len(groups))))
        segment = {
            "groups": [self.held.changed(
                g, floor, node.acceptor.state.instances, node.chosen)
                for g, (node, floor) in enumerate(zip(groups, floors))],
            "applied_ops": host.applied.since(self.applied),
            "digests": sum(len(retirable(node.chosen, *floor))
                           for node, floor in zip(groups, floors)),
        }
        state = {
            "groups": [node.export_cursors() for node in groups],
            "store": store,
            "views": tuple(host.reconfig.views),
            "shard_map": host.shard_map,
        }
        state_size = self.held.refer(store.values(), segment["groups"])

        def durable() -> None:
            self.inflight = False
            self._hold(segment, floors)
            self.last_at = host.sim.now
            dropped, dbytes = wal.truncate_prefix(floor_lsn)
            metrics = host.metrics
            metrics.counter("ckpt.saves").inc(1)
            metrics.counter("ckpt.bytes").inc(size)
            metrics.counter("ckpt.records_compacted").inc(dropped)
            metrics.counter("ckpt.compacted_bytes").inc(dbytes)
            metrics.gauge(f"{host.name}.wal_bytes").set(wal.durable_bytes())
            metrics.gauge(f"{host.name}.checkpoint_bytes").set(
                self.store.stored_bytes())
            host.trace(f"checkpoint ({size}B, floor_lsn={floor_lsn}, "
                       f"compacted {dropped} records / {dbytes}B)", "ckpt")
            if on_done is not None:
                on_done()

        def failed() -> None:
            # Transient EIO: ``held`` did not move, so the next
            # interval's segment carries these records again.
            self.inflight = False
            host.metrics.counter("ckpt.write_errors").inc(1)

        size = self.store.save(state, state_size, durable, failed,
                               segment, _segment_size(segment))
        return True

    def crash(self) -> None:
        """The host crashed: a save in flight is lost; the durable
        checkpoint survives."""
        self.store.crash()
        self.inflight = False

    def wipe(self) -> None:
        """The host's disk is lost: the checkpoint goes with it."""
        self.store.wipe()
        self.last_at = None

    def recover(self) -> bool:
        """Install the durable checkpoint into the host, before its WAL
        tail replays: every segment merged oldest-first, then the state
        part, its store entries held by reference rebuilt from their
        votes as replaying those votes would rebuild them. True when a
        checkpoint exists but cannot be loaded (a part fails its
        checksum): the WAL prefix it covered is gone, so the host has
        lost state as a wiped one has, and the chain is dropped as a
        wipe drops it."""
        host = self._host
        self.held = HeldRecords(len(host.groups))
        self.applied = AppliedOps()
        stored = self.store.current is not None
        ckpt = self.store.load()
        if ckpt is None:
            self.wipe()
            return stored
        state = ckpt.payload
        for segment in self.store.segments:
            self._hold(segment.payload)
        for g, (node, cursors) in enumerate(zip(host.groups, state["groups"])):
            node.install_snapshot(cursors, *self.held.records(g))
        host.store.install_state(self.held.resolved(state["store"]))
        host.applied.reset()
        host.applied.merge(self.applied.since())
        if state["shard_map"].version > host.shard_map.version:
            host.shard_map = state["shard_map"]
        # Each group's own view (they differ while a view change is
        # finishing); the server's is the newest.
        views = host.reconfig.views
        for g, nv in enumerate(state["views"]):
            if nv.epoch > views[g].epoch:
                views[g] = nv
        return False

    def _hold(self, segment: dict, floors=None) -> None:
        """Fold a durable segment into what the checkpoint holds; given
        its save's retirement (per group ``(below, keep)``), retire at
        once, in every group, the records below ``below`` that the
        save's store names as no key's version (DESIGN.md §5)."""
        for node, (below, kept) in zip(self._host.groups, floors or ()):
            node.retire_records(below, kept)
        self.held.hold(segment["groups"], floors)
        self.applied.merge(segment["applied_ops"])


def _segment_size(segment: dict) -> int:
    """Modeled bytes of a checkpoint segment, from its own content:
    acceptor share bytes, 16 B of metadata per record, 8 B per dedup key
    and per digest of a learner record the save retires. The leader's
    decoded-value cache rides along uncharged — a real implementation
    would persist shares only (a deliberate modeling simplification)."""
    size = 8 * (len(segment["applied_ops"]) + segment["digests"])
    for acc, chosen in segment["groups"]:
        size += 16 * (len(acc) + len(chosen))
        size += sum(st.share.size for st in acc.values())
    return size
