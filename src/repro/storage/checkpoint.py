"""Durable state checkpoints: the WAL's compaction partner.

A server periodically persists its applied KV state plus acceptor
metadata as one atomic checkpoint; once the checkpoint is on media the
WAL prefix it covers can be truncated (:meth:`WriteAheadLog
.truncate_prefix`), which is what bounds recovery time and disk
footprint over the life of a cluster (§4.5 alone replays an ever-growing
log).

A checkpoint is a *state part*, replaced in full by every save, plus
*segments*, of which a save may append one and the store keeps all,
oldest first: a caller whose state grows a little per interval writes
only what changed and rebuilds the whole by merging them in order.

Atomicity model (write-new-then-swap, like a LevelDB MANIFEST or a Raft
snapshot file): state part and segment go to scratch space in one
device write and only *become* the checkpoint when that write
completes. A crash mid-write keeps the previous checkpoint intact; a
crash after the swap keeps the new one. Every part is CRC-framed exactly
like a WAL record, so a rotten one is detected at load time, and makes
the whole checkpoint unloadable — no later segment repeats what it held
(recovery then falls back to full WAL replay — or snapshot transfer
from a peer if the WAL was already compacted).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable

from ..sim import Simulator
from .disk import Disk
from .wal import RECORD_HEADER_BYTES, record_checksum


@dataclass(slots=True)
class CheckpointRecord:
    """One durable part of a checkpoint: a state part or a segment.

    ``seq`` is the save that wrote it (monotonic per store); ``payload``
    is the opaque blob the server hands in; ``size`` is the modeled byte
    footprint charged to the device; ``crc`` is the payload checksum as
    written.
    """

    seq: int
    payload: Any
    size: int
    crc: int = 0

    @property
    def valid(self) -> bool:
        """True when the stored CRC matches the payload read back."""
        return self.crc == record_checksum(self.seq, self.size)


class CheckpointStore:
    """At most one durable checkpoint per server — the latest state
    part plus every segment since the last wipe — atomically advanced.

    The CRC deliberately covers only the frame (seq, size), not a deep
    serialization of the payload: checkpoint payloads hold the server's
    own record objects, which have no canonical byte form here, and
    bit-rot injection targets the frame via :meth:`corrupt` instead.
    """

    def __init__(self, sim: Simulator, disk: Disk, name: str = "ckpt"):
        self.sim = sim
        self.disk = disk
        self.name = name
        self.current: CheckpointRecord | None = None  # state part
        self.segments: list[CheckpointRecord] = []  # oldest first
        self._next_seq = 0
        self._epoch = 0  # bumped on crash/wipe; orphans in-flight saves
        self.saves = 0
        self.bytes_written = 0  # cumulative device bytes, headers included

    def save(
        self, payload: Any, size: int, callback: Callable[[], None],
        on_error: Callable[[], None] | None = None,
        segment: Any = None, segment_size: int = 0,
    ) -> int:
        """Write a new state part and, if given, one more ``segment`` in
        one device write; ``callback`` fires once they are the durable
        checkpoint (the atomic swap point). Returns the bytes written.

        A crash before the device write completes leaves the previous
        checkpoint in place and never fires the callback; a write the
        device fails (transient EIO) leaves it in place too and fires
        ``on_error``, so the caller can try again.
        """
        if size < 0 or segment_size < 0:
            raise ValueError("negative checkpoint size")
        seq = self._next_seq
        self._next_seq += 1
        parts = [CheckpointRecord(seq, payload, size)]
        if segment is not None:
            parts.append(CheckpointRecord(seq, segment, segment_size))
        for rec in parts:
            rec.crc = record_checksum(rec.seq, rec.size)
        nbytes = sum(rec.size + RECORD_HEADER_BYTES for rec in parts)
        epoch = self._epoch

        def on_durable() -> None:
            if epoch != self._epoch:
                return  # crashed/wiped mid-write: scratch copy lost
            self.current = parts[0]
            self.segments.extend(parts[1:])
            self.saves += 1
            self.bytes_written += nbytes
            callback()

        def on_failed() -> None:
            if epoch == self._epoch and on_error is not None:
                on_error()

        self.disk.write(nbytes, on_durable, on_failed)
        return nbytes

    def load(self) -> CheckpointRecord | None:
        """The durable state part (its segments are :attr:`segments`),
        or None if absent or any part is checksum-bad (a rotten
        checkpoint must never be installed silently)."""
        if self.current is None or not all(
                rec.valid for rec in (self.current, *self.segments)):
            return None
        return self.current

    def stored_bytes(self) -> int:
        """Modeled on-disk footprint: state part plus every segment."""
        if self.current is None:
            return 0
        return sum(rec.size + RECORD_HEADER_BYTES
                   for rec in (self.current, *self.segments))

    def crash(self) -> None:
        """Orphan any in-flight save; the durable checkpoint survives."""
        self._epoch += 1

    def wipe(self) -> None:
        """Disk replaced: the checkpoint is gone too."""
        self.current = None
        self.segments = []
        self._epoch += 1

    def corrupt(self) -> bool:
        """Bit-rot the durable checkpoint's state part (fault
        injection). Returns False when there is nothing to rot."""
        if self.current is None:
            return False
        self.current.crc ^= 0x5BD1E995
        return True


#: The value of a state-part store entry that the checkpoint holds by
#: reference: the share of the acceptor record its segments hold for the
#: entry's (group, instance), from which recovery rebuilds the entry.
HELD = object()


def retirable(records: Iterable[int], below: int, keep) -> list[int]:
    """The instances of ``records`` below ``below`` and not in ``keep``:
    what a retirement at floor ``below`` drops from a record map."""
    return [inst for inst in records if inst < below and inst not in keep]


class HeldRecords:
    """What a chain of durable segments holds of per-instance records,
    and in which segment.

    A segment carries, for each of ``groups`` groups, a tuple of
    ``width`` record maps (a KV server's: the acceptor records, then the
    learner records), each mapping instance to an immutable record. Per
    map this keeps instance -> the durable segment map holding the
    instance's newest record:

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
    :meth:`get` looks one held record up; with it :meth:`refer` and
    :meth:`resolved` let a state part hold a store entry by reference
    to the vote that rebuilds it (:data:`HELD`).
    """

    def __init__(self, groups: int, width: int):
        self._where: list[tuple[dict[int, dict], ...]] = [
            tuple({} for _ in range(width)) for _ in range(groups)]

    def changed(self, group: int, floor, *live: dict) -> tuple[dict, ...]:
        """Per map of ``group``, the records of ``live`` a new segment
        must carry: not held, and not retired by the retirement at
        ``floor`` (``(below, keep)``) that the same save makes."""
        below, keep = floor
        return tuple(
            {inst: rec for inst, rec in records.items()
             if ((seg := where.get(inst)) is None or seg[inst] is not rec)
             and (inst >= below or inst in keep)}
            for where, records in zip(self._where[group], live))

    def get(self, group: int, instance: int, which: int = 0):
        """The record held for ``instance`` in map ``which`` of
        ``group`` (a KV server's: 0 the acceptor records, 1 the learner
        records), or None."""
        seg = self._where[group][which].get(instance)
        return None if seg is None else seg[instance]

    def refer(self, entries, segment_groups, instance) -> int:
        """Modeled bytes of a state part's store ``entries``, each made a
        reference where it can be. A checkpoint persists this replica's
        share, never a value it can rebuild from its own vote: an entry
        costs 16 B and keeps :data:`HELD` for a value when the
        checkpoint, once ``segment_groups`` is held, holds the acceptor
        record (map 0) at its (group, ``instance(version)``) and

        - the entry is incomplete and its share *is* that record's; or
        - the entry is complete and not a tombstone, the record's share
          is clean, and a learner record (map 1) is held at the same
          instance for the same value id: the vote is this replica's
          share of the value the entry holds.

        Every other entry — a tombstone, no vote held, a vote for a
        losing value, a rotten vote — costs its size."""
        size = 0
        for e in entries:
            if e.group >= 0 and not e.tombstone and self._rebuilds(
                    segment_groups, e, instance(e.version)):
                e.value, size = HELD, size + 16
            else:
                size += e.size
        return size

    def _rebuilds(self, segment_groups, e, inst: int) -> bool:
        """Does the vote held at ``inst`` of ``e.group``, once
        ``segment_groups`` is held, rebuild store entry ``e``?"""
        vote = self._held(segment_groups, e.group, inst, 0)
        if vote is None:
            return False
        if not e.complete:
            return e.value is not None and vote.share is e.value
        learned = self._held(segment_groups, e.group, inst, 1)
        return (learned is not None and not vote.share.corrupt
                and vote.share.value_id == learned.value_id)

    def _held(self, segment_groups, group: int, instance: int, which: int):
        """The record map ``which`` of ``group`` holds for ``instance``
        once ``segment_groups`` is held: the new segment's, else ours."""
        rec = segment_groups[group][which].get(instance)
        return rec if rec is not None else self.get(group, instance, which)

    def resolved(self, entries: dict, instance, payload) -> dict:
        """``entries`` with each :data:`HELD` value put back from the
        share of the acceptor record held for the entry's (group,
        ``instance(version)``): what applying that vote rebuilds on a
        replica that holds no decoded value, as WAL-tail replay of it
        would. An incomplete entry gets the share back. A complete one
        comes back incomplete, holding the share, under θ(X > 1); under
        θ(1, N) the share is the full copy, and the entry comes back
        complete with ``payload(share, key)`` — the ``(data, size)`` the
        key holds once that value applies. A reference to a record no
        segment holds raises: that checkpoint cannot be installed."""
        out = dict(entries)
        for key, e in entries.items():
            if e.value is HELD:
                rec = self.get(e.group, instance(e.version))
                if rec is None:
                    raise LookupError(
                        f"checkpoint entry {key!r} refers to group "
                        f"{e.group} instance {instance(e.version)}, "
                        f"which no segment holds")
                share = rec.share
                if not e.complete:
                    out[key] = replace(e, value=share)
                elif share.config.x > 1:
                    out[key] = replace(e, value=share, size=share.size,
                                       complete=False)
                else:
                    data, size = payload(share, key)
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

    def records(self, group: int) -> tuple[dict, ...]:
        """The held records of ``group``, per map, by instance."""
        return tuple({inst: seg[inst] for inst, seg in where.items()}
                     for where in self._where[group])


def _shrink(seg: dict) -> None:
    """Give back the table of a segment map that records left: a dict
    keeps its size through deletions, so refill it from a copy sized to
    what is left (or clear it, if nothing is)."""
    rest = dict(seg)
    seg.clear()
    seg.update(rest)
