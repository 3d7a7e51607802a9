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
the whole checkpoint unloadable — no later segment repeats what it held,
and the WAL prefix it covered is gone, so the server rebuilds from its
peers as after a disk wipe.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def retirable(records: Iterable[int], below: int, keep) -> list[int]:
    """The instances of ``records`` below ``below`` and not in ``keep``:
    what a retirement at floor ``below`` drops from a record map."""
    return [inst for inst in records if inst < below and inst not in keep]
