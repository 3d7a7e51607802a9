"""Write-ahead log with group commit, record checksums and torn-tail
recovery.

Acceptors must persist their promised/accepted state before replying
(§4.5: "it needs to log all these decisions into disks before sending
out the reply"), so the WAL is on the critical path of every Paxos
phase. Group commit (the IO-batching optimization of §7) coalesces
appends issued within a small window into one device flush, which is
what keeps small-write throughput from collapsing to the disk's IOPS
ceiling.

Durability model: a record is durable exactly when its flush completes;
on crash, non-durable records are lost and durable ones survive (they
are what ``KVServer.recover`` in :mod:`repro.kvstore.server` replays —
via :meth:`repro.core.PaxosNode.recover` — to rebuild promised/accepted
state before the server rejoins, per §4.5). Two storage faults refine
that clean picture:

- **Torn write**: a crash that lands mid-flush may persist a *prefix*
  of the in-flight batch — whole records up to some byte offset, plus
  one record truncated at the offset. Recovery scans forward, verifies
  each record's checksum, and truncates the log at the first torn
  record (framing past a partial write cannot be trusted), reporting
  how many records were discarded.
- **Bit-rot**: a durable record's payload silently decays in place.
  The record header (length, LSN, type and group tag — with its own
  header CRC) stays readable, so recovery *keeps* the record with its
  payload marked corrupt instead of truncating: for an accept record
  that means the acceptor still knows it voted, in which group, and for
  which value, but the coded share bytes are garbage until the scrubber
  repairs them from peers (see ``kvstore.scrubber.Scrubber.scrub``).

A payload is the protocol message the acceptor acted on — the
``Prepare`` it promised or the ``Accept`` it granted — and the same
object the acceptor keeps as its record, so logging a vote allocates
nothing beyond the :class:`WalRecord` itself.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Callable

from ..sim import Event, Simulator
from .disk import Disk

# On-disk record frame. Every record is laid out as
#
#   | length (8) | lsn (8) | type/flags (4) | payload CRC32 (4) | payload |
#
# ``length`` frames the scan (how far to the next record), ``lsn``
# orders and de-duplicates records, the type/flags word distinguishes
# record kinds, repair tombstones and the group tag, and the CRC32
# covers tag and payload so recovery and the scrubber can detect torn
# or rotten records. The header itself carries a separate CRC folded
# into the type/flags word.
LENGTH_BYTES = 8
LSN_BYTES = 8
TYPE_BYTES = 4
CRC_BYTES = 4

#: Fixed on-disk overhead per WAL record; matches the frame above and
#: is exactly what the disk cost model charges per record.
RECORD_HEADER_BYTES = LENGTH_BYTES + LSN_BYTES + TYPE_BYTES + CRC_BYTES


#: XORed into a stored checksum to model decayed checksum bits.
_ROT_MASK = 0x5BD1E995


def record_checksum(lsn: int, payload: Any, tag: Any = None) -> int:
    """CRC32 over a record's canonical serialization.

    The simulator never materializes real on-disk bytes, so the CRC is
    computed over a deterministic walk of ``(lsn, tag, payload)``:
    tuples and dataclasses field by field, bytes-like leaves (``bytes``,
    ``bytearray``, ``memoryview``) fed to the CRC by content — equal
    contents, equal CRC, whatever holds them — and every other leaf
    through its ``repr``. Replacing the payload (bit-rot injection)
    makes a stored CRC stale exactly like flipped payload bits would.
    """
    return _fold(payload, _fold(tag, zlib.crc32(b"%d" % lsn)))


def _fold(obj: Any, crc: int) -> int:
    if isinstance(obj, (bytes, bytearray, memoryview)):
        view = memoryview(obj)
        return zlib.crc32(view, zlib.crc32(b"b%d:" % view.nbytes, crc))
    if isinstance(obj, (tuple, list)):
        crc = zlib.crc32(b"(%d:" % len(obj), crc)
        for item in obj:
            crc = _fold(item, crc)
        return crc
    if is_dataclass(obj) and not isinstance(obj, type):
        crc = zlib.crc32(type(obj).__name__.encode(), crc)
        for f in fields(obj):
            crc = _fold(getattr(obj, f.name), crc)
        return crc
    return zlib.crc32(repr(obj).encode("utf-8", "backslashreplace"), crc)


@dataclass(slots=True)
class WalRecord:
    """One durable log record.

    ``tag`` names the writer (a :class:`WalView`'s group; None for a
    direct append) and lives in the frame header, so it survives rot.
    ``crc`` is the checksum of tag and payload as written; ``torn``
    marks a record whose tail was cut off by a mid-flush crash (its
    framing — and everything after it — is unreadable).

    The checksum is a modelling device: it only has to make ``valid``
    go false once the payload or the stored checksum has been tampered
    with. Payloads are immutable values, so a record nobody has
    tampered with is valid by construction and its checksum is computed
    only when something reads it — never on the append path.
    """

    lsn: int
    payload: Any
    size: int
    tag: Any = None
    torn: bool = False
    # The stored checksum, once read or tampered with; None = as written.
    _crc: int | None = field(default=None, repr=False)

    @property
    def crc(self) -> int:
        if self._crc is None:
            self._crc = record_checksum(self.lsn, self.payload, self.tag)
        return self._crc

    @property
    def valid(self) -> bool:
        """True when the stored CRC matches the payload read back."""
        if self.torn:
            return False
        return self._crc is None or self._crc == record_checksum(
            self.lsn, self.payload, self.tag
        )

    def rot(self, payload: Any | None = None) -> None:
        """Decay in place without the checksum following: swap in
        ``payload`` under the checksum of what was written, or (None)
        flip bits of the stored checksum itself."""
        written = self.crc  # pin before the payload changes under it
        if payload is not None:
            self.payload = payload
        else:
            self._crc = written ^ _ROT_MASK

    def rewrite(self, payload: Any, size: int) -> None:
        """Overwrite with a fresh, intact payload and checksum."""
        self.payload = payload
        self.size = size
        self.torn = False
        self._crc = None


@dataclass(slots=True)
class _PendingAppend:
    record: WalRecord
    callback: Callable[[], None]


class WriteAheadLog:
    """Durable, append-only log on a simulated disk.

    Parameters
    ----------
    group_commit_window:
        Seconds to hold appends before flushing them together. ``0``
        flushes every append individually (one device op each).
    eio_retry:
        Delay before re-submitting a flush that failed with a transient
        device error (EIO). The batch is never dropped — callbacks fire
        only once the records are actually on media.
    """

    def __init__(
        self,
        sim: Simulator,
        disk: Disk,
        group_commit_window: float = 0.0,
        name: str = "wal",
        eio_retry: float = 0.005,
    ):
        self.sim = sim
        self.disk = disk
        self.group_commit_window = group_commit_window
        self.name = name
        self.eio_retry = eio_retry
        self._next_lsn = 0
        self._pending: list[_PendingAppend] = []
        self._flush_timer: Event | None = None
        self._flushing = False  # at most one flush in flight
        self._inflight_batch: list[_PendingAppend] | None = None
        self._epoch = 0  # bumped on crash; orphans in-flight flushes
        self._torn_frac: float | None = None
        self.durable: list[WalRecord] = []
        self.flushes = 0
        self.flush_errors = 0
        self.bytes_appended = 0
        # Set by the last recover(): records dropped by the torn-tail
        # truncation, and checksum-failed records carried forward for
        # the scrubber. ``discarded_total`` accumulates across crashes.
        self.recovery_discarded = 0
        self.recovery_corrupt = 0
        self.discarded_total = 0
        # Compaction state: every record with lsn < compaction_floor has
        # been folded into a durable checkpoint and truncated away.
        self.compaction_floor = 0
        self.records_compacted = 0
        self.compacted_bytes = 0

    def append(
        self, payload: Any, size: int, callback: Callable[[], None],
        tag: Any = None,
    ) -> int:
        """Append a record; ``callback`` fires once it is durable.

        ``size`` is the modeled payload size in bytes; ``tag`` goes in
        the frame header (:class:`WalView`). Returns the LSN.

        Group commit is *adaptive* (like LevelDB/journaling filesystems):
        at most one flush is ever in flight; appends arriving during a
        flush accumulate and go out together as soon as the device is
        free (plus the configured accumulation window when the device
        was idle). This self-clocks the batch size to the device speed —
        a slow disk gets large batches, a fast one small batches —
        without ever queueing multiple flushes.
        """
        if size < 0:
            raise ValueError("negative record size")
        rec = WalRecord(self._next_lsn, payload, size, tag)
        self._next_lsn += 1
        self.bytes_appended += size
        self._pending.append(_PendingAppend(rec, callback))
        self._maybe_schedule()
        return rec.lsn

    def _maybe_schedule(self) -> None:
        if self._flushing or self._flush_timer is not None or not self._pending:
            return
        if self.group_commit_window <= 0:
            self._flush()
        else:
            self._flush_timer = self.sim.call_after(
                self.group_commit_window, self._flush
            )

    def _flush(self) -> None:
        if self._flush_timer is not None:
            self._flush_timer.cancel()
            self._flush_timer = None
        if self._flushing:
            return  # the in-flight completion will reschedule
        batch, self._pending = self._pending, []
        if not batch:
            return
        nbytes = sum(p.record.size + RECORD_HEADER_BYTES for p in batch)
        self.flushes += 1
        self._flushing = True
        self._inflight_batch = batch
        epoch = self._epoch

        def on_durable() -> None:
            # A crash between submission and completion loses the batch:
            # physically the device op may finish, but the host is gone
            # before acknowledging, and we model the data as lost.
            if epoch != self._epoch:
                return
            self._flushing = False
            self._inflight_batch = None
            for p in batch:
                self.durable.append(p.record)
                p.callback()
            self._maybe_schedule()

        def on_error() -> None:
            # Transient EIO: the records never reached media. Put the
            # batch back at the head of the queue (order preserved) and
            # retry shortly; durability callbacks stay pending.
            if epoch != self._epoch:
                return
            self._flushing = False
            self._inflight_batch = None
            self.flush_errors += 1
            self._pending[0:0] = batch
            self.sim.call_after(self.eio_retry, self._flush)

        self.disk.write(nbytes, on_durable, on_error=on_error)

    def flush_now(self) -> None:
        """Force any held appends toward the device immediately."""
        self._flush()

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    def arm_torn_write(self, frac: float) -> None:
        """The next crash that lands mid-flush tears the in-flight batch
        at byte offset ``frac * batch_bytes`` instead of losing it
        atomically: records wholly below the cut are durable, the record
        straddling it survives truncated (checksum-invalid)."""
        self._torn_frac = min(max(frac, 0.0), 1.0)

    def corrupt_record(self, lsn: int, payload: Any | None = None) -> bool:
        """Silent bit-rot on the durable record ``lsn``.

        Replaces the stored payload in place (``payload``, or leaves it
        as-is and only the decayed-bytes marker applies) without
        updating the stored CRC — exactly what flipped media bits do.
        Returns False if no such durable record exists.
        """
        for rec in self.durable:
            if rec.lsn == lsn:
                rec.rot(payload)
                return True
        return False

    # ------------------------------------------------------------------
    # crash / recovery / integrity
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Drop volatile (not-yet-durable) appends; keep durable records.

        If a torn write is armed and a flush is in flight, the prefix of
        the batch below the tear offset persists (the straddling record
        truncated); no durability callback ever fires for them — the
        host died before acknowledging.

        The containing server is expected to also stop issuing new
        appends; LSNs of lost records are never reused because the
        counter itself is reconstructed from the durable tail on
        recovery (see :meth:`recover`).
        """
        if self._torn_frac is not None and self._inflight_batch:
            batch = self._inflight_batch
            cut = self._torn_frac * sum(
                p.record.size + RECORD_HEADER_BYTES for p in batch
            )
            pos = 0.0
            for p in batch:
                end = pos + p.record.size + RECORD_HEADER_BYTES
                if end <= cut:
                    self.durable.append(p.record)  # fully on media
                elif pos < cut:
                    p.record.torn = True
                    self.durable.append(p.record)  # truncated mid-record
                pos = end
        self._torn_frac = None
        self._inflight_batch = None
        self._pending.clear()
        self._epoch += 1
        self._flushing = False
        if self._flush_timer is not None:
            self._flush_timer.cancel()
            self._flush_timer = None

    def recover(self) -> list[WalRecord]:
        """Scan the durable log, verify checksums, truncate the torn
        tail, and return the surviving records.

        A *torn* record ends the readable log: it and everything after
        it are discarded (``recovery_discarded``). A checksum-failed but
        structurally framed record (bit-rot) is kept and counted in
        ``recovery_corrupt`` — its protocol header survives, so the
        acceptor can still identify (and later repair) the damaged
        share. Recovery is idempotent: a second scan of the truncated
        log discards nothing further.

        Resets the LSN cursor after the last surviving entry (lost LSNs
        are simply skipped).
        """
        survivors: list[WalRecord] = []
        discarded = 0
        corrupt = 0
        for i, rec in enumerate(self.durable):
            if rec.torn:
                discarded = len(self.durable) - i
                break
            if not rec.valid:
                corrupt += 1
            survivors.append(rec)
        self.durable = survivors
        self.recovery_discarded = discarded
        self.recovery_corrupt = corrupt
        self.discarded_total += discarded
        if survivors:
            self._next_lsn = survivors[-1].lsn + 1
        return list(survivors)

    # ------------------------------------------------------------------
    # compaction / wipe
    # ------------------------------------------------------------------

    def truncate_prefix(self, floor_lsn: int) -> tuple[int, int]:
        """Drop every durable record with ``lsn < floor_lsn``.

        Called after a checkpoint covering those records is itself
        durable. Modeled as a metadata operation (advancing the log's
        start pointer, as journaling filesystems and LSM WALs do), so it
        charges no device write. Returns ``(records, bytes)`` dropped.
        The floor is monotonic; a stale call is a no-op.
        """
        if floor_lsn <= self.compaction_floor:
            return (0, 0)
        kept: list[WalRecord] = []
        dropped = 0
        dropped_bytes = 0
        for rec in self.durable:
            if rec.lsn < floor_lsn:
                dropped += 1
                dropped_bytes += rec.size + RECORD_HEADER_BYTES
            else:
                kept.append(rec)
        self.durable = kept
        self.compaction_floor = floor_lsn
        self.records_compacted += dropped
        self.compacted_bytes += dropped_bytes
        # LSNs below the floor must never be reissued even if the log
        # is now empty.
        self._next_lsn = max(self._next_lsn, floor_lsn)
        return (dropped, dropped_bytes)

    def wipe(self) -> None:
        """Total local-state loss: the disk was replaced.

        Unlike :meth:`crash`, durable records are gone too. The LSN
        counter and compaction floor reset — the rebuilt server starts a
        fresh log (old LSNs are meaningless on a new disk).
        """
        self.crash()
        self.durable = []
        self._next_lsn = 0
        self.compaction_floor = 0

    @property
    def next_lsn(self) -> int:
        """The LSN the next append gets; none at or above it is issued."""
        return self._next_lsn

    def durable_bytes(self) -> int:
        """Modeled on-disk footprint of the durable log."""
        return sum(rec.size + RECORD_HEADER_BYTES for rec in self.durable)

    def verify(self) -> list[WalRecord]:
        """The durable records whose stored checksum no longer matches
        their payload — the scrubber's work list."""
        return [rec for rec in self.durable if not rec.valid]

    def rewrite_record(self, lsn: int, payload: Any, size: int) -> bool:
        """In-place sector rewrite of record ``lsn`` (scrub repair).

        Replaces the payload (the tag stays), recomputes the checksum,
        and charges one device write for the record. Returns False if
        ``lsn`` is not durable.
        """
        for rec in self.durable:
            if rec.lsn == lsn:
                rec.rewrite(payload, size)
                self.disk.write(size + RECORD_HEADER_BYTES, lambda: None)
                return True
        return False

    def __len__(self) -> int:
        return len(self.durable)


class WalView:
    """A tagged slice of a shared :class:`WriteAheadLog`.

    A server hosting many Paxos groups shares one physical log (one
    disk, one group-commit stream); each group writes through its own
    view, which stamps its tag on every record's frame header and
    filters on it at recovery. Implements the WAL surface
    :class:`~repro.core.PaxosNode` uses (``append``, ``crash``,
    ``recover``, ``disk``).
    """

    def __init__(self, wal: WriteAheadLog, tag: object):
        self._wal = wal
        self.tag = tag

    @property
    def disk(self) -> "Disk":
        return self._wal.disk

    def append(self, payload: Any, size: int, callback: Callable[[], None]) -> int:
        return self._wal.append(payload, size, callback, self.tag)

    def crash(self) -> None:
        # Crash semantics belong to the shared log; calling it through
        # any view is equivalent (idempotent per crash event).
        self._wal.crash()

    def recover(self) -> list[WalRecord]:
        """The shared log's surviving records that carry this view's tag.

        Checksum-failed records are surfaced too (their header, and so
        their tag, survives bit-rot) so the acceptor can rebuild its
        vote metadata; the shared log's :meth:`WriteAheadLog.recover`
        has already truncated any torn tail. The records are the shared
        log's own, so ``valid`` is theirs and a clean one costs nothing.
        """
        tag = self.tag
        return [rec for rec in self._wal.recover() if rec.tag == tag]
