"""Length-prefixed batch framing for leader-side command batching.

A batch packs many client commands into **one** Paxos value so the
leader pays one RS encode, one WAL append, and one Accept quorum round
for the whole group of commands (Marandi et al.: batching dominates
every other Paxos tuning knob; it composes with RS-Paxos because the
encode runs once over the concatenated payload).

Wire layout (all integers little-endian):

    frame   := MAGIC(2) count(u32) entry* frame_crc32(u32)
    entry   := op(u8) key_len(u16) client_len(u16) value_len(u32)
               op_id(u64) entry_crc32(u32) key client value

``entry_crc32`` covers the entry's header fields and body, so a decoder
can attribute damage to one command; ``frame_crc32`` covers every
preceding frame byte, which guarantees *any* single-bit flip — including
one in a length field that would otherwise shift the parse — is
rejected. Decoding is all-or-nothing: :func:`decode_frame` validates the
entire frame before returning, so a corrupt batch is never partially
applied.

:func:`payload_for_key` reads one key's payload back out of a decoded
value. :class:`Batcher` holds the pending batches and closes them by
count, bytes or linger; the server proposes what it closes.

Two representations exist because values are dual-mode (§ concrete vs
modeled): :class:`FramedCommand` carries real payload bytes and travels
inside ``Value.data``; :class:`BatchItem` carries sizes only and rides
*uncoded* in the value's metadata (`BatchMeta`), so followers can apply
a batch — per-key shares, dedup identities, tombstones — without
decoding the value, exactly like single-command metadata (paper §4.4).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .messages import Command

MAGIC = b"\xb5\x01"

#: op tag on the wire.
_OPS = {"put": 0, "delete": 1, "read": 2}
_OPS_REV = {code: op for op, code in _OPS.items()}

_HEADER = struct.Struct("<2sI")           # magic, count
_ENTRY_HEAD = struct.Struct("<BHHIQ")     # op, key_len, client_len, value_len, op_id
_CRC = struct.Struct("<I")

#: Fixed bytes per entry (header + entry CRC) — the modeled-mode cost.
ENTRY_OVERHEAD = _ENTRY_HEAD.size + _CRC.size
#: Fixed bytes per frame (header + frame CRC).
FRAME_OVERHEAD = _HEADER.size + _CRC.size


class FrameError(ValueError):
    """A batch frame failed validation (truncated, corrupt, malformed)."""


@dataclass(frozen=True, slots=True)
class FramedCommand:
    """One command with its concrete payload, as carried in the frame."""

    op: str
    key: str
    data: bytes = b""
    client: str = ""
    op_id: int = 0


@dataclass(frozen=True, slots=True)
class BatchItem:
    """One command's metadata (sizes only) — rides uncoded on shares."""

    op: str
    key: str
    size: int
    client: str = ""
    op_id: int = 0


@dataclass(frozen=True, slots=True)
class BatchMeta:
    """Metadata for a whole batch: per-command items in frame order."""

    items: tuple[BatchItem, ...]


def _entry_crc(head: bytes, key_b: bytes, client_b: bytes, data: bytes) -> int:
    crc = zlib.crc32(head)
    crc = zlib.crc32(key_b, crc)
    crc = zlib.crc32(client_b, crc)
    crc = zlib.crc32(data, crc)
    return crc & 0xFFFFFFFF


def encode_frame(commands: Sequence[FramedCommand]) -> bytes:
    """Serialize ``commands`` into one self-validating frame."""
    parts = [_HEADER.pack(MAGIC, len(commands))]
    for cmd in commands:
        code = _OPS.get(cmd.op)
        if code is None:
            raise FrameError(f"unframeable op {cmd.op!r}")
        key_b = cmd.key.encode("utf-8")
        client_b = cmd.client.encode("utf-8")
        data = cmd.data if cmd.data is not None else b""
        if len(key_b) > 0xFFFF or len(client_b) > 0xFFFF:
            raise FrameError("key/client too long for u16 length prefix")
        if not 0 <= cmd.op_id < 2 ** 64:
            raise FrameError("op_id out of u64 range")
        if len(data) > 0xFFFFFFFF:
            raise FrameError("value too large for u32 length prefix")
        head = _ENTRY_HEAD.pack(
            code, len(key_b), len(client_b), len(data), cmd.op_id
        )
        parts.append(head)
        parts.append(_CRC.pack(_entry_crc(head, key_b, client_b, data)))
        parts.append(key_b)
        parts.append(client_b)
        parts.append(data)
    body = b"".join(parts)
    return body + _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)


def decode_frame(buf: bytes) -> tuple[FramedCommand, ...]:
    """Parse and fully validate a frame; raises :class:`FrameError` on
    any damage. Never returns a partial command list."""
    buf = bytes(buf)
    if len(buf) < FRAME_OVERHEAD:
        raise FrameError("frame truncated below fixed overhead")
    magic, count = _HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise FrameError("bad magic")
    (frame_crc,) = _CRC.unpack_from(buf, len(buf) - _CRC.size)
    end = len(buf) - _CRC.size
    if zlib.crc32(buf[:end]) & 0xFFFFFFFF != frame_crc:
        raise FrameError("frame checksum mismatch")
    commands: list[FramedCommand] = []
    off = _HEADER.size
    for _ in range(count):
        if off + ENTRY_OVERHEAD > end:
            raise FrameError("entry header truncated")
        code, klen, clen, vlen, op_id = _ENTRY_HEAD.unpack_from(buf, off)
        head = buf[off:off + _ENTRY_HEAD.size]
        (crc,) = _CRC.unpack_from(buf, off + _ENTRY_HEAD.size)
        off += ENTRY_OVERHEAD
        if off + klen + clen + vlen > end:
            raise FrameError("entry body truncated")
        key_b = buf[off:off + klen]
        off += klen
        client_b = buf[off:off + clen]
        off += clen
        data = buf[off:off + vlen]
        off += vlen
        if _entry_crc(head, key_b, client_b, data) != crc:
            raise FrameError("entry checksum mismatch")
        op = _OPS_REV.get(code)
        if op is None:
            raise FrameError(f"unknown op code {code}")
        try:
            key = key_b.decode("utf-8")
            client = client_b.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrameError("undecodable key/client") from exc
        commands.append(FramedCommand(op, key, data, client, op_id))
    if off != end:
        raise FrameError("trailing bytes after last entry")
    return tuple(commands)


def entry_size(key: str, client: str, value_len: int) -> int:
    """Bytes one command adds to a frame: what :func:`encode_frame`
    writes for it. The one definition behind :func:`frame_size` and the
    leader's running size of its pending batch."""
    return (
        ENTRY_OVERHEAD
        + len(key.encode("utf-8"))
        + len(client.encode("utf-8"))
        + value_len
    )


def frame_size(items: Iterable[BatchItem]) -> int:
    """Exact frame byte size for modeled-mode values (``data=None``):
    what :func:`encode_frame` would produce for these commands."""
    size = FRAME_OVERHEAD
    for item in items:
        size += entry_size(item.key, item.client, item.size)
    return size


def is_batch(meta) -> bool:
    """Is ``meta`` a batch command's metadata?"""
    return isinstance(meta, Command) and meta.op == "batch"


def meta_of(rec):
    """The command metadata a chosen record carries (its value's, else
    its share's), or None for a record that names its value only."""
    if rec.value is not None:
        return rec.value.meta
    if rec.share is not None:
        return rec.share.meta
    return None


def put_keys_of(meta) -> tuple[str, ...]:
    """Keys a decision wrote — drives placement confirmation and the
    scrubber's store-mirror bookkeeping, batch-aware."""
    if not isinstance(meta, Command):
        return ()
    if meta.op == "put" or (meta.op == "copy" and meta.arg != "tombstone"):
        return (meta.key,)
    if is_batch(meta) and isinstance(meta.arg, BatchMeta):
        return tuple(i.key for i in meta.arg.items if i.op == "put")
    return ()


def frame_payloads(raw, items) -> list:
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


def payload_for_key(meta, data, size: int, key: str):
    """(data, size) that ``key`` holds once a value with this ``meta``,
    ``data`` and ``size`` applies: the value itself for a plain put; for
    a batch, the last framed write to the key (frame order is apply
    order)."""
    if not is_batch(meta):
        return data, size
    arg = meta.arg
    items = arg.items if isinstance(arg, BatchMeta) else ()
    out, out_size = None, 0
    for item, item_data in zip(items, frame_payloads(data, items)):
        if item.key == key and item.op == "put":
            out, out_size = item_data, item.size
        elif item.key == key and item.op == "delete":
            out, out_size = None, 0
    return out, out_size


@dataclass(slots=True)
class Parked:
    """One admitted command waiting in a pending batch: what the frame
    needs of it, and its two replies — ``finish`` once its batch is
    applied, ``respond`` (the raw responder) on the failure paths."""

    op: str
    key: str
    size: int
    data: bytes | None
    client: str
    op_id: int
    finish: Callable[[], None]
    respond: Callable


class Batcher:
    """The leader's pending batches, one per group, and the rules that
    close them: at ``max_commands`` commands, when the frame would reach
    ``max_bytes``, or ``linger`` seconds on ``clock`` (anything with
    ``call_after``) after the first command — whichever comes first.
    ``close(group, entries)`` gets each closed batch, its commands in
    arrival order, and owns what follows: proposing it, or failing it.

    A batch of one closes inside ``add`` without arming a timer, so at
    ``max_commands=1`` each command is proposed as it arrives.
    ``linger=0`` still coalesces the commands of one instant: the close
    is a zero-delay event behind them. The frame size is a running sum
    of :func:`entry_size`, kept while the count cap has not closed the
    batch, so sizing n commands is n steps, not n²/2.
    """

    __slots__ = ("_clock", "_max_commands", "_max_bytes", "_linger",
                 "_close", "_pending", "_bytes", "_timers")

    def __init__(self, clock, max_commands: int, max_bytes: int,
                 linger: float, close) -> None:
        self._clock = clock
        self._max_commands = max_commands
        self._max_bytes = max_bytes
        self._linger = linger
        self._close = close
        self._pending: dict[int, list] = {}
        self._bytes: dict[int, int] = {}
        self._timers: dict[int, object] = {}

    def add(self, group: int, entry: Parked) -> None:
        """Park ``entry`` in ``group``'s batch; close the batch if it
        is full, else make sure its linger timer runs."""
        pending = self._pending.get(group)
        if pending is None:
            pending = self._pending[group] = []
        pending.append(entry)
        if len(pending) >= self._max_commands:
            self._close_group(group)
            return
        size = self._bytes[group] = self._bytes.get(
            group, FRAME_OVERHEAD
        ) + entry_size(entry.key, entry.client, entry.size)
        if size >= self._max_bytes:
            self._close_group(group)
        elif group not in self._timers:
            self._timers[group] = self._clock.call_after(
                self._linger, lambda: self._close_group(group))

    def flush(self) -> list:
        """Drop every pending batch and cancel its timer; returns the
        parked commands, group by group in the order they arrived."""
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        self._bytes.clear()
        pending, self._pending = self._pending, {}
        return [e for entries in pending.values() for e in entries]

    def _close_group(self, group: int) -> None:
        timer = self._timers.pop(group, None)
        if timer is not None:
            timer.cancel()
        self._bytes.pop(group, None)
        entries = self._pending.pop(group, None)
        if entries:
            self._close(group, entries)
