"""Proposal values and coded shares as the protocol sees them.

Two operating modes share one representation:

- **Concrete mode** (tests, examples): ``data`` holds real bytes and the
  Reed-Solomon codec actually runs, so reconstruction correctness is
  checked end to end.
- **Modeled mode** (throughput experiments): ``data`` is ``None`` and
  only sizes flow through the system; encode/decode *costs* are still
  charged by the simulation but megabytes of payload are never
  materialized per message (DESIGN.md §4 rule 3).

The decode path enforces the ">= X distinct shares" rule in both modes,
which is what the safety arguments (and the §2.3 counterexample) rest
on.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Any

from ..erasure import CodingConfig, NotEnoughShares, Share, codec_for

_value_seq = itertools.count()


def fresh_value_id(proposer: int) -> str:
    """A globally unique value id (§3.2: proposals carry a value id)."""
    return f"v{proposer}.{next(_value_seq)}"


def value_digest(value_id: str) -> int:
    """A nonzero 64-bit digest of a value id, the same in every process:
    what a replica keeps of a value it retired (PaxosNode.retire_records)
    instead of the id string."""
    digest = hashlib.blake2b(value_id.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") | 1


@dataclass(frozen=True, slots=True)
class Value:
    """A client value as proposed into the protocol.

    Attributes
    ----------
    value_id:
        Globally unique id identifying the value (not its content).
    size:
        Payload size in bytes (drives all network/disk costs).
    data:
        Real bytes in concrete mode; ``None`` in modeled mode.
    meta:
        Small *uncoded* metadata replicated verbatim with every share
        (§4.4: "Only the value are coded into pieces" — the operation
        type and key stay readable so followers can track which keys
        are modified). Must be cheap to copy; its cost is covered by
        the per-message metadata bytes.
    """

    value_id: str
    size: int
    data: bytes | None = None
    meta: Any = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("negative value size")
        if self.data is not None and len(self.data) != self.size:
            raise ValueError("size does not match data length")


@dataclass(frozen=True, slots=True)
class CodedShare:
    """One coded fragment of a :class:`Value` as carried by accepts.

    ``data`` is None in modeled mode and bytes-like in concrete mode:
    an original share is a read-only ``memoryview`` into the value's
    ``bytes`` (no copy) — short, or empty, where the value runs out,
    since the zero padding of the tail is implicit and ``len(data)``
    need not be ``size`` — and parity is ``bytes``. Nothing may
    assume ``bytes``, nor ``repr`` it into a digest or a trace line — a
    view's repr holds an address. ``index`` is the share index in
    [0, N); under θ(1, N) the share *is* the full value (classic Paxos).
    ``meta`` is the value's uncoded metadata, replicated with every
    share. ``members`` records the (sorted) replica ids the N shares
    were fanned out to — share ``index`` went to ``members[index]`` —
    so a later re-code for a specific replica lands on the right index
    even after view changes renumbered ranks.

    ``corrupt`` marks a share whose stored coded bytes failed checksum
    verification (bit-rot detected by WAL recovery or the scrubber).
    The *metadata* of a corrupt share is still trustworthy — headers
    and uncoded meta are checksummed separately and small — but its
    coded payload must not feed the decoder, so :func:`decode_value`
    excludes corrupt shares from the ≥X distinct-index count.

    ``size`` is the modeled share size in bytes,
    ``config.share_size(value_size)``: read on every hop that charges
    the share to a wire or a disk, so it is stored, not derived per read.
    It is filled in here unless the constructor's caller, having it in
    hand already, passes it (a copy that changes ``config`` or
    ``value_size`` passes ``size=-1`` to have it derived afresh).
    """

    value_id: str
    index: int
    config: CodingConfig
    value_size: int
    data: bytes | memoryview | None = None
    meta: Any = None
    members: tuple[int, ...] | None = None
    corrupt: bool = False
    size: int = -1

    def __post_init__(self) -> None:
        if self.size < 0:
            object.__setattr__(
                self, "size", self.config.share_size(self.value_size))

    def corrupted(self) -> "CodedShare":
        """This share with its coded payload marked rotten."""
        return CodedShare(
            self.value_id, self.index, self.config, self.value_size,
            self.data, self.meta, self.members, corrupt=True, size=self.size,
        )


def encode_value(
    value: Value,
    config: CodingConfig,
    members: tuple[int, ...] | None = None,
) -> list[CodedShare]:
    """Encode a value into N coded shares under ``config``.

    Concrete mode runs the real codec; modeled mode fabricates
    size-only shares. ``members`` (sorted replica ids, one per share)
    is stamped on every share for view-change-proof re-coding.
    """
    size = config.share_size(value.size)
    if value.data is None:
        return [
            CodedShare(value.value_id, i, config, value.size,
                       meta=value.meta, members=members, size=size)
            for i in range(config.n)
        ]
    shares = codec_for(config).encode(value.data)
    return [
        CodedShare(value.value_id, s.index, config, value.size, s.data,
                   value.meta, members, size=size)
        for s in shares
    ]


def encode_one_share(
    value: Value,
    config: CodingConfig,
    index: int,
    members: tuple[int, ...] | None = None,
) -> CodedShare:
    """Encode only share ``index`` (used for single-replica catch-up)."""
    if value.data is None:
        return CodedShare(value.value_id, index, config, value.size,
                          meta=value.meta, members=members)
    share = codec_for(config).encode_share(value.data, index)
    return CodedShare(
        value.value_id, index, config, value.size, share.data,
        value.meta, members,
    )


def decode_value(shares: list[CodedShare]) -> Value:
    """Reconstruct a :class:`Value` from >= X distinct coded shares.

    Shares flagged ``corrupt`` (failed checksum verification) never
    feed the decoder and do not count toward the X distinct indices —
    decoding with rotten bytes would silently reconstruct garbage,
    which is strictly worse than failing.

    Raises
    ------
    repro.erasure.NotEnoughShares
        If fewer than X distinct clean indices are present — the exact
        failure the naive combination of §2.3 cannot avoid.
    """
    if not shares:
        raise NotEnoughShares("no shares given")
    config = shares[0].config
    value_id = shares[0].value_id
    if any(s.value_id != value_id for s in shares):
        raise ValueError("shares of different values cannot be combined")
    clean = [s for s in shares if not s.corrupt]
    distinct = {s.index for s in clean}
    if len(distinct) < config.x:
        raise NotEnoughShares(
            f"value {value_id}: need {config.x} distinct clean shares, "
            f"have {len(distinct)}"
            + (f" ({len(shares) - len(clean)} corrupt excluded)"
               if len(shares) > len(clean) else "")
        )
    size = clean[0].value_size
    meta = clean[0].meta
    if all(s.data is not None for s in clean):
        raw = [
            Share(s.index, config, s.value_size, s.data)  # type: ignore[arg-type]
            for s in clean
        ]
        data = codec_for(config).decode(raw)
        return Value(value_id, size, data, meta)
    return Value(value_id, size, None, meta)
