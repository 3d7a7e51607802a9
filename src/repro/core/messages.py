"""Protocol messages of (RS-)Paxos.

These are pure data; the network charges each message its ``wire_bytes``
so the evaluation's cost model (a coded accept is ~1/X the size of a
full-copy accept) follows directly from the message definitions.

Multi-Paxos batch prepare (§5 optimization 1) is expressed by
``Prepare.from_instance`` + open upper bound: one prepare covers every
instance >= from_instance, and the promise reports all accepted state
in that range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ballot import Ballot
from .value import CodedShare

#: Small fixed metadata size charged for protocol fields in messages.
META_BYTES = 48


@dataclass(frozen=True, slots=True)
class Prepare:
    """Phase 1(a): reserve ballot for all instances >= from_instance."""

    ballot: Ballot
    from_instance: int = 0

    @property
    def wire_bytes(self) -> int:
        return META_BYTES


@dataclass(frozen=True, slots=True)
class Promise:
    """Phase 1(b): promise + previously accepted state (if any).

    ``accepted`` maps instance -> (ballot, coded share) for every
    instance >= the prepare's from_instance where this acceptor had
    accepted a proposal and still holds the vote. ``retired_below`` is
    the acceptor's durable retirement floor: every instance below it is
    chosen, and some of their votes are gone (DESIGN.md §4 "Durable
    records are immutable values"). It rides in the fixed metadata, so
    the wire size is unchanged.
    """

    ballot: Ballot
    from_instance: int
    accepted: dict[int, tuple[Ballot, CodedShare]] = field(default_factory=dict)
    retired_below: int = 0

    @property
    def wire_bytes(self) -> int:
        return META_BYTES + sum(
            META_BYTES + share.size for _, share in self.accepted.values()
        )


@dataclass(frozen=True, slots=True)
class Accept:
    """Phase 2(a): ask the acceptor to accept one coded share."""

    instance: int
    ballot: Ballot
    share: CodedShare

    @property
    def wire_bytes(self) -> int:
        return META_BYTES + self.share.size


@dataclass(frozen=True, slots=True)
class Accepted:
    """Phase 2(b) positive reply."""

    instance: int
    ballot: Ballot
    value_id: str
    acceptor: int

    @property
    def wire_bytes(self) -> int:
        return META_BYTES


@dataclass(frozen=True, slots=True)
class Nack:
    """Negative reply to Prepare or Accept: a higher ballot was seen.

    Not part of minimal Paxos but standard practice — it lets a stale
    proposer abandon its round immediately instead of timing out.
    """

    instance: int  # -1 for prepare-range nacks
    promised: Ballot

    @property
    def wire_bytes(self) -> int:
        return META_BYTES


@dataclass(frozen=True, slots=True)
class Commit:
    """Learn/commit notification (§2.1: value id only, not the value).

    Sent off the critical path, possibly bundled (§5 optimization 2).
    """

    instance: int
    ballot: Ballot
    value_id: str

    @property
    def wire_bytes(self) -> int:
        return META_BYTES
