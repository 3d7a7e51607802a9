"""Proposer-side pure logic: promise scanning and vote counting.

The phase-1(c) rule (§3.2) is the heart of RS-Paxos and lives in
:func:`scan_promises`: among the accepted coded shares reported by a
read quorum of promises, find the highest-ballot *recoverable* value
(>= X distinct shares) and re-propose it; if nothing is recoverable the
proposer is free to use its own value.

With a safe configuration (X <= QR + QW - N) a chosen-or-possibly-chosen
value is always recoverable here — that is Proposition 3. With the
naive configuration it is not, and this same code path is where the
Figure 2 safety violation becomes visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..erasure import NotEnoughShares
from .ballot import Ballot
from .messages import Accepted, Promise
from .value import CodedShare, Value, decode_value


@dataclass(frozen=True, slots=True)
class Candidate:
    """A previously accepted value reconstructed during phase 1(c)."""

    value: Value
    ballot: Ballot  # highest ballot under which a share was accepted
    shares_seen: int


@dataclass(frozen=True, slots=True)
class ScanResult:
    """Outcome of the phase-1(c) scan for one instance.

    ``must_repropose`` is the recovered candidate (None means the
    proposer may use its own value). ``unrecoverable`` lists value ids
    that were seen accepted but could not be reconstructed — nonempty
    only in unsafe configurations or when a value was never chosen.
    """

    must_repropose: Candidate | None
    unrecoverable: tuple[str, ...] = ()


def scan_instance(
    accepted: list[tuple[Ballot, CodedShare]],
) -> ScanResult:
    """Apply the phase-1(c) rule to one instance's reported accepts.

    Parameters
    ----------
    accepted:
        (ballot, share) pairs collected from a read quorum of promises,
        one per acceptor that had accepted something for this instance.
    """
    if not accepted:
        return ScanResult(None)
    by_value: dict[str, list[tuple[Ballot, CodedShare]]] = {}
    for ballot, share in accepted:
        by_value.setdefault(share.value_id, []).append((ballot, share))
    # Candidates ordered by their highest accepted ballot, descending.
    ranked = sorted(
        by_value.items(),
        key=lambda kv: max(b for b, _ in kv[1]),
        reverse=True,
    )
    unrecoverable: list[str] = []
    for value_id, pairs in ranked:
        shares = [s for _, s in pairs]
        try:
            value = decode_value(shares)
        except NotEnoughShares:
            value = _reconstruct_despite_rot(shares)
            if value is None:
                unrecoverable.append(value_id)
                continue
        return ScanResult(
            Candidate(
                value=value,
                ballot=max(b for b, _ in pairs),
                shares_seen=len({s.index for s in shares}),
            ),
            tuple(unrecoverable),
        )
    return ScanResult(None, tuple(unrecoverable))


def _reconstruct_despite_rot(shares: list[CodedShare]) -> Value | None:
    """Modeled-mode fallback when bit-rot leaves < X *clean* shares.

    Safety demands the scan treat a possibly-chosen value as
    recoverable whenever >= X acceptors *voted* for it — corrupt or
    not — because with QW > X the value may already be chosen, and
    proposing a free-choice noop over it would violate agreement. A
    corrupt share's vote metadata (value id, size, uncoded meta) is
    intact; only its coded payload rotted, and the scrubber repairs
    payloads out of band. In modeled mode no payload bytes exist
    anyway, so the value can be rebuilt from metadata alone. In
    concrete mode (real bytes) this fallback cannot conjure the
    payload and returns None — the instance is genuinely unreadable
    until scrub repair restores clean shares.
    """
    distinct = {s.index for s in shares}
    config = shares[0].config
    if len(distinct) < config.x:
        return None  # not enough votes even counting rotten shares
    if any(s.data is not None for s in shares):
        return None  # concrete mode: rotten bytes cannot be decoded
    ref = shares[0]
    return Value(ref.value_id, ref.value_size, None, ref.meta)


def scan_promises(
    promises: list[Promise],
) -> dict[int, ScanResult]:
    """Run the phase-1(c) scan over every instance the promises report."""
    per_instance: dict[int, list[tuple[Ballot, CodedShare]]] = {}
    for p in promises:
        for inst, (ballot, share) in p.accepted.items():
            per_instance.setdefault(inst, []).append((ballot, share))
    return {inst: scan_instance(acc) for inst, acc in per_instance.items()}


@dataclass(slots=True)
class VoteTracker:
    """Counts phase-2(b) votes for one instance until QW is reached."""

    instance: int
    ballot: Ballot
    value_id: str
    quorum: int
    voters: set[int] = field(default_factory=set)

    def record(self, msg: Accepted) -> bool:
        """Add a vote; returns True when the value just became chosen.

        Votes for other ballots/values and duplicate voters are ignored
        (only QW acks *of this proposal* choose the value).
        """
        if msg.instance != self.instance:
            return False
        if msg.ballot != self.ballot or msg.value_id != self.value_id:
            return False
        if msg.acceptor in self.voters:
            return False
        before = len(self.voters)
        self.voters.add(msg.acceptor)
        return before < self.quorum <= len(self.voters)

    @property
    def chosen(self) -> bool:
        return len(self.voters) >= self.quorum


@dataclass(slots=True)
class PromiseTracker:
    """Counts phase-1(b) promises until QR is reached."""

    ballot: Ballot
    quorum: int
    promises: dict[int, Promise] = field(default_factory=dict)

    def record(self, acceptor: int, promise: Promise) -> bool:
        """Add a promise; returns True when the read quorum just filled."""
        if promise.ballot != self.ballot:
            return False
        if acceptor in self.promises:
            return False
        before = len(self.promises)
        self.promises[acceptor] = promise
        return before < self.quorum <= len(self.promises)

    @property
    def complete(self) -> bool:
        return len(self.promises) >= self.quorum

    @property
    def retired_below(self) -> int:
        """The highest retirement floor among the promises: every
        instance below it is chosen, and a promiser may have forgotten
        its vote there, so the proposer must neither re-drive nor
        free-choose it."""
        return max((p.retired_below for p in self.promises.values()),
                   default=0)
