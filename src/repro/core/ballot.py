"""Ballot identifiers.

A ballot id is globally unique and totally ordered: a (round, proposer)
pair compared lexicographically, exactly the paper's "a ballot id,
formed with the proposer id and a natural number" (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Ballot:
    """Totally ordered, globally unique ballot id."""

    round: int
    proposer: int

    def __post_init__(self) -> None:
        if self.round < 0:
            raise ValueError("ballot round must be non-negative")

    # The order of the tuple (round, proposer), spelled out: several
    # ballots are compared per message, and ``dataclass(order=True)``
    # builds two tuples for each comparison.

    def __lt__(self, other: "Ballot") -> bool:
        if other.__class__ is not Ballot:
            return NotImplemented
        return self.round < other.round or (
            self.round == other.round and self.proposer < other.proposer)

    def __le__(self, other: "Ballot") -> bool:
        if other.__class__ is not Ballot:
            return NotImplemented
        return self.round < other.round or (
            self.round == other.round and self.proposer <= other.proposer)

    def __gt__(self, other: "Ballot") -> bool:
        if other.__class__ is not Ballot:
            return NotImplemented
        return self.round > other.round or (
            self.round == other.round and self.proposer > other.proposer)

    def __ge__(self, other: "Ballot") -> bool:
        if other.__class__ is not Ballot:
            return NotImplemented
        return self.round > other.round or (
            self.round == other.round and self.proposer >= other.proposer)

    def next(self, proposer: int) -> "Ballot":
        """The smallest ballot for ``proposer`` greater than this one."""
        return Ballot(self.round + 1, proposer)

    @classmethod
    def initial(cls, proposer: int) -> "Ballot":
        return cls(0, proposer)

    def __str__(self) -> str:
        return f"b({self.round}.{self.proposer})"


#: Sentinel meaning "has not promised / accepted anything yet".
#: Compares below every real ballot.
NULL_BALLOT = Ballot(0, -1)
