"""The erasure-coding configuration θ(X, N) used throughout the paper.

θ(X, N) divides a value into ``X`` original data shares and computes
``N - X`` redundant shares, for a total of ``N`` equal-sized shares; any
``X`` of them reconstruct the value (Section 2.2 of the paper).

Plain replication is the degenerate θ(1, N): every "share" is the full
value, which is exactly how classic Paxos ships values. This lets the
same code path drive both Paxos (X=1) and RS-Paxos (X>1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, slots=True)
class CodingConfig:
    """Erasure-coding parameters θ(X, N).

    Attributes
    ----------
    x:
        Number of original data shares (``m`` in classic EC notation;
        the paper calls it ``X``).
    n:
        Total number of shares, original + redundant.
    """

    x: int
    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.x <= self.n:
            raise ValueError(f"need 1 <= X <= N, got X={self.x}, N={self.n}")
        if self.n > 256:
            raise ValueError("GF(2^8) Reed-Solomon supports at most 256 shares")

    @property
    def k(self) -> int:
        """Number of redundant (parity) shares."""
        return self.n - self.x

    @property
    def redundancy_rate(self) -> Fraction:
        """Storage redundancy r = N / X (Section 2.2).

        Full replication over N copies is N/1; θ(3, 5) is 5/3.
        """
        return Fraction(self.n, self.x)

    @property
    def is_replication(self) -> bool:
        """True when the configuration degenerates to full copies."""
        return self.x == 1

    def share_size(self, value_size: int) -> int:
        """Size in bytes of one coded share of a ``value_size``-byte value.

        The share size is ``ceil(value_size / X)``: the canonical rows
        are the value zero-padded to a multiple of ``X``. The codec
        keeps that padding implicit (a tail original is a short view,
        parity is full width), but every share is charged to a wire or
        a disk at this size. A zero-length value still produces
        zero-length shares.
        """
        if value_size < 0:
            raise ValueError("value_size must be non-negative")
        return math.ceil(value_size / self.x)

    def padded_size(self, value_size: int) -> int:
        """Total bytes across all original shares (value + padding)."""
        return self.share_size(value_size) * self.x

    def total_coded_size(self, value_size: int) -> int:
        """Total bytes across all N shares."""
        return self.share_size(value_size) * self.n

    def savings_vs_replication(self, value_size: int) -> float:
        """Fraction of network/storage bytes saved versus N full copies."""
        full = value_size * self.n
        if full == 0:
            return 0.0
        return 1.0 - self.total_coded_size(value_size) / full

    def __str__(self) -> str:  # matches the paper's notation
        return f"theta({self.x},{self.n})"
