"""Leader leases (§4.3).

The leader holds a lease lasting Δ seconds and renews it by heartbeat;
a follower only considers the leadership vacant after Δ + δ, where δ is
the maximum clock drift between servers. This guarantees (under the
drift bound) that a new leader never serves fast reads while an old
leader still believes it holds the lease.

Clock drift is simulated explicitly: each server's local clock is the
global simulated time plus a fixed per-server offset bounded by ±δ/2,
so lease arithmetic runs on *local* clocks exactly as deployed code
would.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import Simulator


@dataclass(frozen=True, slots=True)
class LeaseConfig:
    """Lease timing parameters.

    Attributes
    ----------
    duration:
        Δ — seconds a granted lease is valid at the leader.
    max_drift:
        δ — bound on pairwise clock drift. Followers wait Δ + δ.
    heartbeat_interval:
        How often the leader refreshes its lease (must be < Δ).
    """

    duration: float = 2.0
    max_drift: float = 0.05
    heartbeat_interval: float = 0.5

    def __post_init__(self) -> None:
        if self.duration <= 0 or self.max_drift < 0:
            raise ValueError("invalid lease timing")
        if self.heartbeat_interval >= self.duration:
            raise ValueError("heartbeat must be shorter than the lease")

    @property
    def follower_timeout(self) -> float:
        """Δ + δ: how long a follower must wait before declaring the
        leadership vacant."""
        return self.duration + self.max_drift


class LocalClock:
    """A server's drifting local clock over the global simulated time."""

    def __init__(self, sim: Simulator, offset: float = 0.0):
        self.sim = sim
        self.offset = offset

    def now(self) -> float:
        return self.sim.now + self.offset


class Lease:
    """Lease state as tracked by one server (leader or follower).

    The holder refreshes with :meth:`renew`; anyone can test
    :meth:`held_by_leader` (from the leader's perspective, valid for Δ
    after the last renewal) or :meth:`vacant_for_follower` (from a
    follower's perspective, vacant only Δ + δ after the last observed
    renewal — the §4.3 asymmetry that makes fast reads safe).
    """

    def __init__(self, clock: LocalClock, config: LeaseConfig):
        self.clock = clock
        self.config = config
        self._last_renewal: float | None = None

    def renew(self) -> None:
        self._last_renewal = self.clock.now()

    def renew_at(self, t_local: float) -> None:
        """Anchor the lease at an earlier local instant.

        Used by the leader to anchor its lease at the *send* time of a
        heartbeat round that was subsequently acknowledged by enough
        followers: the lease is then valid for Δ from the moment those
        followers provably restarted their vacancy timers, not from the
        (later) moment the acks came back. Monotonic — never moves the
        renewal backwards.
        """
        if self._last_renewal is None or t_local > self._last_renewal:
            self._last_renewal = t_local

    @property
    def renewed_at(self) -> float | None:
        """The local instant of the last renewal (None if invalidated):
        the same value at two reads means the lease still lapses at the
        same instant."""
        return self._last_renewal

    def held_by_leader(self) -> bool:
        """Leader-side check guarding fast reads."""
        if self._last_renewal is None:
            return False
        return self.clock.now() < self._last_renewal + self.config.duration

    def vacant_for_follower(self) -> bool:
        """Follower-side check guarding new-leader election."""
        if self._last_renewal is None:
            return True
        return self.clock.now() >= self._last_renewal + self.config.follower_timeout

    def remaining_follower_wait(self) -> float:
        """Seconds until :meth:`vacant_for_follower` flips true (0 if
        already vacant)."""
        if self._last_renewal is None:
            return 0.0
        return max(
            0.0,
            self._last_renewal + self.config.follower_timeout - self.clock.now(),
        )

    def invalidate(self) -> None:
        self._last_renewal = None
