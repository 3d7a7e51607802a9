"""Tests for leader leases and drifting local clocks (§4.3)."""

import pytest

from repro.core import Lease, LeaseConfig, LocalClock
from repro.sim import Simulator


class TestLeaseConfig:
    def test_follower_timeout_is_delta_plus_drift(self):
        cfg = LeaseConfig(duration=2.0, max_drift=0.05)
        assert cfg.follower_timeout == pytest.approx(2.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            LeaseConfig(duration=0)
        with pytest.raises(ValueError):
            LeaseConfig(duration=1.0, heartbeat_interval=1.0)
        with pytest.raises(ValueError):
            LeaseConfig(max_drift=-0.1)


class TestLocalClock:
    def test_offset_applied(self):
        sim = Simulator()
        sim.call_at(10.0, lambda: None)
        sim.run()
        assert LocalClock(sim, 0.02).now() == pytest.approx(10.02)
        assert LocalClock(sim, -0.02).now() == pytest.approx(9.98)


class TestLease:
    def make(self, offset=0.0, duration=2.0, drift=0.05):
        sim = Simulator()
        cfg = LeaseConfig(duration=duration, max_drift=drift,
                          heartbeat_interval=0.5)
        return sim, Lease(LocalClock(sim, offset), cfg)

    def advance(self, sim, t):
        sim.call_at(t, lambda: None)
        sim.run()

    def test_unrenewed_lease_not_held(self):
        sim, lease = self.make()
        assert not lease.held_by_leader()
        assert lease.vacant_for_follower()

    def test_renewed_lease_held_for_duration(self):
        sim, lease = self.make()
        lease.renew()
        self.advance(sim, 1.9)
        assert lease.held_by_leader()
        self.advance(sim, 2.1)
        assert not lease.held_by_leader()

    def test_follower_waits_longer_than_leader(self):
        # The §4.3 asymmetry: between Δ and Δ+δ the leader has stopped
        # serving fast reads but followers must not yet elect.
        sim, lease = self.make()
        lease.renew()
        self.advance(sim, 2.02)
        assert not lease.held_by_leader()
        assert not lease.vacant_for_follower()
        self.advance(sim, 2.06)
        assert lease.vacant_for_follower()

    def test_invalidate(self):
        sim, lease = self.make()
        lease.renew()
        lease.invalidate()
        assert not lease.held_by_leader()
        assert lease.vacant_for_follower()

    def test_renewed_at_names_the_renewal_a_lapse_counts_from(self):
        # Unchanged between two reads means no renewal came in between:
        # what a deferred pre-vote answer checks at the lapse.
        sim, lease = self.make(offset=0.01)
        assert lease.renewed_at is None
        self.advance(sim, 1.0)
        lease.renew()
        assert lease.renewed_at == pytest.approx(1.01)
        self.advance(sim, 1.5)
        assert lease.renewed_at == pytest.approx(1.01)
        lease.renew()
        assert lease.renewed_at == pytest.approx(1.51)
        lease.invalidate()
        assert lease.renewed_at is None

    def test_fast_read_hold_boundary_at_plus_half_drift(self):
        # A clock pinned at the +δ/2 extreme (the worst fast clock
        # build_cluster ever draws) measures the hold window locally:
        # fast reads stop exactly at Δ after renewal, drift or not.
        sim, lease = self.make(offset=+0.025, duration=2.0, drift=0.05)
        lease.renew()
        self.advance(sim, 1.999)
        assert lease.held_by_leader()
        self.advance(sim, 2.001)
        assert not lease.held_by_leader()

    def test_vacancy_boundary_at_minus_half_drift(self):
        # The slowest clock (−δ/2) still waits the full Δ+δ before
        # declaring vacancy — the extra δ is what keeps a fast-read
        # leader and an electing follower from overlapping.
        sim, lease = self.make(offset=-0.025, duration=2.0, drift=0.05)
        lease.renew()
        self.advance(sim, 2.049)
        assert not lease.vacant_for_follower()
        self.advance(sim, 2.051)
        assert lease.vacant_for_follower()

    def test_no_overlap_at_extreme_offsets(self):
        # Probe the exact §4.3 boundary instants with the leader and
        # follower clocks pinned at ±δ/2, both assignments: at no
        # sampled instant may fast reads and vacancy coexist.
        for lead_off, foll_off in ((+0.05, -0.05), (-0.05, +0.05)):
            sim = Simulator()
            cfg = LeaseConfig(duration=2.0, max_drift=0.1,
                              heartbeat_interval=0.5)
            leader = Lease(LocalClock(sim, lead_off), cfg)
            follower = Lease(LocalClock(sim, foll_off), cfg)
            leader.renew()
            follower.renew()
            for t in (1.999, 2.0, 2.001, 2.05, 2.099, 2.1, 2.101):
                sim.call_at(t, lambda: None)
                sim.run()
                assert not (
                    leader.held_by_leader()
                    and follower.vacant_for_follower()
                ), f"overlap at t={t} offsets=({lead_off}, {foll_off})"

    def test_late_observed_renewal_only_delays_vacancy(self):
        # A follower that hears the renewal late (heartbeat delay)
        # starts its Δ+δ window later — vacancy moves later, never
        # earlier, so the no-overlap bound is preserved.
        sim = Simulator()
        cfg = LeaseConfig(duration=2.0, max_drift=0.1,
                          heartbeat_interval=0.5)
        leader = Lease(LocalClock(sim, +0.05), cfg)
        follower = Lease(LocalClock(sim, -0.05), cfg)
        leader.renew()
        sim.call_at(0.3, follower.renew)
        sim.run()
        self.advance(sim, 2.35)
        assert not leader.held_by_leader()
        assert not follower.vacant_for_follower()
        self.advance(sim, 2.45)
        assert follower.vacant_for_follower()

    def test_no_overlap_under_bounded_drift(self):
        """With |offsets| <= δ/2 a follower that declares vacancy can
        never do so while a leader still believes it holds the lease,
        regardless of drift direction."""
        sim = Simulator()
        cfg = LeaseConfig(duration=2.0, max_drift=0.1, heartbeat_interval=0.5)
        leader = Lease(LocalClock(sim, +0.05), cfg)   # fast clock
        follower = Lease(LocalClock(sim, -0.05), cfg)  # slow clock
        leader.renew()
        follower.renew()  # follower observed the same renewal
        for t in (0.5, 1.0, 1.5, 1.99, 2.0, 2.05, 2.1, 2.2):
            sim.call_at(t, lambda: None)
            sim.run()
            assert not (leader.held_by_leader() and follower.vacant_for_follower())
