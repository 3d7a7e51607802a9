"""Integration tests: leader failover, recovery reads, catch-up (§4.5)."""

import pytest

from repro.core import classic_paxos, rs_paxos
from repro.kvstore import build_cluster

from .test_read_retention import read_bytes


def make(config=None, seed=1, **kw):
    cluster = build_cluster(config or rs_paxos(5, 1), seed=seed, **kw)
    cluster.start()
    cluster.run(until=1.0)
    return cluster


class TestLeaderFailover:
    def test_new_leader_elected_after_crash(self):
        c = make()
        assert c.leader() is c.servers[0]
        c.crash_server(0)
        c.run(until=10.0)
        new_leader = c.leader()
        assert new_leader is not None
        assert new_leader is not c.servers[0]

    def test_writes_resume_after_failover(self):
        c = make()
        done = []
        c.clients[0].put("before", 256, on_done=lambda ok: done.append(("b", ok)))
        c.run(until=3.0)
        c.crash_server(0)
        c.run(until=10.0)
        c.clients[0].put("after", 256, on_done=lambda ok: done.append(("a", ok)))
        c.run(until=20.0)
        assert ("b", True) in done
        assert ("a", True) in done

    def test_data_survives_failover_rs_paxos(self):
        """A committed value written under the old leader is readable
        after failover — via recovery read (the new leader only has a
        coded share)."""
        c = make(config=rs_paxos(5, 1))
        c.clients[0].put("precious", 3000, on_done=lambda ok: None)
        c.run(until=3.0)
        c.crash_server(0)
        c.run(until=10.0)
        results = []
        c.clients[0].get("precious", on_done=lambda ok, size: results.append((ok, size)))
        c.run(until=20.0)
        assert results == [(True, 3000)]
        assert c.leader().reads.recovery_reads >= 1

    def test_recovery_read_decodes_real_bytes(self):
        """The first read serves the decoded bytes and leaves the entry
        a share; the second keeps the value whole; the third is served
        from it without gathering."""
        c = make(config=rs_paxos(5, 1), num_groups=2)
        payload = bytes(range(256)) * 4
        c.clients[0].put("real", len(payload), data=payload, on_done=lambda ok: None)
        c.run(until=3.0)
        c.crash_server(0)
        c.run(until=10.0)
        leader = c.leader()
        assert leader is not None
        assert read_bytes(c, "real") == payload
        assert not leader.store.get("real").complete
        assert read_bytes(c, "real") == payload
        assert leader.reads.recovery_reads == 2
        entry = leader.store.get("real")
        assert entry.complete and entry.value == payload
        assert read_bytes(c, "real") == payload
        assert leader.reads.recovery_reads == 2

    def test_paxos_failover_needs_no_recovery_read(self):
        """Under classic Paxos every follower holds the full value, so
        the new leader serves reads without gathering shares."""
        c = make(config=classic_paxos(5))
        c.clients[0].put("full", 2000, on_done=lambda ok: None)
        c.run(until=3.0)
        c.crash_server(0)
        c.run(until=10.0)
        results = []
        c.clients[0].get("full", on_done=lambda ok, size: results.append((ok, size)))
        c.run(until=20.0)
        assert results == [(True, 2000)]
        assert c.leader().reads.recovery_reads == 0

    def test_second_failover(self):
        """Fig. 8 scenario: kill the leader, then kill its successor.

        Run under classic Paxos (F = 2). RS-Paxos at N=5 tolerates the
        second uncorrelated failure only after a view change (§6.1) —
        covered by the view-change tests.
        """
        c = make(config=classic_paxos(5))
        c.clients[0].put("k", 512, on_done=lambda ok: None)
        c.run(until=3.0)
        c.crash_server(0)
        c.run(until=12.0)
        second = c.leader()
        assert second is not None
        second_idx = c.servers.index(second)
        c.crash_server(second_idx)
        c.run(until=25.0)
        third = c.leader()
        assert third is not None and third.up
        done = []
        c.clients[0].put("k2", 512, on_done=lambda ok: done.append(ok))
        c.run(until=35.0)
        assert done == [True]


class TestCrashRecovery:
    def test_follower_recovery_catches_up(self):
        c = make(num_groups=2)
        c.clients[0].put("one", 300, on_done=lambda ok: None)
        c.run(until=3.0)
        c.crash_server(4)
        for i in range(3):
            c.clients[0].put(f"while-down-{i}", 300, on_done=lambda ok: None)
        c.run(until=6.0)
        c.recover_server(4)
        c.run(until=12.0)
        f = c.servers[4]
        # The recovered follower re-learned the missed decisions.
        for i in range(3):
            assert f.store.get_entry(f"while-down-{i}") is not None

    def test_recovered_follower_has_share_sized_entries(self):
        c = make(config=rs_paxos(5, 1), num_groups=2)
        c.crash_server(4)
        c.clients[0].put("big", 3000, on_done=lambda ok: None)
        c.run(until=4.0)
        c.recover_server(4)
        c.run(until=12.0)
        entry = c.servers[4].store.get_entry("big")
        assert entry is not None
        assert not entry.complete
        assert entry.size == 1000  # catch-up ships a re-coded share (§4.5)

    def test_system_survives_f_plus_one_sequential_failures_with_recovery(self):
        """§6.1: 'the system is configured to ... tolerate two
        uncorrelated failures, given enough time for view change' — here
        the first crashed node recovers before the second crash."""
        c = make()
        c.clients[0].put("a", 128, on_done=lambda ok: None)
        c.run(until=3.0)
        c.crash_server(4)
        c.run(until=6.0)
        c.recover_server(4)
        c.run(until=12.0)
        c.crash_server(3)
        done = []
        c.clients[0].put("b", 128, on_done=lambda ok: done.append(ok))
        c.run(until=20.0)
        assert done == [True]


class TestLeases:
    def test_fast_read_guarded_by_lease(self):
        c = make()
        leader = c.leader()
        # Invalidate the lease artificially: fast reads must not serve.
        leader.lease.invalidate()
        results = []
        c.clients[0].get("nope", on_done=lambda ok, size: results.append(ok))
        # The next heartbeat renews the lease, after which the retry
        # succeeds (NotFound -> ok=False but answered).
        c.run(until=5.0)
        assert results == [False]

    def test_heartbeats_keep_followers_quiescent(self):
        c = make()
        c.run(until=15.0)
        # No follower ever started an election while the leader was fine.
        assert c.leader() is c.servers[0]
        assert all(not s._electing for s in c.servers if s.up)
