"""Consistency-oriented integration tests: snapshot reads, replica
agreement, read-your-writes."""

import pytest

from repro.core import classic_paxos, rs_paxos
from repro.kvstore import build_cluster
from repro.workload import ClosedLoopDriver, SizeRange, WorkloadSpec

from .test_read_retention import read_bytes


def make(config=None, seed=2, **kw):
    c = build_cluster(config or rs_paxos(5, 1), seed=seed, num_groups=2, **kw)
    c.start()
    c.run(until=1.0)
    return c


class TestSnapshotReads:
    def test_follower_serves_snapshot_read(self):
        c = make()
        payload = bytes(range(250)) * 12
        c.clients[0].put("snap", len(payload), data=payload,
                         on_done=lambda ok: None)
        c.run(until=3.0)
        follower = next(s for s in c.servers if not s.is_leader_server)
        # The follower holds only a 1/3 share; a snapshot read gathers
        # X shares and reconstructs the full value (§4.4). The first
        # read keeps nothing, the second keeps the value whole, and the
        # third is served from it without gathering.
        for n, complete in ((1, False), (2, True), (3, True)):
            assert read_bytes(c, "snap", mode="snapshot",
                              server=follower.name) == payload
            assert follower.reads.snapshot_reads == n
            assert follower.store.get("snap").complete is complete
        assert follower.reads.recovery_reads == 2

    def test_snapshot_read_sees_stale_but_valid_state(self):
        c = make()
        c.clients[0].put("k", 100, on_done=lambda ok: None)
        c.run(until=3.0)
        # Partition a follower, overwrite the key, then snapshot-read
        # from the stale follower: it must serve its old version (or
        # nothing), never an error.
        follower = c.servers[3]
        others = [s.name for s in c.servers if s is not follower] + \
                 [cl.name for cl in c.clients]
        got = []
        c.clients[0].put("k", 999, on_done=lambda ok: got.append(("w", ok)))
        c.run(until=6.0)
        c.clients[0].get("k", mode="snapshot", server=follower.name,
                         on_done=lambda ok, size: got.append(("r", ok, size)))
        c.run(until=12.0)
        reads = [g for g in got if g[0] == "r"]
        assert reads and reads[0][1] is True
        assert reads[0][2] in (100, 999)

    def test_snapshot_from_leader_is_current(self):
        c = make(config=classic_paxos(5))
        c.clients[0].put("lk", 555, on_done=lambda ok: None)
        c.run(until=3.0)
        got = []
        c.clients[0].get("lk", mode="snapshot", server=c.servers[0].name,
                         on_done=lambda ok, size: got.append(size))
        c.run(until=5.0)
        assert got == [555]


class TestReplicaAgreement:
    def test_stores_agree_after_quiescence(self):
        """After load stops and commits propagate, every live replica
        agrees on the version of every key (followers may hold shares,
        but never a *different* version than the leader)."""
        c = make(num_clients=4)
        spec = WorkloadSpec("AGREE", 0.2, SizeRange(256, 4096),
                            num_keys=12, prepopulate=0)
        drivers = [
            ClosedLoopDriver(c.sim, cl, spec, stream=f"d{i}")
            for i, cl in enumerate(c.clients)
        ]
        for d in drivers:
            d.start()
        c.run(until=6.0)
        for d in drivers:
            d.stop()
        c.run(until=c.sim.now + 3.0)  # drain commits
        leader = c.leader()
        for s in c.servers:
            if s is leader or not s.up:
                continue
            for key in leader.store.keys():
                mine = leader.store.get_entry(key)
                theirs = s.store.get_entry(key)
                if theirs is None:
                    continue  # commit may still be missing; never wrong
                assert theirs.version <= mine.version or (
                    theirs.version == mine.version
                ), (key, mine.version, theirs.version)

    def test_chosen_logs_agree_across_replicas(self):
        c = make(num_clients=2)
        for i in range(10):
            c.clients[i % 2].put(f"log-{i}", 128, on_done=lambda ok: None)
        c.run(until=8.0)
        reference: dict[tuple[int, int], str] = {}
        for s in c.servers:
            for g, node in enumerate(s.groups):
                for inst, rec in node.chosen.items():
                    key = (g, inst)
                    if key in reference:
                        assert reference[key] == rec.value_id, key
                    else:
                        reference[key] = rec.value_id
        assert reference  # something was decided


class TestReadYourWrites:
    def test_leader_fast_read_sees_committed_put(self):
        c = make()
        sizes = []

        def after_put(ok):
            assert ok
            c.clients[0].get("ryw", on_done=lambda ok2, size: sizes.append(size))

        c.clients[0].put("ryw", 424, on_done=after_put)
        c.run(until=5.0)
        assert sizes == [424]

    def test_consistent_read_after_failover(self):
        """Consistent reads work even while leases are cold after a
        failover (they go through a Paxos instance, §4.4)."""
        c = make()
        c.clients[0].put("cr", 512, on_done=lambda ok: None)
        c.run(until=3.0)
        c.crash_server(0)
        c.run(until=10.0)
        got = []
        c.clients[0].get("cr", mode="consistent",
                         on_done=lambda ok, size: got.append((ok, size)))
        c.run(until=20.0)
        assert got == [(True, 512)]
