"""Integration tests: admission control, load shedding, hedged fetches.

The overload-protection layer has three moving parts — the bounded
admission pipeline with ``Busy`` shedding, the client folding
``retry_after`` into its backoff, and hedged share fetches steering
around gray (slow-but-alive) peers. These tests exercise each against
a live cluster.
"""

import pytest

from repro.check import check_no_starvation
from repro.core import rs_paxos
from repro.kvstore import build_cluster


def make(**kw):
    cluster = build_cluster(rs_paxos(5, 1), seed=kw.pop("seed", 3), **kw)
    cluster.start()
    cluster.run(until=1.0)  # settle election
    return cluster


def shed_total(cluster) -> int:
    return sum(s.requests_shed for s in cluster.servers)


class TestAdmissionControl:
    def test_flood_sheds_then_every_retry_completes(self):
        # A tiny pipeline under 32 concurrent puts must shed — and the
        # Busy/retry_after loop must still land every op eventually.
        c = make(max_inflight_proposals=2, max_queued_requests=2,
                 num_clients=4)
        done = []
        for i, client in enumerate(c.clients):
            for j in range(8):
                client.put(f"k{i}-{j}", 2000,
                           on_done=lambda ok: done.append(ok))
        c.run(until=30.0)
        assert shed_total(c) > 0
        assert len(done) == 32 and all(done)
        # Shed-or-serve: nothing may still sit in the pipeline.
        assert check_no_starvation(c.servers) == []

    def test_shed_metric_counts(self):
        c = make(max_inflight_proposals=1, max_queued_requests=1,
                 num_clients=4)
        for i, client in enumerate(c.clients):
            for j in range(4):
                client.put(f"m{i}-{j}", 1000, on_done=lambda ok: None)
        c.run(until=20.0)
        leader = c.leader()
        assert leader.metrics.counter("admission.shed").value == \
            leader.requests_shed
        assert leader.requests_shed > 0

    def test_consistent_reads_ride_the_admission_pipeline(self):
        c = make(max_inflight_proposals=1, max_queued_requests=1,
                 num_clients=4)
        done = []
        c.clients[0].put("base", 1000, on_done=lambda ok: done.append(ok))
        c.run(until=3.0)
        for client in c.clients:
            for _ in range(6):
                client.get("base", mode="consistent",
                           on_done=lambda ok, size: done.append(ok))
        c.run(until=30.0)
        assert shed_total(c) > 0
        assert len(done) == 25 and all(done)
        assert check_no_starvation(c.servers) == []

    def test_admission_disabled_never_sheds(self):
        c = make(admission_control=False, num_clients=4)
        done = []
        for i, client in enumerate(c.clients):
            for j in range(8):
                client.put(f"d{i}-{j}", 2000,
                           on_done=lambda ok: done.append(ok))
        c.run(until=30.0)
        assert shed_total(c) == 0
        assert len(done) == 32 and all(done)

    def test_no_starvation_probe_flags_leaks(self):
        c = make(max_inflight_proposals=1)
        admission = c.leader().admission

        def never_replies(slot) -> None:
            pass

        admission.admit(lambda r, n=0: None, never_replies)
        violations = check_no_starvation(c.servers)
        assert len(violations) == 1
        assert "1 open" in violations[0].detail
        # The pipeline of one is now stuck: the next request parks.
        admission.admit(lambda r, n=0: None, never_replies, "gold")
        queued, _open = check_no_starvation(c.servers)
        assert "1 queued" in queued.detail
        assert "gold" in queued.detail      # the probe names the tenant
        admission.flush()
        assert check_no_starvation(c.servers) == []

    def test_snapshot_cursor_jump_releases_parked_waiters(self):
        # A snapshot install can move apply_cursor past instances the
        # apply hook never ran for; replies parked there must still be
        # released or their admission slots leak forever.
        c = make()
        leader = c.leader()
        fired = []
        leader._apply_waiters[(0, 5)] = [lambda: fired.append(5)]
        leader._apply_waiters[(0, 99)] = [lambda: fired.append(99)]
        leader.groups[0].apply_cursor = 10
        leader._release_skipped_waiters(0)
        assert fired == [5]  # skipped waiter runs; future one stays
        assert (0, 5) not in leader._apply_waiters
        assert (0, 99) in leader._apply_waiters
        del leader._apply_waiters[(0, 99)]


class TestHedgedFetches:
    # Big values make the slow NIC bite: a 3 MB value means ~1 MB coded
    # shares, so a x500 NIC slowdown turns an 8 ms share reply into
    # ~4 s — the classic gray failure, alive but late.
    SIZE = 3_000_000
    KEYS = 5

    def _read_tail(self, hedge: bool):
        c = build_cluster(rs_paxos(5, 1), seed=9)
        for srv in c.servers:
            srv.fetch.hedge = hedge
        c.start()
        c.run(until=1.0)
        client = c.clients[0]
        writes = []
        for i in range(self.KEYS):
            client.put(f"key{i}", self.SIZE,
                       on_done=lambda ok: writes.append(ok))
        c.run(until=c.sim.now + 5.0)
        assert len(writes) == self.KEYS and all(writes)

        # Reads go follower-direct (snapshot mode): the follower holds
        # only its coded share, so every fresh key forces a gather.
        reader = c.servers[1]
        assert not reader.is_leader_server
        victim = c.servers[3].name
        # Teach the reader that the victim *used to be* its fastest
        # peer, then gray-fail it: the gather targets the victim first
        # and only hedging can rescue the tail.
        reader.endpoint._record_rtt(victim, 1e-4)
        c.net.set_nic_slowdown(victim, 500.0)
        c.servers[3].disk.slowdown = 50.0

        latencies = []

        def read(i: int) -> None:
            start = c.sim.now

            def on_done(ok: bool, size: int) -> None:
                assert ok and size == self.SIZE
                latencies.append(c.sim.now - start)
                if i + 1 < self.KEYS:
                    read(i + 1)

            client.get(f"key{i}", mode="snapshot", server=reader.name,
                       on_done=on_done)

        read(0)
        c.run(until=c.sim.now + 120.0)
        assert len(latencies) == self.KEYS
        assert reader.reads.recovery_reads >= self.KEYS
        return latencies, reader.fetch.hedge_wins

    def test_hedging_cuts_read_tail_under_slow_node(self):
        lat_on, wins_on = self._read_tail(hedge=True)
        lat_off, wins_off = self._read_tail(hedge=False)
        assert wins_on >= 1
        assert wins_off == 0
        # The gray peer gates the non-hedged tail; hedging must beat it
        # decisively, not within noise.
        assert max(lat_on) < 0.5 * max(lat_off)

    def test_hedging_is_deterministic(self):
        a = self._read_tail(hedge=True)
        b = self._read_tail(hedge=True)
        assert a == b
