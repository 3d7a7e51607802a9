"""Tests for the degraded-mode read path: read-index follower reads,
degraded decodes from X clean shares, RTT-aware source selection, and
the read-side observability counters."""

from repro.core import rs_paxos
from repro.kvstore import build_cluster
from repro.kvstore.shard import instance_of


def make(seed=7, hedge=True, rtt_select=True, **kw):
    c = build_cluster(rs_paxos(5, 1), seed=seed, num_groups=2,
                      client_timeout=1.0, scrub_interval=0.0, **kw)
    for srv in c.servers:
        srv.fetch.hedge, srv.fetch.rtt_select = hedge, rtt_select
    c.start()
    c.run(until=1.0)
    return c


def put(c, key, size):
    done = []
    c.clients[0].put(key, size, on_done=done.append)
    c.run(until=c.sim.now + 2.0)
    assert done == [True]


def get(c, key, mode="follower", server=None):
    out = []
    c.clients[0].get(key, mode=mode, server=server,
                     on_done=lambda ok, size: out.append((ok, size)))
    c.run(until=c.sim.now + 2.0)
    assert len(out) == 1
    return out[0]


class TestFollowerReads:
    def test_follower_serves_via_read_index(self):
        c = make()
        put(c, "k", 321)
        follower, leader = c.servers[1], c.servers[0]
        ok, size = get(c, "k", server=follower.name)
        assert ok and size == 321
        assert follower.reads.follower_reads == 1
        assert follower.reads.read_index_rounds == 1
        assert leader.reads.read_index_served == 1
        assert c.metrics.counter("read.follower").value == 1

    def test_leader_serves_follower_mode_as_fast_read(self):
        c = make()
        put(c, "k", 222)
        leader = c.servers[0]
        before = leader.reads.fast_reads
        ok, size = get(c, "k", server=leader.name)
        assert ok and size == 222
        assert leader.reads.fast_reads == before + 1
        assert leader.reads.follower_reads == 0

    def test_untargeted_follower_reads_rotate_servers(self):
        c = make()
        put(c, "k", 100)
        for _ in range(len(c.servers)):
            ok, _size = get(c, "k")  # no fixed server: rotates
            assert ok
        served = sum(s.reads.follower_reads for s in c.servers)
        assert served >= len(c.servers) - 1  # all non-leader targets

    def test_read_index_refused_while_leaderless(self):
        c = make()
        put(c, "k", 100)
        c.servers[0].crash()
        # Retries ride through the whole election; the read still lands.
        out = []
        c.clients[0].get("k", mode="follower", server=c.servers[1].name,
                         on_done=lambda ok, size: out.append((ok, size)))
        c.run(until=c.sim.now + 10.0)
        assert out == [(True, 100)]


class TestDegradedReads:
    def rot_everything(self, c, *servers):
        rng = c.sim.rng.stream("test.readpath.rot")
        for srv in servers:
            while srv.scrubber.rot(rng):
                pass

    def test_rotten_local_share_decodes_from_peers(self):
        c = make()
        put(c, "k", 456)
        follower = c.servers[1]
        self.rot_everything(c, follower)
        ok, size = get(c, "k", server=follower.name)
        assert ok and size == 456
        assert follower.reads.degraded_reads == 1
        assert c.metrics.counter("read.degraded").value == 1

    def test_survives_two_rotten_servers(self):
        # θ(3,5): with 2/5 copies rotten exactly X=3 clean shares
        # remain — the degraded read must still reconstruct.
        c = make()
        put(c, "k", 789)
        self.rot_everything(c, c.servers[1], c.servers[2])
        ok, size = get(c, "k", server=c.servers[1].name)
        assert ok and size == 789
        assert c.servers[1].reads.degraded_reads == 1

    def test_clean_share_read_is_not_degraded(self):
        c = make()
        put(c, "k", 100)
        ok, _size = get(c, "k", server=c.servers[1].name)
        assert ok
        assert c.servers[1].reads.degraded_reads == 0


class TestSourceSelection:
    def test_ranked_order_covers_every_peer_once(self):
        c = make()
        put(c, "k", 100)
        srv = c.servers[1]
        order = srv.fetch.ranked()
        assert sorted(order) == sorted(
            h for nid, h in srv.peers.items() if nid != srv.node_id)

    def test_sampled_peers_rank_before_unsampled(self):
        c = make()
        put(c, "k", 100)
        srv = c.servers[1]
        sampled = set(srv.endpoint.rtt_table())
        if not sampled:
            return  # nothing to rank yet on this topology
        order = srv.fetch.ranked()
        ranks = [h in sampled for h in order]
        assert ranks == sorted(ranks, reverse=True)

    def test_random_baseline_still_covers_every_peer(self):
        c = make(rtt_select=False)
        put(c, "k", 100)
        srv = c.servers[1]
        order = srv.fetch.ranked()
        assert sorted(order) == sorted(
            h for nid, h in srv.peers.items() if nid != srv.node_id)

    def test_fetch_load_drains_after_degraded_read(self):
        c = make()
        put(c, "k", 100)
        follower = c.servers[1]
        rng = c.sim.rng.stream("test.readpath.rot")
        while follower.scrubber.rot(rng):
            pass
        ok, _size = get(c, "k", server=follower.name)
        assert ok
        c.run(until=c.sim.now + 2.0)
        assert follower.fetch.load == {}


class TestRepairAccounting:
    def test_repair_fetches_x_shares_and_counts_exactly_their_bytes(self):
        # A rot -> scrub ladder on a follower, hedging off as in the
        # readpath gate's phase 3: each repair asks the X best-ranked
        # peers and nobody else (it used to widen after every usable
        # reply: 5 fetches served at X = 3, 3 of them counted), so
        # ``scrub.repair_bytes`` is what crossed the wire for it.
        c = make(hedge=False)
        srv, x, fragment = c.servers[2], 3, 1000
        rng = c.sim.rng.stream("test.readpath.ladder")
        served = c.metrics.counter("scrub.fetches_served")
        counted = c.metrics.counter("scrub.repair_bytes")
        for n in range(1, 6):
            put(c, f"k{n}", x * fragment)
            before = served.value, counted.value
            assert srv.scrubber.rot(rng)
            srv.scrubber.scrub()
            c.run(until=c.sim.now + 0.5)
            assert c.metrics.counter("scrub.repaired").value == n
            assert served.value - before[0] == x
            assert counted.value - before[1] == x * fragment
        assert srv.wal.verify() == [] and srv.fetch.load == {}
        assert len(c.metrics.histogram("scrub.fetch_latency")) == 5 * x


class TestObservability:
    def test_rtt_gauges_exported(self):
        c = make()
        put(c, "k", 100)
        leader = c.servers[0]
        table = leader.endpoint.rtt_table()
        assert table  # accepts gave the leader samples for its peers
        for dst, ewma in table.items():
            gauge = c.metrics.gauge(f"rpc.rtt.{leader.name}.{dst}")
            assert gauge.value == ewma > 0.0

    def test_read_retry_causes_counted(self):
        c = make()
        put(c, "k", 100)
        client = c.clients[0]
        assert sum(client.read_retry_causes.values()) == 0
        c.servers[0].crash()
        out = []
        client.get("k", mode="fast",
                   on_done=lambda ok, size: out.append(ok))
        c.run(until=c.sim.now + 8.0)
        assert out == [True]  # rode through the failover
        stats = client.backoff_stats()
        assert stats["read_retries"] == client.read_retry_causes
        assert sum(client.read_retry_causes.values()) > 0


class TestCrashSafety:
    def test_gather_armed_before_a_crash_does_not_resume_after_recovery(self):
        # Every peer is down, so the gather sits on two dead fetches
        # with its hedge timer armed; the server crashes and is up again
        # before the timer fires. A gather belongs to the incarnation
        # that began it: its hedge must not go out, nor its value
        # arrive in the next incarnation's callbacks once peers return.
        c = make()
        put(c, "k", 456)
        srv = c.servers[2]
        entry = srv.store.get_entry("k")
        share, group = entry.value, srv.shard_map.group_of("k")
        others = [s for s in c.servers if s is not srv]
        for s in others:
            s.crash()
        got = []
        t0 = c.sim.now
        srv._gather_shares(group, instance_of(entry.version),
                           share.value_id, share, got.append)
        assert sum(srv.fetch.load.values()) == 2
        c.run(until=t0 + 0.005)
        srv.crash()
        assert srv.fetch.load == {}
        srv.recover()
        c.run(until=t0 + 1.0)
        for s in others:
            s.recover()
        c.run(until=t0 + 6.0)
        assert srv.up and srv.fetch.hedges_issued == 0
        assert got == []
