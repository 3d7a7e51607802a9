"""Integration tests: KV store basic operations."""

import pytest

from repro.core import classic_paxos, rs_paxos
from repro.kvstore import build_cluster
from repro.kvstore.shard import instance_of


def make(config=None, **kw):
    cluster = build_cluster(config or rs_paxos(5, 1), seed=kw.pop("seed", 1), **kw)
    cluster.start()
    cluster.run(until=1.0)  # settle election
    return cluster


class TestPutGet:
    def test_put_then_fast_get(self):
        c = make()
        client = c.clients[0]
        results = []
        client.put("alpha", 3000, on_done=lambda ok: results.append(("put", ok)))
        c.run(until=3.0)
        client.get("alpha", on_done=lambda ok, size: results.append(("get", ok, size)))
        c.run(until=5.0)
        assert ("put", True) in results
        assert ("get", True, 3000) in results

    def test_put_with_real_bytes_roundtrip(self):
        c = make(num_groups=2)
        client = c.clients[0]
        payload = b"payload-bytes" * 7
        got = []
        client.put("k", len(payload), data=payload,
                   on_done=lambda ok: got.append(ok))
        c.run(until=3.0)
        # Read through the leader server's store directly to check bytes.
        leader = c.leader()
        entry = leader.store.get("k")
        assert entry is not None and entry.complete
        assert entry.value == payload

    def test_get_missing_key(self):
        c = make()
        results = []
        c.clients[0].get("ghost", on_done=lambda ok, size: results.append(ok))
        c.run(until=3.0)
        assert results == [False]

    def test_consistent_read(self):
        c = make()
        client = c.clients[0]
        results = []
        client.put("beta", 500, on_done=lambda ok: None)
        c.run(until=3.0)
        client.get("beta", mode="consistent",
                   on_done=lambda ok, size: results.append((ok, size)))
        c.run(until=6.0)
        assert results == [(True, 500)]
        assert c.leader().reads.consistent_reads == 1

    def test_delete_hides_key(self):
        c = make()
        client = c.clients[0]
        results = []
        client.put("gamma", 100, on_done=lambda ok: None)
        c.run(until=3.0)
        client.delete("gamma", on_done=lambda ok: results.append(("del", ok)))
        c.run(until=5.0)
        client.get("gamma", on_done=lambda ok, size: results.append(("get", ok)))
        c.run(until=7.0)
        assert ("del", True) in results
        assert ("get", False) in results

    def test_overwrite(self):
        c = make()
        client = c.clients[0]
        sizes = []
        client.put("key", 100, on_done=lambda ok: None)
        c.run(until=3.0)
        client.put("key", 999, on_done=lambda ok: None)
        c.run(until=5.0)
        client.get("key", on_done=lambda ok, size: sizes.append(size))
        c.run(until=7.0)
        assert sizes == [999]

    def test_many_keys_across_groups(self):
        c = make(num_groups=8)
        client = c.clients[0]
        done = []
        for i in range(20):
            client.put(f"key-{i}", 64 + i, on_done=lambda ok: done.append(ok))
        c.run(until=6.0)
        assert done.count(True) == 20
        got = {}
        for i in range(20):
            client.get(f"key-{i}",
                       on_done=lambda ok, size, i=i: got.setdefault(i, size))
        c.run(until=10.0)
        assert got == {i: 64 + i for i in range(20)}


class TestShardPlacement:
    def test_follower_stores_incomplete_share(self):
        c = make(config=rs_paxos(5, 1), num_groups=2)
        c.clients[0].put("delta", 3000, on_done=lambda ok: None)
        c.run(until=3.0)
        leader = c.leader()
        followers = [s for s in c.servers if s is not leader]
        for f in followers:
            entry = f.store.get_entry("delta")
            assert entry is not None
            assert not entry.complete
            assert entry.size == 1000  # 1/3 of 3000

    def test_original_shares_are_views_of_the_value(self):
        """A concrete 128 KiB put: every replica's original share points
        into the value's own buffer instead of holding a copy — the tail
        original too, short by its implicit zero padding — and only the
        parity rows are bytes."""
        c = make(config=rs_paxos(5, 1))
        payload = bytes(range(256)) * 512  # 131,072 B: 3 does not divide it
        c.clients[0].put("big", len(payload), data=payload,
                         on_done=lambda ok: None)
        c.run(until=3.0)
        leader = c.leader()
        group = leader.shard_map.group_of("big")
        inst = instance_of(leader.store.get("big").version)
        value = leader.groups[group].chosen[inst].value
        assert value.data == payload
        held = {}
        for srv in c.servers:
            share = srv.groups[group].acceptor.accepted_share(inst)
            held[share.index] = share.data
            entry = srv.store.get("big")
            if not entry.complete:
                assert entry.value.data is share.data
        assert sorted(held) == [0, 1, 2, 3, 4]
        for i in (0, 1, 2):
            assert type(held[i]) is memoryview and held[i].obj is value.data
        assert len(held[2]) == len(payload) - 2 * len(held[0])
        assert all(type(held[i]) is bytes for i in (3, 4))

    def test_storage_cost_reduced_vs_paxos(self):
        def total_stored(config):
            c = make(config=config, num_groups=2, seed=3)
            for i in range(5):
                c.clients[0].put(f"k{i}", 3000, on_done=lambda ok: None)
            c.run(until=5.0)
            return sum(s.store.stored_bytes() for s in c.servers)

        rs = total_stored(rs_paxos(5, 1))
        paxos = total_stored(classic_paxos(5))
        # RS: leader full + 4 shares ~ (3000 + 4*1000) * 5 keys
        # Paxos: 5 full copies ~ 15000 * 5 keys
        assert rs < paxos * 0.55

    def test_redirect_to_leader(self):
        c = make()
        client = c.clients[0]
        client.leader_cache = c.servers[3].name  # wrong guess: follower
        ok = []
        client.put("eps", 128, on_done=lambda o: ok.append(o))
        c.run(until=4.0)
        assert ok == [True]
        assert client.leader_cache == c.servers[0].name


class TestWriteMetrics:
    def test_latency_and_throughput_recorded(self):
        c = make()
        for i in range(4):
            c.clients[0].put(f"m{i}", 1024, on_done=lambda ok: None)
        c.run(until=5.0)
        lat = c.metrics.latency("write")
        assert len(lat) == 4
        assert lat.mean() > 0
        thr = c.metrics.throughput("write")
        assert thr.total_bytes == 4 * 1024
