"""Integration tests: dynamic sharding — split/merge migration safety.

End-to-end coverage of the versioned range map replicated through the
config group: a hot range splits into a spare group while writes keep
flowing, a cold range merges back, clients chase the map via WrongShard
piggybacks, and — metamorphically — the same seeded trace applied to a
1-group cluster, a pre-split cluster, and a cluster split *mid-trace*
must yield the identical client-visible state under both rs-paxos and
classic paxos.
"""

import random

import pytest

from repro.check import check_cluster, check_shard_coverage
from repro.core import classic_paxos, rs_paxos
from repro.kvstore import build_cluster
from repro.rpc import Batch, Reply, Request
from repro.rpc.mux import ChannelMsg


def make(config=None, **kw):
    cluster = build_cluster(
        config or rs_paxos(5, 1),
        seed=kw.pop("seed", 1),
        dynamic_shards=True,
        **kw,
    )
    cluster.start()
    cluster.run(until=1.0)  # settle election
    return cluster


def put_all(cluster, pairs, t, step=0.3):
    done = []
    for key, size in pairs:
        cluster.clients[0].put(key, size, on_done=lambda ok: done.append(ok))
        t += step
        cluster.run(until=t)
    return done, t


def read_all(cluster, keys, t):
    got = {}
    for k in keys:
        cluster.clients[0].get(
            k, on_done=lambda ok, size, k=k: got.setdefault(k, (ok, size))
        )
        t += 0.3
        cluster.run(until=t)
    return got, t


class TestSplitMigration:
    def test_split_moves_range_and_preserves_data(self):
        c = make(num_groups=3)
        pairs = [(f"{ch}{i}", 100 + i) for i, ch in enumerate("abcdmnpz")]
        done, t = put_all(c, pairs, 1.0)
        assert done.count(True) == len(pairs)

        ldr = c.leader()
        v0 = ldr.shard_map.version
        assert ldr.force_split("m")
        c.run(until=t + 4.0)
        t += 4.0

        ldr = c.leader()
        assert ldr.shard_map.migrating is None  # copy committed
        assert ldr.shard_map.version > v0
        assert ldr.reconfig.migrations_completed >= 1
        # Routing actually moved: upper range owned by a different group.
        assert ldr.shard_map.group_of("z9") != ldr.shard_map.group_of("a0")

        got, t = read_all(c, [k for k, _ in pairs], t)
        assert got == {k: (True, sz) for k, sz in pairs}
        assert check_shard_coverage(c.servers) == []
        assert check_cluster(c.servers, rs_paxos(5, 1)) == []

    def test_writes_during_migration_land_once(self):
        """Writes racing the copy window (dual-write fence) neither
        vanish nor double-apply."""
        c = make(num_groups=3)
        _, t = put_all(c, [(f"m{i}", 200 + i) for i in range(6)], 1.0)
        assert c.leader().force_split("m")
        # Overlap new writes with the in-flight migration.
        done, t = put_all(c, [(f"m{i}", 900 + i) for i in range(6)], t, 0.1)
        c.run(until=t + 4.0)
        t += 4.0
        assert done.count(True) == 6
        got, t = read_all(c, [f"m{i}" for i in range(6)], t)
        assert got == {f"m{i}": (True, 900 + i) for i in range(6)}
        assert check_cluster(c.servers, rs_paxos(5, 1)) == []

    @pytest.mark.parametrize("knobs", [
        {}, {"batch_max_commands": 4, "batch_linger": 0.0005},
    ], ids=["single", "batched"])
    def test_writes_in_the_copy_window_are_fenced(self, knobs):
        """Writes 10 ms apart land inside the copy window: batched or
        not, each one routed to the new owner mirrors a fence into the
        old owner's log, and none vanishes or double-applies."""
        c = make(num_groups=3, **knobs)
        _, t = put_all(c, [(f"m{i}", 200 + i) for i in range(6)], 1.0)
        assert c.leader().force_split("m")
        done, t = put_all(c, [(f"m{i}", 900 + i) for i in range(6)], t, 0.01)
        c.run(until=t + 4.0)
        t += 4.0
        assert done.count(True) == 6
        assert sum(s.fence_writes for s in c.servers) >= 1
        got, t = read_all(c, [f"m{i}" for i in range(6)], t)
        assert got == {f"m{i}": (True, 900 + i) for i in range(6)}
        assert check_cluster(c.servers, rs_paxos(5, 1)) == []

    def test_merge_returns_group_to_spare_pool(self):
        c = make(num_groups=3)
        pairs = [(f"{ch}1", 64) for ch in "acmz"]
        _, t = put_all(c, pairs, 1.0)
        assert c.leader().force_split("m")
        c.run(until=t + 4.0)
        t += 4.0
        ldr = c.leader()
        assert len(ldr.shard_map.active_groups()) == 2
        assert ldr.force_merge()
        c.run(until=t + 4.0)
        t += 4.0
        ldr = c.leader()
        assert ldr.shard_map.migrating is None
        assert len(ldr.shard_map.active_groups()) == 1
        got, t = read_all(c, [k for k, _ in pairs], t)
        assert got == {k: (True, 64) for k, _ in pairs}
        assert check_cluster(c.servers, rs_paxos(5, 1)) == []

    def test_client_learns_map_version_via_piggyback(self):
        c = make(num_groups=3)
        _, t = put_all(c, [("a1", 10), ("x1", 10)], 1.0)
        assert c.clients[0].map_version == 0
        assert c.leader().force_split("m")
        c.run(until=t + 4.0)
        t += 4.0
        done, t = put_all(c, [("a2", 11), ("x2", 11)], t)
        assert done.count(True) == 2
        assert c.clients[0].map_version == c.leader().shard_map.version

    def test_pre_split_boundaries_route_to_distinct_groups(self):
        c = make(num_groups=3, shard_ranges=("g", "q"))
        m = c.leader().shard_map
        assert m.version == 0 and m.migrating is None
        assert {m.group_of("a"), m.group_of("h"), m.group_of("s")} == {0, 1, 2}
        pairs = [("a1", 5), ("h1", 6), ("s1", 7)]
        done, t = put_all(c, pairs, 1.0)
        assert done.count(True) == 3
        got, _ = read_all(c, [k for k, _ in pairs], t)
        assert got == {k: (True, sz) for k, sz in pairs}


class TestReadsAfterAStaleMap:
    """A replica that missed a split (deaf to the config group and the
    split's destination) must not serve the pre-split value once the
    leader has acked an overwrite: a read waits for every group the
    leader's map says the key depends on, not only the group the
    replica's own map names. Failing or timing out is allowed."""

    def split_while_deaf(self, host):
        """``m`` written at 100 B, then split into a spare group while
        ``host`` hears nothing of the config group or that spare, then
        ``m`` overwritten at 200 B. Returns the cluster and a switch
        that restores ``host``'s hearing."""
        c = build_cluster(rs_paxos(5, 1), seed=3, num_clients=2,
                          num_groups=3, dynamic_shards=True,
                          client_timeout=1.0)
        c.start()
        c.run(until=1.0)
        done = []
        c.clients[0].put("m", 100, on_done=done.append)
        c.run(until=1.5)
        ldr = c.leader()
        dst = ldr.shard_map.spare_groups()[0]
        cut, deaf = {ldr.cfg_group, dst}, [True]
        send = c.net.send

        def channels(payload):
            found, todo = set(), [payload]
            while todo:
                body = todo.pop()
                if isinstance(body, (Request, Reply)):
                    todo.append(body.body)
                elif isinstance(body, Batch):
                    todo.extend(body.items)
                elif isinstance(body, ChannelMsg):
                    found.add(body.key)
            return found

        def lossy(src, to, payload, size, *rest, **kw):
            if deaf and to == host and channels(payload) & cut:
                return None
            return send(src, to, payload, size, *rest, **kw)

        c.net.send = lossy
        assert ldr.force_split("k", dst)
        c.run(until=5.0)
        c.clients[0].put("m", 200, on_done=done.append)
        c.run(until=5.5)
        assert done == [True, True]
        return c, deaf.clear

    def test_stale_follower_never_serves_the_old_value(self):
        c, hear = self.split_while_deaf("P3")
        got = []

        def read() -> None:
            c.clients[1].get("m", mode="follower", server="P3",
                             on_done=lambda ok, size: got.append((ok, size)))

        c.sim.call_at(6.0, read)
        c.run(until=6.5)
        hear()
        done = []
        c.clients[0].put("m", 300, on_done=done.append)
        c.sim.call_at(9.0, read)
        c.run(until=12.0)
        assert done == [True] and c.servers[2].reads.read_index_rounds > 0
        # The reads wait instead: P3 hears of the two groups again only
        # at their next decisions.
        assert (True, 100) not in got

    @pytest.mark.parametrize("mode", ["fast", "consistent"])
    def test_stale_new_leader_never_serves_the_old_value(self, mode):
        c, hear = self.split_while_deaf("P2")
        c.run(until=6.0)
        c.servers[0].crash()
        hear()
        got = []

        def poll() -> None:
            if c.sim.now < 9.5:
                c.clients[1].get("m", mode, server="P2", on_done=lambda
                                 ok, size: got.append((ok, size)))
                c.sim.call_after(0.0005, poll)

        c.sim.call_at(8.0, poll)
        c.run(until=10.5)
        assert c.leader() is c.servers[1]
        assert (True, 200) in got and (True, 100) not in got


# -- metamorphic: trace equivalence across shard layouts -----------------


def trace_ops(seed: int, n: int = 22):
    """Deterministic seeded YCSB-ish trace: (key, size) puts with a
    skewed key pool; later writes overwrite earlier ones."""
    rng = random.Random(seed)
    keys = [f"{ch}{i}" for ch in "abkmqx" for i in range(2)]
    return [
        (rng.choice(keys), 50 + step) for step in range(n)
    ]


def run_trace(config, shape: str, seed: int = 11):
    """Apply the trace under one cluster shape, return the per-key
    client-visible reads (the metamorphic digest)."""
    kw = {"num_groups": 3}
    if shape == "pre-split":
        kw["shard_ranges"] = ("k",)
    c = make(config=config, seed=seed, **kw)
    ops = trace_ops(seed)
    t = 1.0
    for i, (key, size) in enumerate(ops):
        if shape == "mid-split" and i == len(ops) // 2:
            assert c.leader().force_split("k")
        c.clients[0].put(key, size, on_done=lambda ok: None)
        t += 0.3
        c.run(until=t)
    c.run(until=t + 5.0)  # drain any in-flight migration
    t += 5.0
    keys = sorted({k for k, _ in ops})
    got, _ = read_all(c, keys, t)
    assert check_cluster(c.servers, config) == []
    return got


@pytest.mark.parametrize(
    "config", [rs_paxos(5, 1), classic_paxos(5)], ids=["rs", "classic"]
)
def test_trace_equivalence_across_shard_layouts(config):
    one = run_trace(config, "one-group")
    pre = run_trace(config, "pre-split")
    mid = run_trace(config, "mid-split")
    assert one == pre == mid
    # Digest matches the trace's own last-write-wins ground truth.
    truth = {}
    for k, sz in trace_ops(11):
        truth[k] = (True, sz)
    assert one == truth
