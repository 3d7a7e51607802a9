"""Chaos matrix: shard migrations must survive crashes and partitions.

The cutover window — prepare ShardCmd, snapshot-style copy stream,
dual-write fence, commit — is where a dynamic sharding design loses
data if anything is off.  This matrix drives exactly those faults:

- leader crash at varying points inside the copy stream,
- leader crash inside the dual-write fence while writes race the copy,
- a partial partition isolating the leader from the config-group
  quorum mid-migration,
- randomized ChaosRunner episodes mixing shard faults with the full
  fault palette across seeds.

Every scenario must end with the migration resolved, no key lost or
duplicated, and the linearizability + shard-coverage + invariant
probes clean.
"""

import dataclasses

import pytest

from repro.chaos import SHORT_SPEC, ChaosRunner, ChaosSpec, ScheduleSpec
from repro.check import check_cluster, check_shard_coverage
from repro.core import rs_paxos
from repro.kvstore import build_cluster

CONFIG = rs_paxos(5, 1)


def make(seed=1, **kw):
    cluster = build_cluster(
        CONFIG, seed=seed, dynamic_shards=True, num_groups=3, **kw
    )
    cluster.start()
    cluster.run(until=1.0)
    return cluster


def seed_keys(cluster, t, n=8):
    pairs = [(f"{ch}{i}", 100 + i) for i, ch in enumerate("abcdmnpz"[:n])]
    for key, size in pairs:
        cluster.clients[0].put(key, size, on_done=lambda ok: None)
        t += 0.3
        cluster.run(until=t)
    return dict(pairs), t


def read_back(cluster, keys, t):
    got = {}
    for k in keys:
        cluster.clients[0].get(
            k, on_done=lambda ok, size, k=k: got.setdefault(k, (ok, size))
        )
        t += 0.3
        cluster.run(until=t)
    return got, t


def assert_settled(cluster, truth, t):
    """Migration resolved, data intact, every probe clean."""
    up = [s for s in cluster.servers if s.up]
    assert all(s.shard_map.migrating is None for s in up)
    got, t = read_back(cluster, sorted(truth), t)
    assert got == {k: (True, sz) for k, sz in truth.items()}
    assert check_shard_coverage(cluster.servers) == []
    assert check_cluster(cluster.servers, CONFIG) == []
    return t


class TestCrashDuringCopy:
    @pytest.mark.parametrize("delay", [0.02, 0.1, 0.3])
    def test_leader_crash_mid_copy_stream(self, delay):
        """Crash the migration driver at several depths into the copy
        stream; the successor leader must resume from the replicated
        migrating flag and finish without losing a key."""
        c = make(seed=3)
        truth, t = seed_keys(c, 1.0)
        ldr = c.leader()
        assert ldr.force_split("m")
        c.run(until=t + delay)
        ldr.crash()
        c.sim.call_after(1.0, ldr.recover)
        c.run(until=t + 10.0)
        assert_settled(c, truth, t + 10.0)

    def test_repeated_crashes_same_migration(self):
        """Two driver crashes inside one migration: resume must be
        idempotent (era-conditional copies, no duplicated keys)."""
        c = make(seed=5)
        truth, t = seed_keys(c, 1.0)
        assert c.leader().force_split("m")
        for _ in range(2):
            c.run(until=c.sim.now + 0.15)
            ldr = c.leader()
            if ldr is not None and ldr.shard_map.migrating is not None:
                ldr.crash()
                c.sim.call_after(1.0, ldr.recover)
        c.run(until=t + 14.0)
        assert_settled(c, truth, t + 14.0)


class TestCrashInsideFence:
    def test_writes_racing_fence_survive_leader_crash(self):
        """Writes landing in the migrating range (dual-write fence
        active) while the leader dies: every acked write must be
        readable afterwards, unacked ones must be old-or-new, never
        garbage and never duplicated."""
        c = make(seed=7)
        truth, t = seed_keys(c, 1.0)
        assert c.leader().force_split("m")
        acked = {}
        racers = [(k, sz + 800) for k, sz in truth.items()]
        for key, size in racers:
            c.clients[0].put(
                key, size,
                on_done=lambda ok, key=key, size=size: (
                    acked.__setitem__(key, size) if ok else None
                ),
            )
            t += 0.05
            c.run(until=t)
        ldr = c.leader()
        if ldr is not None:
            ldr.crash()
            c.sim.call_after(1.0, ldr.recover)
        c.run(until=t + 12.0)
        t += 12.0
        up = [s for s in c.servers if s.up]
        assert all(s.shard_map.migrating is None for s in up)
        got, t = read_back(c, sorted(truth), t)
        for k, old in truth.items():
            ok, size = got[k]
            assert ok
            if k in acked:
                assert size == acked[k]
            else:
                assert size in (old, old + 800)
        assert check_shard_coverage(c.servers) == []
        assert check_cluster(c.servers, CONFIG) == []


class TestConfigGroupPartition:
    def test_partition_isolating_config_quorum_mid_migration(self):
        """Cut the leader away from every peer mid-migration: it can no
        longer commit through the config group.  After the heal the
        migration must still resolve exactly once."""
        c = make(seed=9)
        truth, t = seed_keys(c, 1.0)
        ldr = c.leader()
        assert ldr.force_split("m")
        c.run(until=t + 0.1)
        others = [s.name for s in c.servers if s is not ldr]
        c.net.partition([ldr.name], others, token="cfg-cut")
        c.run(until=c.sim.now + 2.0)
        c.net.heal("cfg-cut")
        c.run(until=t + 14.0)
        assert_settled(c, truth, t + 14.0)


class TestRandomizedMatrix:
    def test_shard_faults_under_full_palette(self):
        """ChaosRunner episodes with split / merge / crash-migration
        faults enabled on top of the regular fault palette: every seed
        must pass linearizability and all invariant probes."""
        sched = dataclasses.replace(
            SHORT_SPEC.schedule,
            shard_weights=(1.0, 0.5, 1.0),
            shard_gap=1.5,
        )
        spec = dataclasses.replace(
            SHORT_SPEC,
            schedule=sched,
            server=dataclasses.replace(
                SHORT_SPEC.server, dynamic_shards=True,
                rebalance_interval=0.5),
        )
        runner = ChaosRunner(spec=spec, bundle_dir=None)
        migrations = 0
        for seed in range(4):
            res, _ = runner.run_episode(seed=seed)
            assert res.ok, (seed, res.violations, res.lin_failures)
            migrations += res.migrations_completed
        assert migrations >= 1  # the matrix actually exercised cutovers
