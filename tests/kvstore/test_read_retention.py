"""A read keeps a decoded value only when the value is read twice.

A replica that holds only a coded share of a key (a new leader after a
failover, or a follower serving a snapshot read) gathers X shares and
decodes to serve a read. The first read of a (key, version) serves the
bytes and keeps nothing, so the replica still holds N/X of the value at
rest. The second read of the same (key, version) keeps it whole, as a
complete store entry, so the reads after it gather nothing (DESIGN.md
§4, the read path).
"""

from __future__ import annotations

import gc
import random
import tracemalloc

from repro.check import HistoryRecorder
from repro.core import rs_paxos
from repro.kvstore import GetOk, build_cluster


class ReadBytes(HistoryRecorder):
    """Client history that also keeps the bytes each read returned."""

    def __init__(self) -> None:
        super().__init__()
        self.data: list = []

    def complete(self, hid: int, ok: bool, reply, t: float) -> None:
        super().complete(hid, ok, reply, t)
        if isinstance(reply, GetOk):
            self.data.append(reply.data)


def read_all(cluster, keys, **kw) -> list:
    """Read every key through client 0 at once, run until all reads are
    answered, and return the bytes they returned, in completion order."""
    client = cluster.clients[0]
    client.history = got = ReadBytes()
    for key in keys:
        client.get(key, **kw)
    deadline = cluster.sim.now + 20.0
    while len(got.data) < len(keys) and cluster.sim.now < deadline:
        cluster.run(until=cluster.sim.now + 0.5)
    client.history = None
    return got.data


def read_bytes(cluster, key: str, **kw):
    (data,) = read_all(cluster, [key], **kw)
    return data


def failed_over(values: dict, seed: int = 5):
    """A cluster whose first leader wrote ``values`` and then crashed:
    the successor holds one coded share of each."""
    c = build_cluster(rs_paxos(5, 1), seed=seed, num_groups=2)
    c.start()
    c.run(until=1.0)
    for key, data in values.items():
        c.clients[0].put(key, len(data), data=data)
    c.run(until=3.0)
    c.crash_server(0)
    c.run(until=8.0)
    assert c.leader() not in (None, c.servers[0])
    return c


def test_reading_each_value_once_keeps_no_decoded_copy():
    """32 values of 48 KiB read once each through the successor: what
    the read phase leaves allocated is bounded by a quarter of the bytes
    read. Keeping every decoded value would leave at least all of them."""
    rng = random.Random(28)
    values = {f"v{i}": rng.randbytes(48 * 1024) for i in range(32)}
    c = failed_over(values)
    leader = c.leader()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = read_all(c, list(values))
        assert sorted(got) == sorted(values.values())
        del got
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    read = sum(len(v) for v in values.values())
    assert leader.reads.recovery_reads == len(values)
    assert growth <= 0.25 * read, (growth, read)
    assert not any(leader.store.get(k).complete for k in values)


def test_crash_makes_the_next_read_a_first_touch():
    """``crash()`` forgets which values were decoded once: a snapshot
    read after the follower recovers is a first read again, and only
    the one after it keeps the value."""
    payload = bytes(range(251)) * 12
    c = build_cluster(rs_paxos(5, 1), seed=2, num_groups=2)
    c.start()
    c.run(until=1.0)
    c.clients[0].put("snap", len(payload), data=payload)
    c.run(until=3.0)
    follower = c.servers[3]
    assert read_bytes(c, "snap", mode="snapshot", server=follower.name) \
        == payload
    follower.crash()
    c.run(until=c.sim.now + 1.0)
    follower.recover()
    c.run(until=c.sim.now + 3.0)
    assert read_bytes(c, "snap", mode="snapshot", server=follower.name) \
        == payload
    assert follower.reads.snapshot_reads == 2
    assert not follower.store.get("snap").complete
    assert read_bytes(c, "snap", mode="snapshot", server=follower.name) \
        == payload
    assert follower.store.get("snap").complete
