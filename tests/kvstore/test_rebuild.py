"""Integration tests for checkpointing, WAL compaction, and full
replica rebuild (wipe -> rejoin -> snapshot transfer).

The §4.5 recovery path alone replays an ever-growing log; with
checkpoints the WAL stays bounded, and a replica that lost its disk
entirely rebuilds from a peer snapshot plus the log tail — receiving
its *own* RS fragments, not full copies — instead of replaying history
that no longer exists anywhere.
"""

from repro.check import (
    check_bounded_wal, check_cluster, check_store_agreement,
)
from repro.core import rs_paxos
from repro.core.messages import Commit
from repro.kvstore import build_cluster
from repro.kvstore.messages import (
    CatchUp, CatchUpReply, FetchSnapshot,
)
from repro.kvstore.shard import instance_of
from repro.rpc import Batch

SIZE = 3000          # theta(3,5) => 1000 B fragment per replica
FRAGMENT = SIZE // 3


def carried(payload):
    """Every message a wire payload carries, unwrapped from batches,
    requests and channels."""
    if isinstance(payload, Batch):
        return [m for item in payload.items for m in carried(item)]
    body = getattr(payload, "body", None)
    return [payload] if body is None else carried(body)


def make(seed=11, interval=0.5, **kw):
    cluster = build_cluster(
        rs_paxos(5, 1), seed=seed, num_groups=2,
        checkpoint_interval=interval, **kw,
    )
    cluster.start()
    cluster.run(until=1.0)
    return cluster


def pump(cluster, ops):
    """Issue ``(key, size)`` puts strictly one after another; returns a
    list that fills with each op's outcome as the sim runs."""
    results = []
    client = cluster.clients[0]

    def issue(i):
        if i >= len(ops):
            return
        key, size = ops[i]

        def done(ok, i=i):
            results.append(ok)
            issue(i + 1)

        client.put(key, size, on_done=done)

    issue(0)
    return results


class TestCheckpointCadence:
    def test_wal_stays_bounded_under_load(self):
        c = make()
        results = pump(c, [(f"k{i % 8}", SIZE) for i in range(60)])
        c.run(until=6.0)
        assert all(results) and len(results) == 60
        for srv in c.servers:
            assert srv.checkpointer.last_at is not None
            assert srv.wal.compaction_floor > 0
            assert srv.wal.records_compacted > 0
            # The live log is only the tail since the last checkpoint.
            assert len(srv.wal.durable) <= srv.wal.next_lsn - srv.wal.compaction_floor
        assert check_bounded_wal(c.servers) == []

    def test_footprint_gauges_and_counters(self):
        c = make()
        pump(c, [(f"k{i}", SIZE) for i in range(10)])
        c.run(until=4.0)
        assert c.metrics.counter("ckpt.saves").value > 0
        assert c.metrics.counter("ckpt.records_compacted").value > 0
        for srv in c.servers:
            fp = srv.durable_footprint()
            assert fp["checkpoint_bytes"] > 0
            assert fp["records_compacted"] > 0
            assert c.metrics.gauges[f"{srv.name}.wal_bytes"].value >= 0

    def test_recovery_loads_checkpoint_then_tail(self):
        # A plain crash/recover after compaction must come back from
        # checkpoint + tail: the truncated prefix no longer exists.
        c = make()
        results = pump(c, [(f"k{i}", SIZE) for i in range(12)])
        c.run(until=4.0)
        assert all(results) and len(results) == 12
        srv = c.servers[2]
        assert srv.wal.compaction_floor > 0
        c.crash_server(2)
        c.run(until=5.0)
        c.recover_server(2)
        c.run(until=8.0)
        assert srv.up
        for i in range(12):
            entry = srv.store.get_entry(f"k{i}")
            assert entry is not None
        assert check_cluster(c.servers, c.servers[0].config) == []

    def test_disabled_by_default(self):
        c = build_cluster(rs_paxos(5, 1), seed=3, num_groups=2)
        c.start()
        c.run(until=1.0)
        pump(c, [("a", SIZE)])
        c.run(until=4.0)
        for srv in c.servers:
            assert srv.checkpointer.last_at is None
            assert srv.wal.compaction_floor == 0
        assert check_bounded_wal(c.servers) == []  # probe is a no-op


class TestWipeRejoin:
    def test_rebuild_end_to_end(self):
        c = make(seed=21)
        results = pump(c, [(f"old{i}", SIZE) for i in range(8)])
        c.run(until=3.0)
        assert all(results) and len(results) == 8
        # Total disk loss on a follower.
        c.wipe_server(3)
        c.run(until=4.0)
        late = pump(c, [(f"new{i}", SIZE) for i in range(4)])
        c.run(until=5.0)
        assert all(late) and len(late) == 4
        c.recover_server(3)
        c.run(until=10.0)

        srv = c.servers[3]
        assert srv.up
        assert not srv.rebuilding
        assert all(not node.observer for node in srv.groups)
        # The rebuild went through snapshot transfer, not log replay of
        # a prefix that no longer exists anywhere.
        assert c.metrics.counter("rebuild.snapshot_transfers").value >= 1
        assert c.metrics.counter("rebuild.groups_rebuilt").value >= len(srv.groups)
        # The rebuilt replica holds its OWN RS fragments (1/3 of each
        # value), both for pre-wipe and while-down writes.
        for key in [f"old{i}" for i in range(8)] + [f"new{i}" for i in range(4)]:
            entry = srv.store.get_entry(key)
            assert entry is not None, key
            assert not entry.complete
            assert entry.size == FRAGMENT
        # Full-cluster sweep: decodable, unique, checksum-clean, bounded.
        assert check_cluster(c.servers, c.servers[0].config) == []

    def test_rebuilt_server_accepts_again(self):
        # After rebuild the ex-observer votes again: with one *other*
        # server crashed, Q=4 of 5 needs the rebuilt node's vote.
        c = make(seed=22)
        results = pump(c, [(f"k{i}", SIZE) for i in range(6)])
        c.run(until=3.0)
        assert all(results)
        c.wipe_server(3)
        c.run(until=4.0)
        c.recover_server(3)
        c.run(until=8.0)
        assert not c.servers[3].rebuilding
        c.crash_server(4)
        done = pump(c, [("quorum-needs-3", SIZE)])
        c.run(until=12.0)
        assert done == [True]

    def test_wipe_then_rejoin_without_checkpoints(self):
        # With checkpointing off nothing was ever compacted, so plain
        # entry-granularity catch-up can rebuild the whole store.
        c = build_cluster(rs_paxos(5, 1), seed=23, num_groups=2)
        c.start()
        c.run(until=1.0)
        results = pump(c, [(f"k{i}", SIZE) for i in range(6)])
        c.run(until=3.0)
        assert all(results)
        c.wipe_server(2)
        c.run(until=4.0)
        c.recover_server(2)
        c.run(until=8.0)
        srv = c.servers[2]
        assert srv.up and not srv.rebuilding
        for i in range(6):
            assert srv.store.get_entry(f"k{i}") is not None
        assert check_cluster(c.servers, c.servers[0].config) == []


class TestRebuildTraffic:
    def test_rebuild_moves_state_not_history(self):
        # 4 keys overwritten 25 times each: full history replay would
        # ship ~100 fragments; a snapshot ships ~4 (latest versions
        # only) plus the post-checkpoint tail.
        c = make(seed=31)
        ops = [(f"hot{i % 4}", SIZE) for i in range(100)]
        results = pump(c, ops)
        c.run(until=5.0)
        assert all(results) and len(results) == 100
        assert c.metrics.counter("rebuild.snapshot_bytes").value == 0

        c.wipe_server(3)
        c.run(until=6.0)
        c.recover_server(3)
        c.run(until=10.0)
        assert not c.servers[3].rebuilding

        rebuild_bytes = (
            c.metrics.counter("rebuild.snapshot_bytes").value
            + c.metrics.counter("rebuild.catchup_bytes").value
        )
        history_bytes = len(ops) * FRAGMENT  # what full replay would ship
        assert rebuild_bytes > 0
        assert rebuild_bytes < 0.5 * history_bytes
        # And the rebuilt state is the *latest* version of each key.
        srv = c.servers[3]
        for i in range(4):
            entry = srv.store.get_entry(f"hot{i}")
            assert entry is not None
            assert entry.size == FRAGMENT
        assert check_cluster(c.servers, c.servers[0].config) == []


class TestSnapshotFloor:
    """A snapshot page is built across asynchronous share gathers while
    the donor keeps applying: the floor it ships must be the cursor at
    which reading *began* (DESIGN.md §5 "A snapshot's floor"), or the
    requester skips the instances in between for ever — chaos seed 1."""

    def loaded(self, key_of, seed=3):
        """Eight closed-loop writers of 3,000 B values against one
        group, every host but follower ``P3`` on a 20x slower NIC so
        that ``P3``'s share gathers span several applies."""
        c = build_cluster(rs_paxos(5, 1), seed=seed, num_groups=1,
                          num_clients=8)
        c.start()
        c.run(until=1.0)

        def loop(cl, i) -> None:
            cl.put(key_of(i), SIZE, on_done=lambda ok: loop(cl, i))

        for i, cl in enumerate(c.clients):
            loop(cl, i)
        donor = c.servers[2]
        for srv in c.servers:
            if srv is not donor:
                c.net.set_nic_slowdown(srv.name, 20.0)
        return c, donor

    def test_page_floor_does_not_outrun_its_entries(self):
        c, donor = self.loaded(lambda i: "hot")
        chunks = []
        c.sim.call_at(1.5, lambda: donor._on_fetch_snapshot(
            FetchSnapshot(group=0), "P5",
            lambda chunk, nbytes: chunks.append(chunk)))
        c.run(until=2.0)
        (chunk,) = chunks
        (hot,) = chunk.entries
        assert donor.groups[0].apply_cursor > chunk.floor   # it moved on
        assert chunk.floor <= instance_of(hot.version) + 1
        assert chunk.first and chunk.next_cursor is None

    def test_later_pages_are_only_newer_than_the_first_pages_floor(self):
        c, donor = self.loaded(lambda i: f"k{i}")
        node = donor.groups[0]
        # The donor's store as of every cursor it passes.
        held_at: dict[int, dict[str, int]] = {}
        apply = node.on_apply

        def recording(instance, rec) -> None:
            apply(instance, rec)
            held_at[instance + 1] = {
                k: donor.store.get_entry(k).version for k in donor.store.keys()
            }

        node.on_apply = recording
        pages = []

        def fetch(cursor: str) -> None:
            donor._on_fetch_snapshot(
                FetchSnapshot(group=0, cursor=cursor, max_bytes=2 * FRAGMENT),
                "P5", got)

        def got(chunk, nbytes) -> None:
            pages.append(chunk)
            if chunk.next_cursor is not None:
                fetch(chunk.next_cursor)

        c.sim.call_at(1.5, lambda: fetch(""))
        c.run(until=2.5)
        assert len(pages) >= 3 and pages[-1].next_cursor is None
        floor = max(p.floor for p in pages)     # the one the transfer claims
        assert node.apply_cursor > floor + len(pages)  # writes went on
        shipped = {e.key: e.version for p in pages for e in p.entries}
        assert shipped.keys() == held_at[floor].keys()
        stale = {k: (v, held_at[floor][k]) for k, v in shipped.items()
                 if v < held_at[floor][k]}
        assert stale == {}
        assert [p.first for p in pages] == [True] + [False] * (len(pages) - 1)
        assert floor == pages[0].floor

    def test_page_of_a_transfer_begun_before_a_crash_is_dropped(self):
        # The crash retires the page request with every other request of
        # its incarnation (DESIGN.md §4 "The crash rule"): the donor's
        # answer reaches the recovered server as a stale reply, and is
        # never installed beside what the next incarnation asks for.
        c = make()
        srv = c.servers[3]
        # A peer's floor above our cursor starts a transfer from it.
        srv.rebuild.on_catch_up(CatchUpReply(group=0, floor=10**6), "P1")
        assert srv.rebuild.streaming == {0: "P1"}
        stale = srv.endpoint.stale_replies_dropped
        paged = srv.metrics.counter("rebuild.snapshot_bytes").value
        srv.crash()
        srv.recover()                       # before P1's page arrives
        for _ in range(100_000):
            if srv.endpoint.stale_replies_dropped > stale:
                break
            c.sim.step()
        assert srv.endpoint.stale_replies_dropped == stale + 1
        assert srv.metrics.counter("rebuild.snapshot_bytes").value == paged
        assert srv.rebuild.streaming == {}

    def test_rejoin_under_write_load_leaves_every_replica_agreeing(self):
        """End to end, and the teeth of ``check_store_agreement``: a
        follower is wiped and rebuilds from a *follower's* snapshot (the
        leader's NIC is slowed, so ``P2`` answers first; only a follower
        has to gather shares to serve a page) while four clients keep
        writing fresh keys — a rewritten key would heal the divergence
        with its next write. Writers stop before the settle. On the
        parent of the fix ``P4`` ends nine keys short at the same
        cursor as everyone else, and no other probe notices."""
        c = build_cluster(rs_paxos(5, 1), seed=2, num_groups=1,
                          num_clients=4, checkpoint_interval=0.25)
        c.start()
        c.run(until=1.0)
        writing = [True]

        def loop(cl, i, n) -> None:
            if writing[0]:
                cl.put(f"w{i}.{n}", SIZE,
                       on_done=lambda ok: loop(cl, i, n + 1))

        for i, cl in enumerate(c.clients):
            loop(cl, i, 0)
        c.run(until=1.5)
        c.wipe_server(3)
        c.run(until=2.0)
        c.net.set_nic_slowdown(c.servers[0].name, 20.0)
        c.recover_server(3)
        c.run(until=3.5)
        writing[0] = False
        c.net.set_nic_slowdown(c.servers[0].name, 1.0)
        c.run(until=6.0)
        assert not c.servers[3].rebuilding
        assert c.metrics.counter("rebuild.snapshots_served").value >= 3
        assert len({n.apply_cursor for s in c.servers for n in s.groups}) == 1
        assert check_store_agreement(c.servers) == []
        assert check_cluster(c.servers, c.servers[0].config) == []


class TestMissingValuePoll:
    def test_poll_stops_once_the_cursor_has_passed_the_instance(
            self, monkeypatch):
        """A snapshot install moves the apply cursor past an instance it
        may hold commit-only (no value, no share) for good: every peer
        has compacted it. A poll for that value must stop then, not pull
        the log from it off two peers every 0.5 s for ever. The test
        makes an old, compacted record commit-only by hand. On the
        parent of the fix ``P4`` sends 14 such requests in 3 s."""
        c = make()
        results = pump(c, [(f"k{i}", SIZE) for i in range(12)])
        c.run(until=4.0)
        assert all(results) and len(results) == 12
        srv = c.servers[3]
        node = srv.groups[0]
        inst = min(node.chosen)
        assert inst < node.apply_cursor
        assert all(s.groups[0].retired_below > inst for s in c.servers)
        node.chosen[inst] = node.chosen[inst]._replace(value=None, share=None)
        polls = []
        send = c.net.send

        def counting(src, dst, payload, size):
            body = getattr(payload, "body", None)
            if (src == srv.name and isinstance(body, CatchUp)
                    and body.from_instance == inst):
                polls.append(c.sim.now)
            send(src, dst, payload, size)

        monkeypatch.setattr(c.net, "send", counting)
        node.on_missing_value(inst)
        c.run(until=7.0)
        assert polls == []

    def test_a_missed_commit_is_fetched(self, monkeypatch):
        """A Commit is one-way: drop the one for a write's instance on
        its way to ``P4`` and that follower learns later instances but
        holds no record of this one, so its apply cursor stops there.
        The monitor tick must notice and fetch it within a second; on
        the parent of the fix the cursor stays put for good."""
        c = make(interval=0.0)
        follower = c.servers[3]
        g = follower.shard_map.group_of("k0")
        node = follower.groups[g]
        target, dropped = node.apply_cursor, []
        send = c.net.send

        def dropping(src, dst, payload, size):
            if dst == follower.name and not dropped and any(
                    isinstance(m, Commit) and m.instance == target
                    for m in carried(payload)):
                dropped.append(c.sim.now)
                return
            send(src, dst, payload, size)

        monkeypatch.setattr(c.net, "send", dropping)
        oks = pump(c, [("k0", SIZE)] * 40)
        while node.apply_cursor <= target and c.sim.now < 4.0:
            c.run(until=c.sim.now + 0.01)
        assert dropped and max(node.chosen) > target
        assert node.apply_cursor > target and c.sim.now < dropped[0] + 1.0
        c.run(until=c.sim.now + 1.0)
        assert len(oks) == 40 and all(oks)
        assert node.apply_cursor == c.leader().groups[g].apply_cursor
