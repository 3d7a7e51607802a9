"""A checkpoint costs what changed since the last one, once.

Server-level checks of the append-only instance segment: what a
checkpoint hands to the device is defined by its own content, the
footprint reported is the whole checkpoint, a value byte is written
about once (a segment skips what its own save retires, and the state
part holds by reference every store entry the checkpoint's own votes
rebuild — a follower's share and the leader's full value alike), a
checkpoint allocates and charges nothing per instance it already holds,
a failed device write does not wedge the checkpointer, and the durable
records are immutable (which is what makes the identity scan exact).
"""

import gc

import pytest

from repro.check import check_bounded_wal, check_cluster
from repro.core import (
    Accept, Ballot, ChosenRecord, Value, classic_paxos, encode_value, rs_paxos,
)
from repro.kvstore import build_cluster
from repro.kvstore.batch import BatchItem, BatchMeta, FramedCommand, encode_frame
from repro.kvstore.checkpointer import HELD, HeldRecords
from repro.kvstore.messages import Command
from repro.kvstore.shard import instance_of
from repro.storage import CheckpointStore
from repro.storage.memkv import StoredValue
from repro.storage.wal import RECORD_HEADER_BYTES
from repro.workload import ClosedLoopDriver, small_write

from .test_read_retention import read_all
from .test_rebuild import make, pump


def load(cluster, until, num_keys=8):
    """Closed-loop 4 KB writes from every client until ``until``."""
    for i, cl in enumerate(cluster.clients):
        driver = ClosedLoopDriver(cluster.sim, cl,
                                  small_write(num_keys=num_keys),
                                  stream=f"d{i}")
        driver.start()
        cluster.sim.call_at(until, driver.stop)
    cluster.run(until=until + 0.5)


def checkpoint(srv) -> bool:
    """One explicit checkpoint on ``srv``, run to durability."""
    done = []
    assert srv.checkpointer.save(on_done=lambda: done.append(1))
    srv.sim.run(until=srv.sim.now + 1.0)
    return bool(done)


def record_segments(monkeypatch) -> dict:
    """Store name -> every save handed to the device, as written: its
    state part and a copy of its segment (a durable segment keeps only
    the records that later checkpoints have not retired since)."""
    written: dict = {}
    real_save = CheckpointStore.save

    def save(self, payload, size, callback, on_error=None, segment=None,
             segment_size=0):
        if segment is not None:
            written.setdefault(self.name, []).append({
                "state": payload,
                "groups": [(dict(acc), dict(chosen))
                           for acc, chosen in segment["groups"]],
                "applied_ops": segment["applied_ops"],
                "digests": segment["digests"],
            })
        return real_save(self, payload, size, callback, on_error, segment,
                         segment_size)

    monkeypatch.setattr(CheckpointStore, "save", save)
    return written


def saved_size(state: dict, segment: dict) -> int:
    """Device bytes of one save, from its content alone: per state-part
    store entry its size, or 16 B if held by reference; per segment
    record 16 B plus an acceptor record's share; 8 B per dedup key and
    per retired learner record's digest; two frame headers."""
    size = 2 * RECORD_HEADER_BYTES
    size += sum(16 if e.value is HELD else e.size
                for e in state["store"].values())
    size += 8 * (len(segment["applied_ops"]) + segment["digests"])
    for acc, chosen in segment["groups"]:
        size += sum(16 + st.share.size for st in acc.values())
        size += 16 * len(chosen)
    return size


def share_bytes_written(saves) -> tuple[int, int]:
    """(value bytes the saves wrote, bytes of the distinct values among
    them): every acceptor record's share in a segment, and every store
    entry a state part did not hold by reference — a share, or a
    complete value (one per key and version)."""
    written, distinct = 0, {}
    for save in saves:
        parts = [(id(st.share), st.share.size)
                 for acc, _ in save["groups"] for st in acc.values()]
        for key, e in save["state"]["store"].items():
            if e.value is HELD or e.tombstone:
                continue
            if e.complete:
                parts.append(((key, e.version), e.size))
            elif e.value is not None:
                parts.append((id(e.value), e.value.size))
        written += sum(size for _, size in parts)
        distinct.update(parts)
    return written, sum(distinct.values())


def by_reference(held: HeldRecords, e, live) -> bool:
    """The charge rule: is saved store entry ``e``, whose live value is
    ``live``, a reference once the checkpoint holds ``held``? An
    incomplete entry is when its share is the held vote's; a complete
    one when a clean held vote and a held learner record name the same
    value."""
    if e.group < 0 or e.tombstone:
        return False
    inst = instance_of(e.version)
    vote = held.get(e.group, inst)
    if vote is None:
        return False
    if not e.complete:
        return live is not None and vote.share is live
    learned = held.get(e.group, inst, 1)
    return (learned is not None and not vote.share.corrupt
            and vote.share.value_id == learned.value_id)


class TestContentDefinedCharge:
    @pytest.mark.parametrize("leader", [False, True],
                             ids=["follower", "leader"])
    def test_device_bytes_equal_the_size_recomputed_from_the_content(
            self, monkeypatch, leader):
        c = make(interval=0.0)          # checkpoints only when asked
        srv = c.leader() if leader else c.servers[2]
        assert srv.is_leader_server == leader
        written = record_segments(monkeypatch)
        handed = []
        real_write = srv.disk.write

        def spy(nbytes, callback, on_error=None):
            handed.append(nbytes)
            return real_write(nbytes, callback, on_error)

        for round_ in range(3):
            load(c, until=c.sim.now + 0.4)
            monkeypatch.setattr(srv.disk, "write", spy)
            del handed[:]
            assert checkpoint(srv)
            monkeypatch.setattr(srv.disk, "write", real_write)
            (nbytes,) = handed                      # one device write
            save = written[srv.checkpoint_store.name][-1]
            assert nbytes == saved_size(save["state"], save)
            assert any(acc for acc, _ in save["groups"])  # not vacuous
            # An entry is held by reference exactly when the checkpoint
            # now holds the vote that rebuilds it: the leader's complete
            # values as well as a follower's shares.
            refs = 0
            for key, e in save["state"]["store"].items():
                by_ref = by_reference(srv.checkpointer.held, e,
                                      srv.store.get_entry(key).value)
                assert (e.value is HELD) == by_ref, key
                assert e.complete == leader, key
                refs += by_ref
            assert refs
        # From the second save on, each one retires what the keys'
        # later writes left unnamed, and pays a digest per learner record.
        assert save["digests"]

    def test_a_segment_holds_only_what_changed(self):
        c = make(interval=0.0)
        srv = c.servers[2]
        load(c, until=c.sim.now + 0.6)
        assert checkpoint(srv)
        first = srv.checkpoint_store.segments[-1].payload
        load(c, until=c.sim.now + 0.2)
        assert checkpoint(srv)
        second = srv.checkpoint_store.segments[-1].payload
        for (acc1, _), (acc2, _), node in zip(
                first["groups"], second["groups"], srv.groups):
            assert acc2 and not set(acc1) & set(acc2)
            assert set(acc1) | set(acc2) == set(node.acceptor.state.instances)
        assert not set(first["applied_ops"]) & set(second["applied_ops"])
        # Nothing changed since: the next segment is empty.
        assert checkpoint(srv)
        third = srv.checkpoint_store.segments[-1].payload
        assert len(third["applied_ops"]) == 0
        assert list(third["applied_ops"]) == []
        assert all(not acc and not chosen for acc, chosen in third["groups"])

    def test_footprint_is_the_whole_checkpoint_not_the_last_segment(
            self, monkeypatch):
        written = record_segments(monkeypatch)
        c = make()
        load(c, until=5.0)
        for srv in c.servers:
            fp = srv.durable_footprint()
            saves = written[srv.checkpoint_store.name]
            segments = srv.checkpoint_store.segments
            assert len(segments) > 5
            # The footprint is every segment, not the last one.
            assert fp["checkpoint_bytes"] > 4 * max(seg.size for seg in segments)
            # Every share and every complete value was written about
            # once: not again by the state part, nor once per interval.
            shares, distinct = share_bytes_written(saves)
            assert distinct <= shares <= 1.05 * distinct
        assert sum(s.durable_footprint()["checkpoint_bytes_written"]
                   for s in c.servers) == c.metrics.counter("ckpt.bytes").value


def write_exactly(cluster, n, size=3000, num_keys=8):
    """``n`` committed puts of ``size`` bytes over ``num_keys`` keys,
    one after another."""
    oks = pump(cluster, [(f"k{i % num_keys}", size) for i in range(n)])
    while len(oks) < n:
        cluster.run(until=cluster.sim.now + 0.05)
    assert all(oks)
    cluster.run(until=cluster.sim.now + 0.1)    # commits reach followers


class TestCheckpointAllocatesWhatChanged:
    @staticmethod
    def checkpoint_after(writes: int) -> tuple[int, int]:
        """(tracked objects a checkpoint allocates, bytes it hands to
        the device) on a server that committed ``writes`` writes, 100 of
        them since its previous checkpoint."""
        c = make(seed=3, interval=0.0)      # checkpoints only when asked
        srv = c.servers[2]
        write_exactly(c, writes - 100)
        assert checkpoint(srv)
        write_exactly(c, 100)
        written = srv.disk.bytes_written
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            assert srv.checkpointer.save()
            allocated = len(gc.get_objects()) - before
        finally:
            gc.enable()
        return allocated, srv.disk.bytes_written - written

    @staticmethod
    def assert_bytes_are_what_survives(small_bytes: int, large_bytes: int):
        """100 writes over 8 keys since the last checkpoint leave 8 keys'
        shares (1000 B each) to write; the other 92 writes' records are
        retired by the same save and cost 8 B of digest each."""
        assert 8_000 < large_bytes == small_bytes < 12_000

    def test_objects_and_bytes_do_not_grow_with_history(self):
        small, small_bytes = self.checkpoint_after(1_000)
        large, large_bytes = self.checkpoint_after(4_000)
        # The segment's own dicts and the state part (8 live keys):
        # nothing per instance the checkpoint already holds.
        assert small < 100
        assert large <= small + 10
        self.assert_bytes_are_what_survives(small_bytes, large_bytes)

    def test_segment_without_the_retirement_filter_fails_the_bound(
            self, monkeypatch):
        """Teeth: a segment built without its own save's retirement (the
        filter in ``HeldRecords.changed`` reverted) carries all 100
        writes' shares, which the bound above must reject."""
        real = HeldRecords.changed
        monkeypatch.setattr(
            HeldRecords, "changed", lambda self, group, floor, acc, chosen:
            real(self, group, (0, ()), acc, chosen))
        _, nbytes = self.checkpoint_after(1_000)
        assert nbytes > 100_000
        with pytest.raises(AssertionError):
            self.assert_bytes_are_what_survives(nbytes, nbytes)


class TestWriteErrorDoesNotWedgeTheCheckpointer:
    def drive(self):
        c = make()
        srv = c.servers[3]
        srv.disk.inject_write_errors(1)
        assert srv.checkpointer.save()     # this write fails with EIO
        load(c, until=6.0)
        return c, srv

    def test_one_eio_costs_one_interval(self):
        c, srv = self.drive()
        assert c.metrics.counter("ckpt.write_errors").value == 1
        peers = [s.checkpoint_store.saves for s in c.servers if s is not srv]
        assert srv.checkpoint_store.saves >= min(peers) - 1
        assert srv.wal.compaction_floor > 0
        assert check_bounded_wal(c.servers) == []
        # The records of the failed segment rode in a later one: the
        # replica recovers every instance it voted in.
        voted = [set(n.acceptor.state.instances) for n in srv.groups]
        srv.crash()
        srv.recover()
        assert [set(n.acceptor.state.instances) for n in srv.groups] == voted
        c.run(until=8.0)
        assert check_cluster(c.servers, c.servers[0].config) == []

    def test_cadence_probe_names_the_server_when_the_fix_is_reverted(
            self, monkeypatch):
        """Teeth: with ``on_error`` dropped, as before this fix, the
        in-flight flag is never cleared and ``check_bounded_wal`` must
        say so."""
        real_save = CheckpointStore.save

        def save_dropping_errors(self, payload, size, callback,
                                 on_error=None, *args, **kw):
            return real_save(self, payload, size, callback, None, *args, **kw)

        monkeypatch.setattr(CheckpointStore, "save", save_dropping_errors)
        c, srv = self.drive()
        assert srv.checkpoint_store.saves <= 1
        violations = check_bounded_wal(c.servers)
        assert violations and all(v.kind == "bounded-wal" for v in violations)
        assert all(srv.name in v.detail and "checkpoint" in v.detail
                   for v in violations)


class TestUnloadableCheckpointIsALostDisk:
    """A durable checkpoint means the WAL prefix it covers is gone, so a
    checkpoint that fails its checksum at recovery leaves the server
    with its WAL tail alone: it must rebuild from its peers as a wiped
    server does, an observer until then, and vote again only behind a
    promise floor no lower than the one it held before the crash."""

    def test_rotten_checkpoint_rebuilds_the_server(self):
        c = make()
        oks = pump(c, [(f"k{i}", 3000) for i in range(12)])
        c.run(until=4.0)
        assert all(oks) and len(oks) == 12
        srv = c.servers[3]
        floors = [n.acceptor.state.floor for n in srv.groups]
        assert srv.wal.compaction_floor > 0 and all(f.round for f in floors)
        c.crash_server(3)
        assert srv.checkpoint_store.corrupt()
        c.recover_server(3)
        assert srv.rebuilding
        while srv.rebuilding:
            assert all(srv.groups[g].observer for g in srv.rebuild.pending)
            assert c.sim.now < 8.0
            c.run(until=c.sim.now + 0.1)
        assert not any(n.observer for n in srv.groups)
        assert all(n.acceptor.state.floor >= floor
                   for n, floor in zip(srv.groups, floors))
        c.run(until=8.0)
        assert check_cluster(c.servers, c.servers[0].config) == []

    def test_a_server_that_never_saved_recovers_voting(self):
        c = make(interval=0.0)
        pump(c, [("k", 3000)])
        c.run(until=2.0)
        c.crash_server(3)
        c.recover_server(3)
        assert not c.servers[3].rebuilding


class TestDurableRecordsAreImmutable:
    def test_mutating_a_record_raises(self):
        st = Accept(0, Ballot(1, 0), None)
        rec = ChosenRecord("v1", Ballot(1, 0))
        with pytest.raises(AttributeError):
            st.share = None
        with pytest.raises(AttributeError):
            st.ballot = Ballot(2, 0)
        with pytest.raises(AttributeError):
            rec.value = None
        with pytest.raises(AttributeError):
            rec.share = None

    def test_live_state_checkpoint_and_recovered_replica_share_records(self):
        """On a vote the checkpoint kept: the lowest instance of group 0
        that a key's stored version still names (the ones below it that
        none names were retired)."""
        c = make()
        load(c, until=3.0)
        srv = c.servers[1]
        node = srv.groups[0]
        held = srv.checkpointer.held.records(0)[0]
        named = {instance_of(e.version) for e in srv.store.export_state()
                 .values() if e.group == 0}
        inst = min(named & set(held) & set(node.acceptor.state.instances))
        assert inst < node.retired_below
        live = node.acceptor.state.instances[inst]
        assert held[inst] is live
        srv.crash()
        srv.recover()
        assert srv.groups[0].acceptor.state.instances[inst] is live


class TestStatePartHoldsSharesByReference:
    def test_recovery_puts_the_held_share_back(self):
        c = make()
        load(c, until=3.0)
        srv = c.servers[1]
        assert checkpoint(srv)      # nothing written since it was taken
        refs = {key for key, e in
                srv.checkpoint_store.current.payload["store"].items()
                if e.value is HELD}
        assert refs
        before = {key: srv.store.get_entry(key).value for key in refs}
        srv.crash()
        srv.recover()
        for key in refs:
            assert srv.store.get_entry(key).value is before[key]

    def test_a_recovered_leader_decodes_what_it_held_whole(self):
        """The leader's checkpoint holds its complete values by
        reference to its own votes; recovered and elected again, it
        holds shares, and reads every key back byte for byte by
        decoding."""
        c = build_cluster(rs_paxos(5, 1), seed=11, num_groups=2)
        c.start()
        c.run(until=1.0)
        values = {f"k{i}": bytes([i]) * 700 + bytes(range(256)) * (i + 1)
                  for i in range(8)}
        for key, data in values.items():
            c.clients[0].put(key, len(data), data=data)
        c.run(until=2.0)
        leader = c.leader()
        assert all(leader.store.get(key).complete for key in values)
        assert checkpoint(leader)
        store = leader.checkpoint_store.current.payload["store"]
        assert all(store[key].value is HELD for key in values)
        leader.crash()
        c.run(until=c.sim.now + 0.1)
        leader.recover()
        leader._start_election()    # before a successor's vacancy check
        c.run(until=c.sim.now + 3.0)
        assert c.leader() is leader
        assert not any(leader.store.get(key).complete for key in values)
        got = read_all(c, list(values))
        assert sorted(got) == sorted(values.values())
        assert leader.reads.recovery_reads == len(values)

    def test_a_reference_to_a_record_no_segment_holds_raises(self):
        """Teeth: drop from the durable segments the acceptor record a
        by-reference entry names; recovery must refuse, not install a
        store entry without its share."""
        c = make()
        load(c, until=3.0)
        srv = c.servers[1]
        store = srv.checkpoint_store.current.payload["store"]
        e = next(e for e in store.values() if e.value is HELD)
        inst = instance_of(e.version)
        for segment in srv.checkpoint_store.segments:
            segment.payload["groups"][e.group][0].pop(inst, None)
        srv.crash()
        with pytest.raises(LookupError, match="no segment holds"):
            srv.recover()


class TestChargeRule:
    """``HeldRecords.refer`` / ``resolved`` on one held vote: a store
    entry the vote rebuilds is a 16 B reference, every other one costs
    its size, and recovery rebuilds what applying the vote rebuilds."""

    DATA = bytes(range(250)) * 12           # 3,000 B

    def held(self, config, value, corrupt=False, learned=None):
        """Records holding this replica's (index 2) vote for ``value``
        at instance 7 of group 0, and a learner record naming
        ``learned`` (default: the same value)."""
        share = encode_value(value, config.coding, (0, 1, 2, 3, 4))[2]
        if corrupt:
            share = share.corrupted()
        held = HeldRecords(1)
        chosen = ChosenRecord(learned or value.value_id, Ballot(1, 0))
        held.hold([({7: Accept(7, Ballot(1, 0), share)}, {7: chosen})])
        return held, share

    def entry(self, value):
        return StoredValue(value.data, value.size, True, 7, group=0)

    def charge(self, held, value):
        """(bytes refer charges, the entry as saved) for the leader's
        complete entry of ``value``."""
        e = self.entry(value)
        return held.refer([e], [({}, {})]), e

    def value(self, meta=None, data=DATA):
        return Value("v7", len(data), data, meta=meta)

    @pytest.mark.parametrize("case", ["rotten", "losing", "no-vote"])
    def test_a_vote_that_cannot_rebuild_the_value_costs_its_size(self, case):
        value = self.value()
        if case == "no-vote":
            held = HeldRecords(1)
        else:
            held, _ = self.held(rs_paxos(5, 1), value,
                                corrupt=case == "rotten",
                                learned="v8" if case == "losing" else None)
        size, e = self.charge(held, value)
        assert size == 3000 and e.value is value.data

    def test_a_tombstone_costs_its_size(self):
        held, _ = self.held(rs_paxos(5, 1), self.value())
        e = StoredValue(None, 0, True, 7, tombstone=True, group=0)
        assert held.refer([e], [({}, {})]) == 0
        assert e.value is None

    def test_coded_vote_recovers_a_share(self):
        """θ(3, 5): the leader's complete entry comes back as what a
        follower holds, an incomplete entry holding the share."""
        value = self.value()
        held, share = self.held(rs_paxos(5, 1), value)
        size, e = self.charge(held, value)
        assert size == 16 and e.value is HELD
        (back,) = held.resolved({"k": e}).values()
        assert back.value is share and not back.complete
        assert (back.size, back.version, back.group) == (1000, 7, 0)

    def test_full_copy_vote_recovers_the_bytes(self):
        """θ(1, 5): the share is the full copy, so the entry comes back
        complete, byte for byte."""
        value = self.value()
        held, _ = self.held(classic_paxos(5), value)
        size, e = self.charge(held, value)
        assert size == 16 and e.value is HELD
        (back,) = held.resolved({"k": e}).values()
        assert back.complete and back.value == self.DATA
        assert back.size == 3000

    def test_full_copy_batch_vote_recovers_the_key_payload(self):
        """θ(1, 5), a batch: the key gets its own payload back, not the
        frame."""
        cmds = [FramedCommand("put", "k", b"x" * 40, "C", 1),
                FramedCommand("put", "j", b"y" * 60, "C", 2)]
        meta = Command("batch", "", BatchMeta(tuple(
            BatchItem(c.op, c.key, len(c.data), c.client, c.op_id)
            for c in cmds)))
        value = self.value(meta, encode_frame(cmds))
        held, _ = self.held(classic_paxos(5), value)
        e = StoredValue(b"y" * 60, 60, True, 7, group=0)
        assert held.refer([e], [({}, {})]) == 16
        back = held.resolved({"j": e})["j"]
        assert back.complete and (back.value, back.size) == (b"y" * 60, 60)

    def test_a_reference_whose_record_is_gone_raises(self):
        value = self.value()
        held, _ = self.held(rs_paxos(5, 1), value)
        _, e = self.charge(held, value)
        held.hold([({}, {})], [(8, ())])        # retires instance 7
        with pytest.raises(LookupError, match="no segment holds"):
            held.resolved({"k": e})
