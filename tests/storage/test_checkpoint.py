"""Unit tests for the checkpoint store and WAL prefix compaction.

The two halves of the log-bounding story: a checkpoint becomes durable
atomically (write-new-then-swap), and only then may the WAL prefix it
covers be truncated. These tests pin the crash semantics of both.
"""

import pytest

from repro.sim import Simulator
from repro.storage import SSD, CheckpointStore, Disk, WriteAheadLog
from repro.storage.wal import RECORD_HEADER_BYTES


def make_store():
    sim = Simulator()
    disk = Disk(sim, SSD)
    store = CheckpointStore(sim, disk, "S0.ckpt")
    return sim, disk, store


def make_wal():
    sim = Simulator()
    disk = Disk(sim, SSD)
    wal = WriteAheadLog(sim, disk, group_commit_window=0.0)
    return sim, disk, wal


class TestCheckpointStore:
    def test_save_then_load(self):
        sim, disk, store = make_store()
        done = []
        store.save({"state": 1}, 500, lambda: done.append(sim.now))
        assert store.load() is None  # not durable yet
        sim.run()
        assert len(done) == 1
        rec = store.load()
        assert rec is not None
        assert rec.payload == {"state": 1}
        assert store.stored_bytes() == 500 + RECORD_HEADER_BYTES

    def test_newer_checkpoint_replaces_older(self):
        sim, disk, store = make_store()
        store.save("old", 100, lambda: None)
        sim.run()
        store.save("new", 200, lambda: None)
        sim.run()
        rec = store.load()
        assert rec.payload == "new"
        assert rec.seq == 1
        assert store.saves == 2
        # Only the current checkpoint occupies disk (atomic swap).
        assert store.stored_bytes() == 200 + RECORD_HEADER_BYTES

    def test_crash_mid_save_keeps_previous(self):
        sim, disk, store = make_store()
        store.save("v1", 100, lambda: None)
        sim.run()
        fired = []
        store.save("v2", 100, lambda: fired.append(1))
        store.crash()  # device write still in flight: scratch copy lost
        sim.run()
        assert fired == []
        assert store.load().payload == "v1"

    def test_crash_with_no_prior_checkpoint(self):
        sim, disk, store = make_store()
        store.save("v1", 100, lambda: None)
        store.crash()
        sim.run()
        assert store.load() is None

    def test_wipe_destroys_checkpoint(self):
        sim, disk, store = make_store()
        store.save("v1", 100, lambda: None)
        sim.run()
        store.wipe()
        assert store.load() is None
        assert store.stored_bytes() == 0

    def test_corrupt_checkpoint_not_loaded(self):
        sim, disk, store = make_store()
        store.save("v1", 100, lambda: None)
        sim.run()
        assert store.corrupt()
        assert store.load() is None  # rotten checkpoints never install

    def test_corrupt_without_checkpoint_is_noop(self):
        sim, disk, store = make_store()
        assert not store.corrupt()

    def test_negative_size_rejected(self):
        sim, disk, store = make_store()
        with pytest.raises(ValueError):
            store.save("x", -1, lambda: None)

    def test_save_after_crash_works(self):
        sim, disk, store = make_store()
        store.save("v1", 100, lambda: None)
        store.crash()
        sim.run()
        store.save("v2", 100, lambda: None)
        sim.run()
        assert store.load().payload == "v2"


class TestSegments:
    """A save replaces the state part and may append one segment; the
    store keeps every segment until the disk is wiped."""

    def saved(self, n=3):
        sim, disk, store = make_store()
        for i in range(n):
            store.save(f"state{i}", 100 + i, lambda: None,
                       segment=f"seg{i}", segment_size=10 * (i + 1))
            sim.run()
        return sim, disk, store

    def test_state_part_replaced_segments_kept_oldest_first(self):
        sim, disk, store = self.saved()
        assert store.load().payload == "state2"
        assert [seg.payload for seg in store.segments] == [
            "seg0", "seg1", "seg2"]
        assert store.saves == 3

    def test_stored_bytes_is_state_part_plus_every_segment(self):
        sim, disk, store = self.saved()
        assert store.stored_bytes() == (
            102 + RECORD_HEADER_BYTES
            + (10 + 20 + 30) + 3 * RECORD_HEADER_BYTES)

    def test_one_device_write_per_save_carrying_both_parts(self):
        sim, disk, store = make_store()
        handed = store.save("state", 100, lambda: None,
                            segment="seg", segment_size=40)
        sim.run()
        assert disk.flushes == 1
        assert handed == disk.bytes_written == 140 + 2 * RECORD_HEADER_BYTES
        assert store.bytes_written == handed

    def test_crash_mid_save_appends_nothing(self):
        sim, disk, store = self.saved(n=2)
        store.save("state2", 100, lambda: None,
                   segment="seg2", segment_size=30)
        store.crash()
        sim.run()
        assert store.load().payload == "state1"
        assert [seg.payload for seg in store.segments] == ["seg0", "seg1"]

    def test_wipe_drops_the_segments(self):
        sim, disk, store = self.saved()
        store.wipe()
        assert store.segments == []
        assert store.stored_bytes() == 0

    def test_one_rotten_segment_makes_the_checkpoint_unloadable(self):
        # A later segment does not repeat what an earlier one holds, so
        # no part of the checkpoint can be trusted without all of it.
        sim, disk, store = self.saved()
        store.segments[0].crc ^= 1
        assert store.load() is None

    def test_negative_segment_size_rejected(self):
        sim, disk, store = make_store()
        with pytest.raises(ValueError):
            store.save("x", 1, lambda: None, segment="s", segment_size=-1)


class TestWriteError:
    def test_eio_fires_on_error_and_changes_nothing(self):
        sim, disk, store = make_store()
        store.save("v1", 100, lambda: None, segment="s1", segment_size=10)
        sim.run()
        before = store.stored_bytes(), store.bytes_written
        disk.inject_write_errors(1)
        events = []
        store.save("v2", 100, lambda: events.append("durable"),
                   lambda: events.append("error"),
                   segment="s2", segment_size=10)
        sim.run()
        assert events == ["error"]
        assert store.load().payload == "v1"
        assert [seg.payload for seg in store.segments] == ["s1"]
        assert store.saves == 1
        assert (store.stored_bytes(), store.bytes_written) == before

    def test_save_after_eio_works(self):
        sim, disk, store = make_store()
        disk.inject_write_errors(1)
        store.save("v1", 100, lambda: None, lambda: None)
        sim.run()
        store.save("v2", 100, lambda: None, lambda: None)
        sim.run()
        assert store.load().payload == "v2"

    def test_eio_after_crash_reports_to_nobody(self):
        # The process that issued the write is gone; its error handler
        # must not run in the next incarnation.
        sim, disk, store = make_store()
        disk.inject_write_errors(1)
        events = []
        store.save("v1", 100, lambda: None, lambda: events.append("error"))
        store.crash()
        sim.run()
        assert events == []


class TestTruncatePrefix:
    def durable_wal(self, n=5, size=100):
        sim, disk, wal = make_wal()
        for i in range(n):
            wal.append(("accept", i), size, lambda: None)
        sim.run()
        return sim, disk, wal

    def test_drops_exactly_the_prefix(self):
        sim, disk, wal = self.durable_wal()
        dropped, dbytes = wal.truncate_prefix(3)
        assert dropped == 3
        assert dbytes == 3 * (100 + RECORD_HEADER_BYTES)
        assert [r.lsn for r in wal.durable] == [3, 4]
        assert wal.compaction_floor == 3
        assert wal.records_compacted == 3

    def test_charges_no_device_write(self):
        sim, disk, wal = self.durable_wal()
        before = disk.bytes_written
        wal.truncate_prefix(5)
        assert disk.bytes_written == before  # metadata-only operation

    def test_floor_is_monotonic(self):
        sim, disk, wal = self.durable_wal()
        wal.truncate_prefix(4)
        assert wal.truncate_prefix(2) == (0, 0)  # stale call: no-op
        assert wal.compaction_floor == 4

    def test_lsns_below_floor_never_reissued(self):
        sim, disk, wal = self.durable_wal(n=3)
        wal.truncate_prefix(3)  # log now empty
        lsn = wal.append("fresh", 10, lambda: None)
        assert lsn == 3

    def test_durable_bytes_shrinks(self):
        sim, disk, wal = self.durable_wal()
        full = wal.durable_bytes()
        wal.truncate_prefix(4)
        assert wal.durable_bytes() == full - 4 * (100 + RECORD_HEADER_BYTES)

    def test_recovery_after_truncate_replays_tail_only(self):
        sim, disk, wal = self.durable_wal()
        wal.truncate_prefix(3)
        wal.crash()
        records = wal.recover()
        assert [r.lsn for r in records] == [3, 4]


class TestWalWipe:
    def test_wipe_loses_everything_and_resets(self):
        sim, disk, wal = make_wal()
        for i in range(4):
            wal.append(i, 50, lambda: None)
        sim.run()
        wal.truncate_prefix(2)
        wal.wipe()
        assert wal.durable == []
        assert wal.durable_bytes() == 0
        assert wal.compaction_floor == 0
        # A fresh disk starts a fresh log at LSN 0.
        assert wal.append("first", 10, lambda: None) == 0
