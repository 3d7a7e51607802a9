"""Property-based tests: WAL durability under random crash points.

Invariant (the §4.5 requirement Paxos safety rests on): a record whose
durability callback fired survives any later crash; records are durable
in append order with no gaps among the survivors of a single stream.
"""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ballot import Ballot
from repro.core.value import CodedShare
from repro.erasure import CodingConfig, RSCodec
from repro.sim import Simulator
from repro.storage import (
    HDD, SSD, Disk, WalView, WriteAheadLog, record_checksum,
)


@given(
    crash_at=st.floats(min_value=0.0, max_value=0.5),
    window=st.sampled_from([0.0, 0.002, 0.01]),
    n_records=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=80, deadline=None)
def test_acked_records_survive_crash(crash_at, window, n_records, seed):
    sim = Simulator(seed=seed)
    disk = Disk(sim, HDD)
    wal = WriteAheadLog(sim, disk, group_commit_window=window)
    acked: list[int] = []
    # Appends trickle in every 5 ms.
    for i in range(n_records):
        sim.call_at(i * 0.005, lambda i=i: wal.append(i, 64, lambda i=i: acked.append(i)))
    sim.call_at(crash_at, wal.crash)
    sim.run()
    survivors = [r.payload for r in wal.recover()]
    # 1. Everything acknowledged before the crash is durable.
    for payload in acked:
        assert payload in survivors
    # 2. Durable records are exactly the acknowledged ones, in order.
    assert survivors == acked


@given(
    n_a=st.integers(min_value=0, max_value=10),
    n_b=st.integers(min_value=0, max_value=10),
)
@settings(max_examples=40, deadline=None)
def test_wal_views_isolate_tags(n_a, n_b):
    sim = Simulator()
    wal = WriteAheadLog(sim, Disk(sim, SSD), group_commit_window=0.001)
    view_a = WalView(wal, "a")
    view_b = WalView(wal, "b")
    for i in range(n_a):
        view_a.append(("rec", i), 10, lambda: None)
    for i in range(n_b):
        view_b.append(("rec", i), 10, lambda: None)
    sim.run()
    assert [r.payload for r in view_a.recover()] == [("rec", i) for i in range(n_a)]
    assert [r.payload for r in view_b.recover()] == [("rec", i) for i in range(n_b)]


@given(sizes=st.lists(st.integers(min_value=0, max_value=10_000), max_size=30))
@settings(max_examples=40, deadline=None)
def test_bytes_accounting(sizes):
    sim = Simulator()
    disk = Disk(sim, SSD)
    wal = WriteAheadLog(sim, disk, group_commit_window=0.001)
    for s in sizes:
        wal.append("x", s, lambda: None)
    sim.run()
    assert wal.bytes_appended == sum(sizes)
    # Disk wrote payloads plus a fixed header per record.
    from repro.storage import RECORD_HEADER_BYTES

    assert disk.bytes_written == sum(sizes) + RECORD_HEADER_BYTES * len(sizes)


# -- checksum semantics ---------------------------------------------------
#
# The record checksum is computed when something reads it, never on the
# append path. What must hold regardless of *when* it was first read:

FATES = ["clean", "rot", "swap", "rot+rewrite", "swap+rewrite"]


def share_payload(i: int, blob: bytes):
    """A record payload shaped like an accept: nested tuple + bytes."""
    return ("accept", i, (3, 1), blob)


@given(
    plan=st.lists(
        st.tuples(st.sampled_from(FATES), st.booleans(),
                  st.binary(min_size=1, max_size=64)),
        min_size=1, max_size=12,
    ),
)
@settings(max_examples=100, deadline=None)
def test_validity_does_not_depend_on_when_the_crc_was_read(plan):
    sim = Simulator()
    wal = WriteAheadLog(sim, Disk(sim, SSD), group_commit_window=0.001)
    view = WalView(wal, "g")
    for i, (_, _, blob) in enumerate(plan):
        view.append(share_payload(i, blob), len(blob), lambda: None)
    sim.run()
    assert wal.verify() == []  # clean as written, nothing read yet

    want_valid = []
    for rec, (fate, read_first, blob) in zip(wal.durable, plan):
        if read_first:
            assert rec.crc == record_checksum(rec.lsn, rec.payload)
        if fate.startswith("rot"):
            assert wal.corrupt_record(rec.lsn)
        elif fate.startswith("swap"):
            flipped = bytes([blob[0] ^ 0x01]) + blob[1:]
            tampered = ("g", share_payload(rec.lsn, flipped))
            assert wal.corrupt_record(rec.lsn, payload=tampered)
        if fate != "clean":
            assert not rec.valid
        if fate.endswith("rewrite"):
            assert wal.rewrite_record(
                rec.lsn, ("g", share_payload(rec.lsn, blob)), len(blob))
        want_valid.append(fate == "clean" or fate.endswith("rewrite"))
    sim.run()

    assert [r.valid for r in wal.durable] == want_valid
    assert [r.lsn for r in wal.verify()] == [
        i for i, ok in enumerate(want_valid) if not ok
    ]
    # The view mirrors validity, record for record, payloads untagged.
    mirrored = view.recover()
    assert [r.valid for r in mirrored] == want_valid
    assert wal.recovery_corrupt == want_valid.count(False)
    for rec in mirrored:
        assert rec.payload[0] == "accept"
        if rec.valid:
            assert rec.crc == record_checksum(rec.lsn, rec.payload)


@given(
    n=st.integers(min_value=2, max_value=8),
    frac=st.floats(min_value=0.05, max_value=0.95),
    read_first=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_torn_records_are_invalid_and_hidden_from_views(n, frac, read_first):
    sim = Simulator()
    wal = WriteAheadLog(sim, Disk(sim, SSD), group_commit_window=0.002)
    view = WalView(wal, "g")
    for i in range(n):
        view.append(share_payload(i, b"\x00" * 32), 100, lambda: None)
    sim.run(until=0.0021)  # window closed, device op in flight
    if read_first:
        for p in wal._inflight_batch:
            p.record.crc
    wal.arm_torn_write(frac)
    wal.crash()
    sim.run()
    torn = [r for r in wal.durable if r.torn]
    assert len(torn) <= 1
    assert all(not r.valid for r in torn)
    assert all(r.valid for r in wal.durable if not r.torn)
    survivors = view.recover()
    assert [r.lsn for r in survivors] == list(range(len(survivors)))
    assert all(r.valid for r in survivors)
    assert wal.recovery_discarded == len(torn)


@given(
    blob=st.binary(min_size=1, max_size=256),
    at=st.integers(min_value=0, max_value=255),
    bit=st.integers(min_value=0, max_value=7),
)
@settings(max_examples=100, deadline=None)
def test_checksum_covers_every_payload_byte(blob, at, bit):
    at %= len(blob)
    flipped = blob[:at] + bytes([blob[at] ^ (1 << bit)]) + blob[at + 1:]
    good = record_checksum(4, share_payload(4, blob))
    assert good == record_checksum(4, share_payload(4, bytes(blob)))
    assert good != record_checksum(4, share_payload(4, flipped))
    assert good != record_checksum(5, share_payload(4, blob))
    for like in (bytearray(blob), memoryview(b"#" + blob)[1:]):
        assert good == record_checksum(4, share_payload(4, like))


def test_checksum_of_a_view_share_is_its_bytes_checksum():
    """A coded share whose payload is a view (an unpadded original)
    checksums by content, like its ``bytes`` twin: a view's ``repr``
    holds its address, which would make the CRC differ run to run and
    between equal shares — a scrub-repaired record, a new object, would
    read as rotten. The constant is the ``bytes`` share's CRC as the
    checksum computed it before payloads could be views."""
    cfg = CodingConfig(3, 5)
    value = hashlib.shake_256(b"rs-paxos share format").digest(4096)
    view = RSCodec(cfg).encode(value)[1].data
    assert type(view) is memoryview

    def crc(data):
        share = CodedShare("v1.7", 1, cfg, 4096, data, None, (1, 2, 3, 4, 5))
        return record_checksum(7, ("accept", 3, Ballot(1, 0), share))

    assert crc(view) == crc(view.tobytes()) == 626949908
