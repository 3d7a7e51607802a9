"""The exactly-once table's contract: the same answers as two sets of
identity tuples, in bits.

Until the table was a component, a replica kept one 3-tuple per applied
op in ``_applied_ops`` and one 2-tuple in ``_applied_ids`` (for the
group-agnostic retry check under dynamic sharding); a checkpoint segment
was the set difference live − held, folding one in was a set union, and
a snapshot's first page carried the group's identities sorted.
:class:`TwoSets` keeps that bookkeeping as the reference, and the model
test drives both through every operation the server uses.
"""

import random
import tracemalloc

from hypothesis import example, given, settings, strategies as st

from repro.core import rs_paxos
from repro.kvstore import build_cluster
from repro.kvstore.dedup import AppliedOps
from repro.workload import ClosedLoopDriver, fixed_size_writes

CLIENTS = ("c0", "c1", "c2")
FAR = (2**24 - 1, 2**24, 2**24 + 1, 2**63, 2**64 - 1)


class TwoSets:
    """The reference: the two sets a replica used to keep."""

    def __init__(self) -> None:
        self.ops: set[tuple[int, str, int]] = set()
        self.ids: set[tuple[str, int]] = set()

    def add(self, group, client, op_id) -> bool:
        if (group, client, op_id) in self.ops:
            return False
        self.ops.add((group, client, op_id))
        self.ids.add((client, op_id))
        return True

    def update(self, idents) -> None:
        for ident in idents:
            self.add(*ident)


# Small ids and few groups weigh in so that steps land on each other's
# bitmaps and bytes.
op_ids = st.one_of(st.just(0), st.integers(1, 64), st.integers(1, 5_000),
                   st.sampled_from(FAR))
groups = st.one_of(st.integers(0, 2), st.integers(0, 99))
clients = st.sampled_from(CLIENTS)
steps = st.lists(st.one_of(
    st.tuples(st.just("add"), groups, clients, op_ids),
    st.tuples(st.just("run"), groups, clients, op_ids, st.integers(1, 300)),
    st.tuples(st.just("seen"), groups, clients, op_ids),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("snapshot"), groups),
    st.tuples(st.just("reset")),
    st.tuples(st.just("install")),
), max_size=60)


def agree(table: AppliedOps, ref: TwoSets) -> None:
    assert list(table) == sorted(ref.ops)
    assert len(table) == len(ref.ops)


@settings(max_examples=200, deadline=None)
@given(steps)
# A far id the bitmap later grows over: it moves into the bitmap, and
# the checkpoint taken while it was sparse must not count it twice.
@example([("add", 0, "c0", 5_000), ("checkpoint",),
          ("run", 0, "c0", 1, 300), ("run", 0, "c0", 2_000, 300),
          ("run", 0, "c0", 3_900, 300), ("run", 0, "c0", 4_200, 900),
          ("add", 0, "c0", 5_000), ("checkpoint",), ("install",),
          ("checkpoint",)])
# Held sparse, live in the bitmap; and sparse in both.
@example([("add", 0, "c0", 3_000), ("add", 0, "c0", 2**63), ("checkpoint",),
          ("run", 0, "c0", 1, 2_000), ("run", 0, "c0", 2_000, 1_100),
          ("checkpoint",)])
# A delta whose first byte the held table already half holds.
@example([("run", 0, "c0", 1, 3), ("checkpoint",), ("add", 0, "c0", 4),
          ("checkpoint",)])
# The same op applied in two groups: one identity each, one id.
@example([("add", 3, "c1", 7), ("add", 99, "c1", 7), ("snapshot", 3),
          ("reset",), ("seen", 99, "c1", 7), ("install",)])
def test_same_answers_as_the_two_sets(script):
    live, live_ref = AppliedOps(), TwoSets()
    held, held_ref = AppliedOps(), set()
    joiner, joiner_ref = AppliedOps(), TwoSets()
    for step in script:
        kind, args = step[0], step[1:]
        if kind == "add":
            assert live.add(*args) == live_ref.add(*args)
        elif kind == "run":
            group, client, start, n = args
            for op_id in range(start, start + n):
                assert (live.add(group, client, op_id)
                        == live_ref.add(group, client, op_id))
        elif kind == "checkpoint":
            delta = live.since(held)
            want = live_ref.ops - held_ref
            assert len(delta) == len(want)
            assert list(delta) == sorted(want)
            held.merge(delta)
            held_ref |= want
            assert list(held) == sorted(held_ref)
        elif kind == "snapshot":
            (group,) = args
            page = live.since(group=group)
            want = sorted(op for op in live_ref.ops if op[0] == group)
            assert list(page) == want
            joiner.merge(page)
            joiner_ref.update(want)
            agree(joiner, joiner_ref)
        elif kind == "reset":
            live.reset()
            live_ref = TwoSets()
        elif kind == "install":
            live.reset()
            live.merge(held.since())
            live_ref = TwoSets()
            live_ref.update(held_ref)
        probes = [args[:3]] if kind in ("add", "run", "seen") else []
        for group, client, op_id in probes + [(0, "c0", 1)]:
            for table, ref in ((live, live_ref), (joiner, joiner_ref)):
                assert table.seen(group, client, op_id) == (
                    (group, client, op_id) in ref.ops)
                assert table.seen_anywhere(client, op_id) == (
                    (client, op_id) in ref.ids)
    agree(live, live_ref)
    agree(joiner, joiner_ref)


def test_a_delta_is_immutable_under_later_merges():
    """A segment stays what was written: folding it into the held table
    and growing that table further must not change it."""
    live, held = AppliedOps(), AppliedOps()
    for op_id in range(1, 40):
        live.add(0, "c0", op_id)
    delta = live.since(held)
    before = list(delta)
    held.merge(delta)
    for op_id in range(40, 90):
        live.add(0, "c0", op_id)
    held.merge(live.since(held))
    assert list(delta) == before


def retained(build) -> tuple[int, object]:
    """Bytes ``build()`` allocates and keeps alive, and what it built."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        return tracemalloc.get_traced_memory()[0] - before, built
    finally:
        tracemalloc.stop()


def test_dense_ids_cost_bits():
    """64 clients each number ops 1, 2, 3, … and spread them over 5
    groups, as a sharded cluster does: 50,000 identities in ≤ 64 KiB,
    where the two sets took ~220 B each (≈ 10.5 MiB)."""
    names = [f"client-{c}" for c in range(64)]
    rng = random.Random(7)
    plan = [(rng.randrange(5), names[c], op_id)
            for c in range(64) for op_id in range(1, 50_000 // 64 + 1)]

    def build():
        table = AppliedOps()
        for ident in plan:
            table.add(*ident)
        return table

    nbytes, table = retained(build)
    assert len(table) == len(plan) > 49_900
    assert nbytes <= 64 * 1024, nbytes


def test_a_huge_op_id_allocates_no_bitmap():
    for op_id in (2**63, 2**64 - 1):
        nbytes, table = retained(lambda: _one(op_id))
        assert table.seen(4, "c", op_id) and not table.seen(4, "c", 0)
        assert nbytes < 4 * 1024, nbytes


def _one(op_id) -> AppliedOps:
    table = AppliedOps()
    table.add(4, "c", op_id)
    return table


def test_a_batched_cluster_keeps_bits_per_applied_op():
    """Every replica of a batched run keeps its exactly-once table in
    ≤ 2 B per applied op (the two sets took ~220 B)."""
    c = build_cluster(rs_paxos(5, 1), seed=5, num_clients=8, num_groups=2,
                      batch_max_commands=32)
    c.start()
    c.run(until=1.0)
    tracemalloc.start()
    try:
        for i, cl in enumerate(c.clients):
            driver = ClosedLoopDriver(c.sim, cl, fixed_size_writes(64, 50),
                                      stream=f"d{i}")
            driver.start()
            c.sim.call_at(2.0, driver.stop)
        c.run(until=2.3)
        kept = sum(
            stat.size for stat in
            tracemalloc.take_snapshot().statistics("filename")
            if stat.traceback[0].filename.endswith("dedup.py"))
    finally:
        tracemalloc.stop()
    writes = c.metrics.throughput("write").count
    applied = [len(srv.applied) for srv in c.servers]
    assert writes > 2_000 and applied == [writes] * len(c.servers)
    assert kept <= 2 * sum(applied), kept / sum(applied)
