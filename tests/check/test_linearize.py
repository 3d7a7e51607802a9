"""Unit tests for the per-key register linearizability checker."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import HistoryRecorder, OpRecord, check_history, check_key
from repro.kvstore.messages import ClientGet, ClientPut, GetOk, NotFound

_hid = 0


def mk(op, value=None, invoke=0.0, response=None, ok=True, output=None,
       mode=None, observed_nothing=False, key="k"):
    global _hid
    _hid += 1
    return OpRecord(
        hid=_hid, client="c", op=op, key=key, value=value, mode=mode,
        invoke=invoke, response=response, ok=ok, output=output,
        observed_nothing=observed_nothing,
    )


def w(value, invoke, response, ok=True):
    """Put of ``value``; response=None + ok=None means still pending."""
    return mk("put", value=value, invoke=invoke, response=response, ok=ok)


def r(output, invoke, response, ok=True, mode="fast"):
    return mk("get", invoke=invoke, response=response, ok=ok,
              output=output, mode=mode)


class TestSequential:
    def test_write_then_read(self):
        assert check_key("k", [w(1, 0, 1), r(1, 2, 3)]).ok

    def test_read_of_unwritten_value_fails(self):
        assert not check_key("k", [w(1, 0, 1), r(2, 2, 3)]).ok

    def test_stale_read_fails(self):
        hist = [w(1, 0, 1), w(2, 2, 3), r(1, 4, 5)]
        assert not check_key("k", hist).ok

    def test_initial_notfound_read(self):
        assert check_key("k", [r(None, 0, 1)]).ok

    def test_delete_then_notfound(self):
        hist = [
            w(1, 0, 1),
            mk("delete", invoke=2, response=3, ok=True),
            r(None, 4, 5),
        ]
        assert check_key("k", hist).ok

    def test_read_before_any_write_must_see_initial(self):
        assert not check_key("k", [r(1, 0, 1), w(1, 2, 3)]).ok


class TestConcurrency:
    def test_concurrent_read_may_see_either_side(self):
        # Write overlaps the read: both old and new value are legal.
        assert check_key("k", [w(1, 0, 10), r(1, 5, 6)]).ok
        assert check_key("k", [w(1, 0, 10), r(None, 5, 6)]).ok

    def test_concurrent_writes_any_order(self):
        hist = [w(1, 0, 10), w(2, 0, 10), r(1, 11, 12)]
        assert check_key("k", hist).ok
        hist = [w(1, 0, 10), w(2, 0, 10), r(2, 11, 12)]
        assert check_key("k", hist).ok

    def test_real_time_order_enforced(self):
        # w(2) responded before r was invoked; r must not see 1 written
        # even earlier.
        hist = [w(1, 0, 1), w(2, 2, 3), r(1, 4, 5), r(2, 6, 7)]
        assert not check_key("k", hist).ok


class TestMaybeWrites:
    def test_failed_write_may_take_effect_late(self):
        # The client gave up on w(2), but a straggler retry committed it.
        hist = [w(1, 0, 1), w(2, 2, 3, ok=False), r(2, 10, 11)]
        assert check_key("k", hist).ok

    def test_failed_write_may_never_take_effect(self):
        hist = [w(1, 0, 1), w(2, 2, 3, ok=False), r(1, 10, 11)]
        assert check_key("k", hist).ok

    def test_pending_write_explains_read(self):
        hist = [w(1, 0, 1), w(2, 2, None, ok=None), r(2, 10, 11)]
        assert check_key("k", hist).ok

    def test_maybe_write_cannot_take_effect_before_invoke(self):
        # r finished before w(2) was even invoked: 2 was unobservable.
        hist = [r(2, 0, 1), w(2, 2, 3, ok=False), w(1, 4, 5)]
        assert not check_key("k", hist).ok


class TestFiltering:
    def test_failed_reads_constrain_nothing(self):
        hist = [w(1, 0, 1), r(99, 2, 3, ok=False)]
        assert check_key("k", hist).ok

    def test_snapshot_reads_excluded(self):
        hist = [w(1, 0, 1), r(99, 2, 3, mode="snapshot")]
        assert check_key("k", hist).ok

    def test_trivial_key_short_circuits(self):
        res = check_key("k", [w(1, 0, 1, ok=False)])
        assert res.ok and res.checked_ops == 0

    def test_failure_carries_ops_for_bundle(self):
        res = check_key("k", [w(1, 0, 1), r(2, 2, 3)])
        assert not res.ok
        assert len(res.failure_ops) == 2
        assert {o["op"] for o in res.failure_ops} == {"put", "get"}

    def test_state_budget(self):
        hist = [w(i, 0, 100) for i in range(30)]
        hist.append(r(29, 101, 102))
        with pytest.raises(RuntimeError):
            check_key("k", hist, max_states=10)


def brute_force_linearizable(records) -> bool:
    """The register model read straight off: some order of the
    committed writes, the completed reads and any subset of the maybe
    (failed or pending) writes is legal — no op is placed after one
    that was invoked after it responded, and each read sees the last
    write before it. Tries every subset and every permutation."""
    ops, maybe = [], []
    for rec in records:
        if rec.op == "get":
            if rec.completed and rec.ok and rec.mode != "snapshot":
                ops.append(("read", rec.output, rec.invoke, rec.response))
        elif rec.completed and rec.ok:
            ops.append(("write", rec.value, rec.invoke, rec.response))
        else:
            maybe.append(("write", rec.value, rec.invoke, float("inf")))

    def legal(order) -> bool:
        value = None
        for i, (kind, v, invoke, _) in enumerate(order):
            if any(later[3] < invoke for later in order[i + 1:]):
                return False
            if kind == "write":
                value = v
            elif v != value:
                return False
        return True

    return any(
        legal(order)
        for k in range(len(maybe) + 1)
        for extra in itertools.combinations(maybe, k)
        for order in itertools.permutations(ops + list(extra))
    )


@st.composite
def small_histories(draw):
    """Up to 8 ops on one key over a few values, with overlapping
    windows, failed and pending writes, and failed reads."""
    records = []
    for _ in range(draw(st.integers(1, 8))):
        invoke = draw(st.integers(0, 8))
        response = invoke + draw(st.integers(0, 4))
        op = draw(st.sampled_from(["put", "put", "get", "get", "delete"]))
        if op == "get":
            records.append(r(draw(st.sampled_from([None, 1, 2, 3])), invoke,
                             response, ok=draw(st.booleans())))
            continue
        ok = draw(st.sampled_from([True, True, False, None]))
        value = draw(st.integers(1, 3)) if op == "put" else None
        records.append(mk(op, value=value, invoke=invoke,
                          response=None if ok is None else response, ok=ok))
    return records


@st.composite
def maybe_heavy_histories(draw):
    """Up to 8 ops on one key, most writes failed or pending, over two
    values and deletes, so maybe-writes repeat values that reads did
    and did not return."""
    records = []
    for _ in range(draw(st.integers(1, 8))):
        invoke = draw(st.integers(0, 6))
        response = invoke + draw(st.integers(0, 3))
        op = draw(st.sampled_from(["put", "put", "delete", "get", "get"]))
        if op == "get":
            records.append(r(draw(st.sampled_from([None, 1, 2])), invoke,
                             response))
            continue
        ok = draw(st.sampled_from([True, False, None, None]))
        value = draw(st.integers(1, 2)) if op == "put" else None
        records.append(mk(op, value=value, invoke=invoke,
                          response=None if ok is None else response, ok=ok))
    return records


class TestSearch:
    """The search keeps one bit per op and linearizes a read that
    returns the current value as soon as it may go; neither may change
    a verdict."""

    @given(small_histories())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, records):
        assert check_key("k", records).ok == brute_force_linearizable(records)

    def test_concurrent_reads_are_taken_eagerly(self):
        """A write of 2 overlapped by eight reads of the old value and
        eight of the new one, then a read of 3. When nothing explains
        that read, a search that memoizes on which reads are done
        visits every subset of each batch before it gives up: 65,793
        states. Taking reads eagerly leaves one state per value the
        register passes through: 3, or 6 when a pending write of 3
        explains the last read."""
        def history(last):
            hist = [w(1, 0, 1), w(2, 2, 30)]
            hist += [r(1, 2 + j / 10, 30) for j in range(8)]
            hist += [r(2, 2 + j / 10, 30) for j in range(8)]
            return hist + [r(3, 31, 32)] + last

        found = check_key("k", history([w(3, 5, None, ok=None)]))
        assert found.ok and found.states_explored == 6
        refuted = check_key("k", history([]))
        assert not refuted.ok and refuted.states_explored == 3

    @given(maybe_heavy_histories())
    @settings(max_examples=300, deadline=None)
    def test_unobserved_maybe_writes_cut_matches_brute_force(self, records):
        """The search drops every maybe-write whose value no completed
        read returned; the brute force keeps every one of them."""
        assert check_key("k", records).ok == brute_force_linearizable(records)

    def test_unobserved_maybe_writes_are_not_searched(self):
        """Ten concurrent failed writes of values nobody read add no
        state (two: before and after the one write); a maybe-delete
        stays while a read returned NotFound, and is what explains it."""
        hist = [w(1, 0, 1), r(1, 2, 3)]
        hist += [w(10 + j, 4, 5, ok=False) for j in range(10)]
        found = check_key("k", hist + [r(1, 6, 7)])
        assert found.ok and found.states_explored == 2
        delete = mk("delete", invoke=4, response=5, ok=False)
        assert check_key("k", hist + [delete, r(None, 6, 7)]).ok
        assert not check_key("k", hist + [r(None, 6, 7)]).ok


class TestBatchedHistories:
    """Leader-side batching folds several client commands into one
    Paxos instance. To the checker a batch is just a set of concurrent
    ops that all respond at the batch's commit point — but the *apply*
    must still pick one frame order and stick to it."""

    def test_batch_of_two_writes_linearizes_in_frame_order(self):
        # One batch: both writes invoked before commit, both acked at
        # commit. Frame order (1 then 2) means every later read sees 2.
        hist = [
            w(1, 0, 10), w(2, 0, 10),
            r(2, 11, 12, mode="consistent"),
            r(2, 13, 14, mode="consistent"),
        ]
        assert check_key("k", hist).ok

    def test_reverse_frame_order_also_legal(self):
        # The two writes were concurrent, so a frame ordered (2 then 1)
        # is an equally valid linearization — as long as it is stable.
        hist = [
            w(1, 0, 10), w(2, 0, 10),
            r(1, 11, 12, mode="consistent"),
            r(1, 13, 14, mode="consistent"),
        ]
        assert check_key("k", hist).ok

    def test_reordered_batch_replies_flagged(self):
        # A broken batcher that applies the frame in one order but lets
        # reads observe the other produces a flip-flop: after both
        # writes acked, the register reads 2 then 1. No linearization
        # explains that — the checker must flag it.
        hist = [
            w(1, 0, 10), w(2, 0, 10),
            r(2, 11, 12, mode="consistent"),
            r(1, 13, 14, mode="consistent"),
        ]
        res = check_key("k", hist)
        assert not res.ok
        assert len(res.failure_ops) == 4

    def test_batch_ack_contradicting_later_state_flagged(self):
        # Batched replies released in frame order make the two writes
        # *sequential* in real time (w=2 acked before w=1 invoked). A
        # read then seeing the earlier write is a stale read even if
        # both writes shared an instance.
        hist = [w(2, 0, 1), w(1, 2, 3), r(2, 4, 5, mode="consistent")]
        assert not check_key("k", hist).ok

    def test_live_batched_pipeline_history_checks_clean(self):
        # End to end: a client pipelines two same-key writes into one
        # batch; the recorded history (writes + follow-up reads) must
        # pass the checker.
        from repro.core import rs_paxos
        from repro.kvstore import build_cluster
        from repro.net import LinkSpec

        c = build_cluster(
            rs_paxos(5, 1), num_clients=1, num_groups=1, seed=5,
            batch_max_commands=8, batch_linger=0.0005,
            link=LinkSpec(delay_s=0.0001, jitter_s=0.0),
        )
        c.start()
        c.run(until=1.0)
        rec = HistoryRecorder()
        cl = c.clients[0]
        cl.history = rec

        def after_reads(ok, size):
            pass

        cl.put("bk", 101)
        cl.put("bk", 102)
        c.run(until=c.sim.now + 0.5)
        cl.get("bk", mode="consistent", on_done=after_reads)
        c.run(until=c.sim.now + 0.5)
        assert c.metrics.histograms["batch.commands"].samples.max() == 2
        assert sum(1 for o in rec.ops if o.completed) == 3
        assert check_history(rec) == []


class TestRecorder:
    def test_recorder_round_trip(self):
        rec = HistoryRecorder()
        h0 = rec.invoke("c0", "put", ClientPut("a", 64), 0.0)
        rec.complete(h0, True, object(), 1.0)
        h1 = rec.invoke("c0", "get", ClientGet("a"), 2.0)
        rec.complete(h1, True, GetOk("a", 64), 3.0)
        h2 = rec.invoke("c1", "get", ClientGet("b"), 2.0)
        rec.complete(h2, False, NotFound("b"), 3.0)

        a, g, nf = rec.ops
        assert (a.op, a.value, a.ok) == ("put", 64, True)
        assert (g.output, g.ok) == (64, True)
        # NotFound is a successful observation of the empty register
        # even though KVClient reports it as ok=False.
        assert (nf.ok, nf.output, nf.observed_nothing) == (True, None, True)
        assert set(rec.per_key()) == {"a", "b"}
        assert check_history(rec) == []

    def test_check_history_reports_per_key_failures(self):
        rec = HistoryRecorder()
        h = rec.invoke("c0", "get", ClientGet("ghost"), 0.0)
        rec.complete(h, True, GetOk("ghost", 777), 1.0)
        failures = check_history(rec)
        assert [f.key for f in failures] == ["ghost"]
