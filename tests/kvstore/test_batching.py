"""Leader-side command batching: behavior, metamorphic equivalence,
and the per-command service-time EWMA fix.

The metamorphic property is the heart of this module: batching is a
*transport* optimization, so the same seeded workload must produce the
same per-client replies and the same final KV state at every
``batch_max_commands`` setting — batches change how commands travel,
never what they mean.
"""

from __future__ import annotations

from itertools import count

from repro.check import check_cluster
from repro.core import classic_paxos, rs_paxos
from repro.kvstore import BatchItem, build_cluster, frame_size
from repro.net import LinkSpec


def make(batch: int, *, config=None, seed: int = 7, clients: int = 6,
         groups: int = 4, **kw):
    c = build_cluster(
        config or rs_paxos(5, 1),
        num_clients=clients,
        num_groups=groups,
        seed=seed,
        batch_max_commands=batch,
        batch_linger=0.0005,
        **kw,
    )
    c.start()
    c.run(until=1.0)  # leader election settle
    assert c.leader() is not None
    return c


# -- metamorphic: batch size must not change meaning ----------------------


def _scripted_run(batch: int, config=None) -> tuple[dict, dict]:
    """Every client walks a scripted op chain on its own keys; returns
    (per-client reply log, leader-store final state)."""
    c = make(batch, config=config)
    replies: dict[str, list] = {cl.name: [] for cl in c.clients}

    def chain(cl, i: int) -> None:
        ka, kb = f"m{i}-a", f"m{i}-b"
        log = replies[cl.name]

        def s6(ok: bool, size: int) -> None:
            log.append(("get-b-after-del", ok, size))

        def s5(ok: bool) -> None:
            log.append(("del-b", ok))
            cl.get(kb, mode="consistent", on_done=s6)

        def s4(ok: bool, size: int) -> None:
            log.append(("get-a", ok, size))
            cl.delete(kb, on_done=s5)

        def s3(ok: bool) -> None:
            log.append(("put-b", ok))
            cl.get(ka, mode="consistent", on_done=s4)

        def s2(ok: bool) -> None:
            log.append(("put-a2", ok))
            cl.put(kb, 300 + i, on_done=s3)

        def s1(ok: bool) -> None:
            log.append(("put-a1", ok))
            cl.put(ka, 200 + i, on_done=s2)

        cl.put(ka, 100 + i, on_done=s1)

    for i, cl in enumerate(c.clients):
        c.sim.call_soon(lambda cl=cl, i=i: chain(cl, i))
    c.run(until=c.sim.now + 3.0)

    leader = c.leader()
    state = {}
    for key in leader.store.keys():
        e = leader.store.get_entry(key)
        state[key] = (e.size, e.tombstone)
    return replies, state


def test_metamorphic_batch_sizes_agree():
    """Same workload at batch 1 / 4 / 32: identical per-client reply
    sequences and identical final leader state."""
    base_replies, base_state = _scripted_run(1)
    # Sanity on the baseline itself before comparing anything to it.
    for log in base_replies.values():
        assert [step for step, *_ in log] == [
            "put-a1", "put-a2", "put-b", "get-a", "del-b", "get-b-after-del",
        ]
        assert log[3][1] is True          # consistent read succeeded
        assert log[5][1] is False         # deleted key reads as nothing
    for i in range(6):
        assert base_state[f"m{i}-a"] == (200 + i, False)
        assert base_state[f"m{i}-b"][1] is True  # tombstone
    for batch in (4, 32):
        replies, state = _scripted_run(batch)
        assert replies == base_replies, f"replies diverge at batch={batch}"
        assert state == base_state, f"state diverges at batch={batch}"


def test_metamorphic_classic_paxos_too():
    """The equivalence is protocol-independent: classic Paxos batches
    the same way (the frame is just θ(1,N)'s full value)."""
    r1, s1 = _scripted_run(1, config=classic_paxos(5))
    r4, s4 = _scripted_run(4, config=classic_paxos(5))
    assert r4 == r1
    assert s4 == s1


def test_metamorphic_read_sizes_observe_writes():
    """The register trick survives batching: a consistent read after a
    batched overwrite observes the *last* write's unique size."""
    _, state = _scripted_run(32)
    assert [state[f"m{i}-a"][0] for i in range(6)] == [
        200, 201, 202, 203, 204, 205,
    ]


# -- intra-batch ordering -------------------------------------------------


def test_same_key_twice_in_one_batch_applies_in_frame_order():
    # Jitter-free links: the two pipelined puts reach the leader in
    # issue order, so frame order == issue order deterministically.
    c = make(8, clients=1, groups=1,
             link=LinkSpec(delay_s=0.0001, jitter_s=0.0))
    cl = c.clients[0]
    acks: list[bool] = []
    # Issued back-to-back without waiting: both land in one batch.
    cl.put("dup", 11, on_done=acks.append)
    cl.put("dup", 22, on_done=acks.append)
    c.run(until=c.sim.now + 1.0)
    assert acks == [True, True]
    leader = c.leader()
    # Last write in the frame wins — on the leader and on followers'
    # durable mirrors alike.
    assert leader.store.get("dup").size == 22
    # One instance carried both commands.
    hist = c.metrics.histograms["batch.commands"]
    assert hist.samples.tolist() == [2.0]


# -- batch formation + amortization accounting ----------------------------


def test_batch_close_by_count_and_encode_amortization():
    c = make(4, clients=8, groups=1, seed=3)
    done = {"n": 0}
    for i, cl in enumerate(c.clients):
        cl.put(f"amort-{i}", 64, on_done=lambda ok: done.__setitem__(
            "n", done["n"] + (1 if ok else 0)))
    encodes0 = c.metrics.counter("rs.encode_calls").value
    c.run(until=c.sim.now + 1.0)
    assert done["n"] == 8
    encodes = c.metrics.counter("rs.encode_calls").value - encodes0
    assert encodes == 2  # 8 commands / batch_max_commands=4
    assert sum(s.batches_proposed for s in c.servers) == 2
    hist = c.metrics.histograms["batch.commands"]
    assert len(hist) == 2 and hist.mean() == 4.0


def test_batch_close_by_linger_timer():
    """A lone command doesn't wait forever for batch-mates: the linger
    timer closes a partial batch."""
    c = make(32, clients=1, groups=1)
    done = []
    t0 = c.sim.now
    c.clients[0].put("lonely", 64, on_done=done.append)
    c.run(until=c.sim.now + 1.0)
    assert done == [True]
    assert c.metrics.histograms["batch.commands"].samples.tolist() == [1.0]
    # Round trip includes the linger wait but nothing pathological.
    lat = c.metrics.latency("client.put").samples
    assert 0.0005 <= float(lat[0]) - 0.0 < 0.1
    assert c.sim.now > t0


def test_batch_close_by_bytes():
    """The byte cap closes a batch before the count cap is reached."""
    c = build_cluster(
        rs_paxos(5, 1), num_clients=4, num_groups=1, seed=7,
        batch_max_commands=32, batch_max_bytes=2048, batch_linger=0.05,
    )
    c.start()
    c.run(until=1.0)
    done = {"n": 0}
    for i, cl in enumerate(c.clients):
        cl.put(f"big-{i}", 1024, on_done=lambda ok: done.__setitem__(
            "n", done["n"] + (1 if ok else 0)))
    c.run(until=c.sim.now + 1.0)
    assert done["n"] == 4
    hist = c.metrics.histograms["batch.commands"]
    # 1024 B values against a 2 KiB frame cap: no batch holds all 4.
    assert len(hist) >= 2
    assert hist.samples.max() < 4


def test_batch_closes_on_bytes_where_frame_size_says():
    """The leader sizes its pending batch with a running sum; the
    definition of a frame's size is ``frame_size``. They must agree on
    the command at which the byte cap is reached — keys of different
    (and multi-byte) lengths, puts and deletes mixed — and on the size
    of the value proposed."""
    cap = 1500
    c = make(32, clients=1, groups=1, batch_max_bytes=cap,
             link=LinkSpec(delay_s=0.0001, jitter_s=0.0))
    cl = c.clients[0]
    # Pipelined from one client over a jitter-free link: frame order is
    # issue order, and op ids count up from the client's first.
    script = [("put", "k" * (1 + i % 5) + "é" * (i % 3), 90 + 37 * (i % 4))
              if i % 4 else ("delete", f"gone-{i}", 0) for i in range(20)]
    items = [BatchItem(op, key, size, cl.name, i + 1)
             for i, (op, key, size) in enumerate(script)]
    want = next(n for n in range(1, len(items) + 1)
                if frame_size(items[:n]) >= cap)
    assert 2 < want < len(items) - 2  # closes on bytes, not on count
    acks: list[bool] = []
    for op, key, size in script:
        if op == "put":
            cl.put(key, size, on_done=acks.append)
        else:
            cl.delete(key, on_done=acks.append)
    c.run(until=c.sim.now + 1.0)
    assert acks == [True] * len(script)
    assert c.metrics.histograms["batch.commands"].samples[0] == want
    assert (c.metrics.histograms["batch.bytes"].samples[0]
            == frame_size(items[:want]))


# -- admission budget -----------------------------------------------------


def test_inflight_budget_scales_with_batch_size():
    c = make(4, clients=1, max_inflight_proposals=8)
    for s in c.servers:
        assert s.admission.budget == 32
    c1 = make(1, clients=1, max_inflight_proposals=8)
    for s in c1.servers:
        assert s.admission.budget == 8


def test_group_pipeline_cap_sheds_batched_writes():
    """``max_group_pipeline`` holds under batching: with one proposal
    per group in flight, 16 closed-loop clients on one group are shed
    Busy, and every write the cluster acknowledged is applied."""
    c = make(4, clients=16, groups=1, max_group_pipeline=1)
    acked: dict[str, int] = {}
    stop = c.sim.now + 1.0

    def loop(cl, i: int, seq) -> None:
        if c.sim.now >= stop:
            return
        n = next(seq)
        key, size = f"p{i}-{n}", 64 + n

        def done(ok: bool) -> None:
            if ok:
                acked[key] = size
            loop(cl, i, seq)

        cl.put(key, size, on_done=done)

    for i, cl in enumerate(c.clients):
        c.sim.call_soon(lambda cl=cl, i=i: loop(cl, i, count()))
    c.run(until=stop + 1.0)
    assert c.metrics.counter("shard.group_shed").value > 0
    assert len(acked) > 100
    leader = c.leader()
    assert {k: leader.store.get(k).size for k in acked} == acked
    assert check_cluster(c.servers, rs_paxos(5, 1)) == []


# -- the Busy.retry_after EWMA fix ----------------------------------------


def test_service_time_is_per_command_not_per_batch():
    """Regression: a batch of K commands must feed the service-time
    EWMA K samples of span/K, not K samples of the full span —
    otherwise ``Busy.retry_after`` over-delays shed clients ~K×.

    Whole-batch feeding would leave the EWMA ≈ the client-observed
    commit latency; per-command feeding leaves it ≈ latency / K."""
    c = make(4, clients=4, groups=1, seed=11)
    latency = {}
    done = {"n": 0}

    def on_done(ok):
        done["n"] += 1
        latency.setdefault("t", c.sim.now - latency["t0"])

    latency["t0"] = c.sim.now
    for i, cl in enumerate(c.clients):
        cl.put(f"ewma-{i}", 64, on_done=on_done)
    c.run(until=c.sim.now + 1.0)
    assert done["n"] == 4
    leader = c.leader()
    assert c.metrics.histograms["batch.commands"].samples.max() == 4
    # All four EWMA samples were ≈ span/4, so the smoothed value must
    # sit well below the full batch span (allow 2× margin for the
    # client-RTT share of the measured latency).
    assert 0.0 < leader.admission.service_time < latency["t"] / 2
