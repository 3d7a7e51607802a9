"""Golden behaviour pins: client-visible results that must not move.

``test_determinism.py`` shows that two runs *of one commit* agree. These
digests were computed on the commit before the hot-path rewrite (PR 12:
tuple-keyed heap, two-event message hop, lazy WAL checksum) and pin the
same property *across* commits: a host-time optimisation may not move a
single simulated latency sample, message count, delivery or history
entry. A legitimate behaviour change updates the digest in the same
commit and says why.

What is digested is what a client, a message handler or a checker can
observe — results, deliveries, histories — not trace lines, whose timing
is an implementation detail (``lost …`` is emitted when the loss is
drawn, which PR 12 moved from egress completion to send).
"""

import hashlib

import pytest

from repro.bench.experiments.chaos import _wipe_heavy_spec
from repro.chaos import ChaosRunner, ChaosSpec, ScheduleSpec
from repro.chaos import runner as chaos_runner
from repro.check import HistoryRecorder, check_cluster
from repro.core import rs_paxos
from repro.kvstore import build_cluster
from repro.net import LinkSpec, build_network
from repro.sim import Simulator
from repro.workload import ClosedLoopDriver, small_write

from .test_determinism import drive_cluster, run_cluster, write_summary


def digest(obj) -> str:
    """BLAKE2 over ``repr``: floats round-trip exactly, so two objects
    digest alike iff they are equal to the last bit."""
    return hashlib.blake2b(repr(obj).encode(), digest_size=12).hexdigest()


def lossy_duplex_deliveries(seed: int) -> list[tuple]:
    """Every delivery of a lossy, duplicating, jittered A<->B exchange:
    paced sends, then bursts that queue behind each other in the NIC
    (the case where a per-pair RNG stream could be drawn out of order)."""
    sim = Simulator(seed=seed)
    link = LinkSpec(delay_s=0.01, jitter_s=0.004, loss_prob=0.2,
                    dup_prob=0.15, bandwidth_bps=1e6)
    net = build_network(sim, ["A", "B"], link)
    seen: list[tuple] = []
    for host in ("A", "B"):
        net.set_handler(host, lambda env: seen.append(
            (sim.now, env.src, env.dst, env.payload, env.msg_id, env.dup)))
    for i in range(60):
        sim.call_at(i * 0.003, lambda i=i: net.send("A", "B", i, size=100))
        sim.call_at(i * 0.005, lambda i=i: net.send("B", "A", -i, size=40))
    for burst in range(3):
        def fire(burst=burst):
            for j in range(20):
                net.send("A", "B", (burst, j), size=500 + 37 * j)
                net.send("B", "A", (burst, -j), size=10)
        sim.call_at(0.5 + burst * 0.05, fire)
    sim.run()
    seen.append((net.messages_sent, net.messages_delivered,
                 net.messages_dropped))
    return seen


#: Unit-test scale chaos (≈1 s wall each).
TINY = ChaosSpec(
    schedule=ScheduleSpec(fault_window=4.0, mean_gap=0.8),
    settle=3.0, num_clients=2, num_keys=4,
)
#: Same, biased hard toward torn writes, bit-rot and forced scrubs — the
#: episodes that exercise WAL checksums, recovery and share repair.
STORAGE_HEAVY = ChaosSpec(
    schedule=ScheduleSpec(fault_window=4.0, mean_gap=0.5,
                          storage_weights=(6.0, 6.0, 3.0), rot_gap=0.8),
    settle=3.0, num_clients=2, num_keys=4,
)
#: ``bench chaos --wipe-heavy``'s own spec: wipes and rejoins dominate,
#: so the episode runs catch-up, snapshot transfer and the rebuild gate.
WIPE_HEAVY = _wipe_heavy_spec(short=False)


def chaos_history(monkeypatch, spec: ChaosSpec, seed: int):
    """(EpisodeResult, client history) of one episode. ``run_episode``
    keeps its recorder private, so capture the one it constructs."""
    made: list[HistoryRecorder] = []

    class Capturing(HistoryRecorder):
        def __init__(self) -> None:
            super().__init__()
            made.append(self)

    monkeypatch.setattr(chaos_runner, "HistoryRecorder", Capturing)
    result, _ = ChaosRunner(spec=spec, bundle_dir=None).run_episode(seed)
    (recorder,) = made
    return result, recorder.to_jsonable()


def put_delete_history(seed: int, **kw):
    """Four closed-loop clients, each alternating puts and deletes
    (40 % deletes) over six keys for 2 s: the client-observed history,
    the server-side write accounting and the message count."""
    c = build_cluster(rs_paxos(5, 1), seed=seed, num_clients=4,
                      num_groups=2, **kw)
    recorder = HistoryRecorder()
    c.start()
    c.run(until=1.0)
    for cl in c.clients:
        cl.history = recorder
        rng = c.sim.rng.stream(f"golden.{cl.name}")
        sizes = iter(range(64, 1 << 30))

        def loop(*_ignored, cl=cl, rng=rng, sizes=sizes) -> None:
            if c.sim.now >= 3.0:
                return
            key = f"k{int(rng.integers(6))}"
            if float(rng.random()) < 0.4:
                cl.delete(key, on_done=loop)
            else:
                cl.put(key, next(sizes), on_done=loop)

        loop()
    c.run(until=4.0)
    return recorder.to_jsonable(), write_summary(c)


def checkpointed_failover(seed: int):
    """Four closed-loop clients against a cluster that checkpoints every
    0.5 s; the leader crashes at 2.5 s and comes back at 5.0 s from its
    checkpoint + WAL tail, by which time every peer has compacted past
    its cursor, so each group crosses the floor with a snapshot fetch.
    Clients stop at 7.0 s so the run ends quiescent."""
    c = build_cluster(rs_paxos(5, 1), seed=seed, num_clients=4,
                      num_groups=2, checkpoint_interval=0.5)
    recorder = HistoryRecorder()
    c.start()
    c.run(until=1.0)
    for i, cl in enumerate(c.clients):
        cl.history = recorder
        driver = ClosedLoopDriver(c.sim, cl, small_write(num_keys=10),
                                  stream=f"d{i}")
        driver.start()
        c.sim.call_at(7.0, driver.stop)
    c.run(until=2.5)
    victim = c.leader()
    victim.crash()
    c.run(until=5.0)
    victim.recover()
    c.run(until=8.0)
    return c, victim, recorder.to_jsonable()


def hedged_recovery_reads(seed: int):
    """Every branch of the share gatherer behind a read, scrubber off:
    24 keys written through ``P1``, which crashes and comes back a
    follower, so successor ``P2`` holds fragments only and every read
    is a recovery read. Then, in turn: ``P5``'s NIC 50x slower (hedges
    fire and some win); ``P3``'s own shares rotted and follower reads
    sent there (degraded decodes from peers alone); ``P4`` and ``P5``
    down for 7.5 s with reads in flight — ``P2``'s share plus ``P1``'s
    is one short of X and ``P3`` answers "nothing", so each gather
    exhausts its ranked list, cycles every 0.25 s, and decodes once the
    two are back (the clients' own retries start further gathers
    beside it)."""
    c = build_cluster(rs_paxos(5, 1), seed=seed, num_clients=3,
                      num_groups=2, client_timeout=1.0)
    recorder = HistoryRecorder()
    c.start()
    c.run(until=1.0)
    for cl in c.clients:
        cl.history = recorder
    p1, p2, p3, p4, p5 = c.servers

    def each(t, ops_of) -> None:
        """At ``t`` every client issues ``ops_of(client, i)`` in turn."""
        def chain(ops) -> None:
            def step(*_result) -> None:
                if ops:
                    ops.pop(0)(step)
            step()

        for i, cl in enumerate(c.clients):
            c.sim.call_at(t, lambda cl=cl, i=i: chain(ops_of(cl, i)))

    def reads(ns, **kw):
        return lambda cl, i: [
            lambda done, k=f"k{i}.{n}": cl.get(k, on_done=done, **kw)
            for n in ns]

    each(1.0, lambda cl, i: [
        lambda done, n=n: cl.put(f"k{i}.{n}", 3000 + n, on_done=done)
        for n in range(8)])
    c.run(until=2.5)
    p1.crash()
    c.run(until=6.0)
    assert c.leader() is p2
    p1.recover()
    c.run(until=6.5)
    c.net.set_nic_slowdown(p5.name, 50.0)
    each(6.5, reads((0, 1, 2)))
    c.run(until=7.5)
    rng = c.sim.rng.stream("golden.rot")
    while p3.inject_bit_rot(rng):
        pass
    each(7.5, reads((3, 4), mode="follower", server=p3.name))
    c.run(until=8.5)
    c.net.set_nic_slowdown(p5.name, 1.0)
    p4.crash()
    p5.crash()
    each(8.51, reads((5,)))
    c.run(until=16.0)
    p4.recover()
    p5.recover()
    c.run(until=19.0)
    each(19.0, reads((5, 6, 7)))
    c.run(until=22.0)
    return c, recorder.to_jsonable()


class TestGoldenRuns:
    def test_cluster_run(self):
        assert digest(run_cluster(17)) == "b28e3922cc3f00b41c13dc1c"

    def test_batched_cluster_run(self):
        got = run_cluster(17, batch_max_commands=4, batch_linger=0.0005)
        assert digest(got) == "bebd3603cde358c6c39abe68"

    def test_deeply_batched_cluster_run(self):
        """64 closed-loop clients in batches of 32: thousands of RPC
        timers armed and cancelled, so the event heap is compacted many
        times over. Digest computed on the commit before compaction
        (PR 14) existed."""
        got = run_cluster(17, num_clients=64, batch_max_commands=32,
                          batch_linger=0.0005)
        assert got[1] > 5000                          # writes committed
        assert digest(got) == "f3c4207a0cca9647811cf52e"

    def test_queueing_and_shedding_cluster_run(self):
        """16 clients of two tenants (weights 3:1) against a pipeline of
        2 and per-tenant queues of 4: the one golden where the DRR
        queues fill and requests are shed (every other run here stays
        inside its admission budget). Digest computed on the commit
        before admission left ``KVServer`` (PR 15)."""
        c = drive_cluster(17, num_clients=16, max_inflight_proposals=2,
                          max_queued_requests=4, tenant_weights={"a": 3.0},
                          client_tenants=["a", "b"] * 8)
        shed = [sorted(s.requests_shed_by_tenant.items()) for s in c.servers]
        # A request is shed only when its tenant's queue is at its
        # bound, so shedding implies the queues filled.
        assert sum(n for per in shed for _, n in per) > 100
        assert digest((write_summary(c), shed)) == "c66ada6c36691637b020a5a6"

    @pytest.mark.parametrize("kw,want", [
        ({}, "9710e065b90e7605f06e9f0a"),
        ({"batch_max_commands": 4, "batch_linger": 0.0005}, "03bc34b1ebf9c207ded7c315"),
    ], ids=["single", "batched"])
    def test_put_delete_cluster_run(self, kw, want):
        """Puts and deletes interleaved on the same keys, on both write
        paths — pins the event order of the handler the two ops share
        (digest computed while they still had one handler each)."""
        history, summary = put_delete_history(23, **kw)
        assert sum(1 for op in history if op["op"] == "delete") > 100
        assert all(op["ok"] for op in history if op["response"] is not None)
        assert digest((history, summary)) == want

    def test_checkpointed_failover_cluster_run(self):
        """The one cluster golden that checkpoints: leader crash,
        recovery from checkpoint + tail, catch-up across a compaction
        floor. Digests the client history, every server's durable
        footprint and its checkpoint count. The digest taken on the
        commit before PR 20 (``9cac18bcef80bb6a411833c2``) held when
        durable records became shared immutable values, and was
        re-pinned when a checkpoint began to append only what changed:
        the footprint gained ``checkpoint_bytes_written``, and device
        writes an order of magnitude smaller let WAL flushes through
        sooner (2,820 client ops instead of 2,734, same checkpoint
        counts). Re-pinned (from ``1c3cecfded1d74670498a805``) when the
        acceptor's record became the ``Accept`` it granted, the same
        object as its WAL payload: a duplicated or replayed vote is the
        object the checkpoint already holds, so the next segment stops
        re-appending it. Only the victim's checkpoint bytes moved
        (19,167,235 → 19,158,444 stored); the history, every checkpoint
        count and the other four footprints are unchanged."""
        c, victim, history = checkpointed_failover(17)
        saves = [s.checkpoint_store.saves for s in c.servers]
        assert victim.checkpoint_store.saves < min(
            s.checkpoint_store.saves for s in c.servers if s is not victim)
        assert c.metrics.counter("rebuild.snapshot_transfers").value >= 1
        assert all(s.compact_floor == [n.apply_cursor for n in s.groups]
                   for s in c.servers)        # victim caught up, all level
        assert check_cluster(c.servers, c.servers[0].config) == []
        footprints = [sorted(s.durable_footprint().items())
                      for s in c.servers]
        assert digest((history, footprints, saves)) == \
            "4ade09239cd0415d7db45ee3"

    def test_hedged_recovery_reads_cluster_run(self):
        """The one cluster golden that fills the share gatherer: hedges
        issued and won, degraded decodes, a ranked list exhausted and
        cycled. Digest computed on the commit before the gatherer left
        ``KVServer`` (PR 21), with the scrubber off so that moving
        scrub repair onto the same component cannot touch it."""
        c, history = hedged_recovery_reads(17)
        counters = [(s.recovery_reads, s.degraded_reads,
                     s.fetch.hedges_issued, s.fetch.hedge_wins)
                    for s in c.servers]
        assert counters[1][2] > counters[1][3] > 0    # P2 hedged, some won
        assert counters[2][1] == 6                    # P3 read degraded
        late = [op for op in history if op["invoke"] == 8.51]
        assert len(late) == 3 and all(
            op["ok"] and op["response"] > 16.0 for op in late)
        assert all(op["ok"] for op in history)
        assert digest((history, counters, c.net.messages_sent)) == \
            "06ac1b18bacbc2c5ffad9098"

    def test_lossy_duplicating_jittered_network(self):
        seen = lossy_duplex_deliveries(5)
        assert any(s[5] for s in seen[:-1])           # duplicates happened
        assert seen[-1][2] > 0                        # losses happened
        assert digest(seen) == "f2d4604cea9937467fad3780"

    @pytest.mark.parametrize("spec,seed,want", [
        (TINY, 9, "6e40e8b7ca611d1c266d3489"),
        (STORAGE_HEAVY, 8, "404b79e1554c5dd144daaf12"),
        (WIPE_HEAVY, 0, "c465dcff8a3093d813691cc8"),
    ], ids=["mixed", "storage-heavy", "wipe-heavy"])
    def test_chaos_episode(self, monkeypatch, spec, seed, want):
        """Episodes checkpoint every second and digest the result's
        checkpoint bytes, so both were re-pinned with PR 20's
        append-only segments (were ``cc347cfd70031535fa5e2f0c`` and
        ``f0d3d3450d9589f01adbf8cb``, unchanged by the shared immutable
        records that PR landed first). ``storage-heavy`` scrubs, so it
        was re-pinned once more (was ``083ff1223cbaf803f5fe1b8c``) when
        scrub repair took the read path's gather policy in PR 21: the
        client history is identical, ``hedges_issued`` / ``hedge_wins``
        read 4 / 4 instead of 3 / 3 (a scrub hedge that supplies a
        share now counts as won) and the RTT tables lost the samples of
        the fetches a repair no longer sends.

        Both were re-pinned (were ``dd37f91a5c1b9ce9fd0826ce`` and
        ``93a492a9316dcaeed287e912``) when a read stopped keeping a value
        it decoded once (DESIGN.md §4, the read path): a re-read of a key
        decoded once gathers again. ``mixed``: 10 recovery reads instead
        of 9, the same 146 ops (120 ok) with 41 response times moved,
        checkpoint bytes 22,389 → 22,341 (written 26,406 → 26,022).
        ``storage-heavy``: 13 recovery reads instead of 12, the same 132
        ops (126 ok) with 2 response times moved, hedges issued / won
        5 / 5 instead of 4 / 4, checkpoint bytes 22,508 → 22,376
        (written 26,530 → 25,998). Neither episode changed its verdict.

        ``wipe-heavy`` pins the rebuild path (catch-up, snapshot paging,
        missing-value polls, the finish line) before it moved out of
        ``KVServer``: one wipe, five snapshot transfers. It asserts that
        it still wipes and transfers, so a schedule change cannot leave
        the pin exercising nothing."""
        result, history = chaos_history(monkeypatch, spec, seed)
        assert result.ok
        assert len(history) > 100
        if spec is WIPE_HEAVY:
            assert any(e.kind == "wipe" for e in result.schedule)
            assert result.snapshot_transfers >= 1
        assert digest((result.to_jsonable(), history)) == want
