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

import collections
import hashlib

import pytest

from repro.bench.experiments import selfheal
from repro.bench.experiments.chaos import _wipe_heavy_spec
from repro.bench.experiments.shards import SAFETY_SPEC
from repro.chaos import ChaosRunner, ChaosSpec, ScheduleSpec
from repro.chaos import runner as chaos_runner
from repro.check import HistoryRecorder, check_cluster
from repro.core import rs_paxos
from repro.kvstore import build_cluster
from repro.kvstore.messages import NotReady, ReadIndexReply
from repro.net import LinkSpec, build_network
from repro.rpc import Batch, Reply, Request
from repro.rpc.mux import ChannelMsg
from repro.sim import Simulator
from repro.workload import ClosedLoopDriver, small_write

from .test_determinism import BATCHED, drive_cluster, run_cluster, write_summary


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


def selfheal_ladder(monkeypatch):
    """Phase 1 of ``bench selfheal``: three permanent kills (a follower,
    the leader, a follower), each evicted by the repair controller and
    its spare re-admitted. Returns what the phase returns, the client
    history, and per server the eviction and re-admission events and
    the view it ends in."""
    made: dict = {}

    class Capturing(HistoryRecorder):
        def __init__(self) -> None:
            super().__init__()
            made["recorder"] = self

    def build(*args, **kw):
        made["cluster"] = build_cluster(*args, **kw)
        return made["cluster"]

    monkeypatch.setattr(selfheal, "HistoryRecorder", Capturing)
    monkeypatch.setattr(selfheal, "build_cluster", build)
    problems, ttrs = selfheal._permanent_failure_ladder()
    servers = made["cluster"].servers
    views = [(s.repair.eviction_events, s.repair.replacement_events,
              s.view_epoch, sorted(s.member_ids)) for s in servers]
    return (problems, ttrs, made["recorder"].to_jsonable(), views,
            made["cluster"].net.messages_sent)


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
    while p3.scrubber.rot(rng):
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


#: The eight counters of the read path, per server.
READ_COUNTERS = ("fast_reads", "consistent_reads", "snapshot_reads",
                 "follower_reads", "read_index_rounds", "read_index_served",
                 "recovery_reads", "degraded_reads")


def read_modes(seed: int):
    """All four read modes through a leader failover, batching on (4
    commands, 0.5 ms linger). ``P1`` leads: a fast read, a lone
    consistent read (a batch of one), a follower read sent to the
    leader itself, snapshot and follower reads at the share-only
    follower ``P3``, then twelve concurrent consistent reads that batch.
    Writes are in flight when ``P1`` crashes at 2.0 s; it is back at
    2.2 s, no longer leader, and refuses ``P3``'s read-index rounds
    until ``P2`` wins at 4.05 s. Reads sent to ``P2`` in the 3 ms after
    it wins are refused: its apply cursor has not yet passed its
    election read barrier. Last, ``P2`` reads ``k7`` twice: the first
    decode keeps nothing, the second keeps the value.

    Returns the cluster, the client history, the refusals servers sent
    (``NotReady`` and ``ReadIndexReply(ok=False)``, by sender and time)
    and whether ``P2`` held ``k7`` complete before, between and after
    its two reads."""
    c = build_cluster(rs_paxos(5, 1), seed=seed, num_clients=3,
                      num_groups=2, client_timeout=1.0,
                      batch_max_commands=4, batch_linger=0.0005)
    recorder = HistoryRecorder()
    refusals: collections.Counter = collections.Counter()
    send = c.net.send

    def observe(src, dst, payload, size, *rest, **kw):
        bodies = [payload]
        while bodies:
            body = bodies.pop()
            if isinstance(body, (Request, Reply, ChannelMsg)):
                bodies.append(body.body)
            elif isinstance(body, Batch):
                bodies.extend(body.items)
            elif isinstance(body, NotReady) or (
                    isinstance(body, ReadIndexReply) and not body.ok):
                refusals[(src, type(body).__name__, c.sim.now)] += 1
        return send(src, dst, payload, size, *rest, **kw)

    c.net.send = observe
    c.start()
    c.run(until=1.0)
    for cl in c.clients:
        cl.history = recorder
    p1, p2, p3, p4, _ = c.servers
    a, b, d = c.clients

    def chain(t, ops) -> None:
        def step(*_result) -> None:
            if ops:
                ops.pop(0)(step)
        c.sim.call_at(t, step)

    def get(cl, key, mode="fast", server=None):
        return lambda done: cl.get(key, mode=mode, server=server,
                                   on_done=done)

    def put(cl, key, size):
        return lambda done: cl.put(key, size, on_done=done)

    chain(1.0, [put(a, f"k{i}", 1000 + i) for i in range(8)])
    chain(1.5, [get(a, "k0"), get(a, "k1", "consistent"),
                get(a, "k0", "follower", p1.name),
                get(a, "k2", "snapshot", p3.name),
                get(a, "k3", "follower", p3.name)])
    for cl in c.clients:
        chain(1.7, [get(cl, f"k{j}", "consistent") for j in range(4)])
    for i, cl in enumerate((b, d)):
        chain(1.9, [put(cl, f"w{i}.{j}", 500) for j in range(40)])
    c.run(until=2.0)
    p1.crash()
    c.sim.call_at(2.2, p1.recover)
    chain(2.0, [get(a, "k4"), get(a, "k4", "follower", p3.name),
                get(a, "k4", "consistent"), get(a, "k4", "snapshot", p4.name)])
    for n in range(40):
        cl = c.clients[n % 3]
        c.sim.call_at(2.0 + 0.1 * n, lambda cl=cl: cl.get(
            "k5", mode="follower", server=p3.name))
        c.sim.call_at(2.0 + 0.1 * n, lambda cl=cl: cl.get("k6"))
    for n, t in enumerate((4.0534, 4.054, 4.0546, 4.0552)):
        cl = c.clients[n % 3]
        c.sim.call_at(t, lambda cl=cl: cl.get("k6", server=p2.name))
        c.sim.call_at(t, lambda cl=cl: cl.get(
            "k6", mode="follower", server=p2.name))
        c.sim.call_at(t, lambda cl=cl: cl.get(
            "k5", mode="follower", server=p3.name))
    kept = []
    for t in (7.0, 7.2):
        c.run(until=t)
        kept.append(p2.store.get_entry("k7").complete)
        chain(t, [get(a, "k7")])
    c.run(until=7.4)
    kept.append(p2.store.get_entry("k7").complete)
    return c, recorder.to_jsonable(), refusals, kept


class TestGoldenRuns:
    def test_cluster_run(self, cluster_run):
        assert digest(cluster_run(17)) == "b28e3922cc3f00b41c13dc1c"

    def test_batched_cluster_run(self, cluster_run):
        """Re-pinned when a batch of one became the plain command: 2,137
        of this run's 3,138 batches close with one command and no
        longer pay the frame, so values and latencies shrink."""
        got = cluster_run(17, **BATCHED)
        assert digest(got) == "d4fa0289c39c8b276ffbdcc0"

    def test_deeply_batched_cluster_run(self):
        """64 closed-loop clients in batches of 32: thousands of RPC
        timers armed and cancelled, so the event heap is compacted many
        times over. Digest computed on the commit before compaction
        existed, re-pinned when a batch of one became the plain command
        (2,835 of 6,581 batches closed with one command). Re-pinned
        (from ``9100d0a3e9889066e5cfe1ae``) when a client began to ask a
        peer who leads once an op waits past its RTO: 122 probes went
        out, every one answered by naming the leader the op waited at,
        so no op moved; only the message count changed (91,850 →
        92,094, two per probe); every write and latency is the same."""
        got = run_cluster(17, num_clients=64, batch_max_commands=32,
                          batch_linger=0.0005)
        assert got[1] > 5000                          # writes committed
        assert digest(got) == "0bb18c5a483a1919a192c82c"

    def test_queueing_and_shedding_cluster_run(self):
        """16 clients of two tenants (weights 3:1) against a pipeline of
        2 and per-tenant queues of 4: the one golden where the DRR
        queues fill and requests are shed (every other run here stays
        inside its admission budget). Digest computed on the commit
        before admission left ``KVServer``. Re-pinned (from
        ``c66ada6c36691637b020a5a6``) when a client began to ask a peer
        who leads once an op waits past its RTO: 5 probes, each naming
        the leader, so no op moved; only the message count changed
        (36,071 → 36,081); every write, latency and shed is the same."""
        c = drive_cluster(17, num_clients=16, max_inflight_proposals=2,
                          max_queued_requests=4, tenant_weights={"a": 3.0},
                          client_tenants=["a", "b"] * 8)
        shed = [sorted(s.requests_shed_by_tenant.items()) for s in c.servers]
        # A request is shed only when its tenant's queue is at its
        # bound, so shedding implies the queues filled.
        assert sum(n for per in shed for _, n in per) > 100
        assert digest((write_summary(c), shed)) == "dc0aa43ce528becf2c5c36d9"

    @pytest.mark.parametrize("kw,want", [
        ({}, "9710e065b90e7605f06e9f0a"),
        ({"batch_max_commands": 4, "batch_linger": 0.0005}, "7fad05f0caca36733949b98b"),
    ], ids=["single", "batched"])
    def test_put_delete_cluster_run(self, kw, want):
        """Puts and deletes interleaved on the same keys, unbatched and
        batched — pins the event order of the handler the two ops share
        (digests computed while they still had one handler each; the
        batched one re-pinned when a batch of one became the plain
        command)."""
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
        count and the other four footprints are unchanged. Re-pinned
        (from ``4ade09239cd0415d7db45ee3``) when a segment stopped
        carrying the records its own save retires and the state part
        began to hold the checkpoint's shares by reference (DESIGN.md
        §5): checkpoint bytes written fell 20-21 MB → 0.77-1.40 MB per
        server, and the smaller device writes let WAL flushes through
        sooner (2,826 client ops instead of 2,820, all ok; the same
        checkpoint counts). Re-pinned (from ``5b3862db14d8afbb0b42a56e``)
        when a client whose request timed out began to walk on from the
        server after the one that timed out: the lease (2 s) is as long
        as the client timeout, so at the first timeout the followers
        still hold the crashed leader's lease and redirect back to it,
        and each of the four in-flight ops pays the same two timeouts
        as before, a redirect hop later (longest op 4.003 → 4.035 s;
        2,800 client ops instead of 2,826, all ok; the same checkpoint
        counts). Re-pinned (from ``064f02df83d057bc41c77b9f``) when a
        client began to ask a peer who leads once an op waits past its
        RTO: after its first timeout each in-flight op is redirected
        back to the crashed leader, and there the probe learns of the
        successor as soon as it is elected, instead of a second client
        timeout (client timeouts 8 → 4, 52 probes, 4 ops moved; longest
        op 4.035 → 2.718 s). The clients resume sooner: 4,672 client ops
        instead of 2,800, all ok; the same checkpoint counts).
        Re-pinned (from ``2dae984f7043a77b1d8cc3a0``) when an endpoint
        began to probe a silent peer with one request instead of
        retransmitting every Accept into it: while the victim is down
        the successor parks its Accepts to it behind one probe, and
        sends each once more when the victim is heard from again
        (retransmissions 107 → 47). The freed NIC time lets the
        clients finish 4,694 client ops instead of 4,672, all ok
        (47,776 → 47,968 messages, longest op 2.7181 → 2.7180 s); the
        same checkpoint counts, and every footprint's checkpoint bytes
        move with the extra writes. Re-pinned (from
        ``2bdeac5220b9d8e1f49bceb8``) when a finished prepare began to
        cancel its outstanding Prepares: the 2 Prepare retransmissions
        are gone, 47,968 → 47,946 messages, and the re-timed run ends at
        4,691 client ops instead of 4,694, all ok; the same checkpoint
        counts (``P2`` writes 2,406,631 → 1,985,573 checkpoint
        bytes). Re-pinned (from ``8fbcd4d18b4483b052f830c3``) when an
        endpoint began to re-arm a silent peer's probe and parked
        requests at the peer's RTO once it is heard, instead of at
        their backed-off intervals: the successor's parked Accepts
        reach the returning victim sooner (the same 45
        retransmissions; 47,946 → 47,922 messages), and the re-timed
        run ends at 4,687 client ops instead of 4,691, all ok (longest
        op 2.7180 → 2.7181 s); the same checkpoint counts (``P2``
        writes 1,985,573 → 2,272,796 checkpoint bytes). Re-pinned (from
        ``b5605f5dbb3f651471db9ffe``) when a checkpoint began to hold the
        leader's complete values by reference to its own votes instead
        of rewriting them at every save (DESIGN.md §5, the charge rule):
        the victim writes 1,049,865 → 699,712 checkpoint bytes and the
        successor ``P2`` 2,272,796 → 986,816 (984,400 stored instead of
        1,175,396); the followers' footprints are unchanged. The smaller
        device writes re-time 137 responses by under 0.003 ms; the same
        4,687 client ops, all ok, the same messages and checkpoint
        counts. Re-pinned (from ``ce22b13347dd3b984be0c492``) when a
        crash began to end everything its host started (DESIGN.md §4
        "The crash rule"): the victim's 15 Accepts in flight at its
        crash are no longer retransmitted once it is back, and it
        measures its peers' RTTs afresh. The re-timed run ends at 4,695
        client ops instead of 4,687, all ok (47,922 → 47,974 messages,
        longest op 2.71808 → 2.71815 s); the same checkpoint counts
        (the victim writes 699,712 → 743,212 checkpoint bytes, ``P2``
        986,816 → 889,599). Re-pinned (from
        ``56831669c6293f5f7b878549``) when a follower began to elect the
        instant its lease lapses instead of at the next monitor tick
        (DESIGN.md §4 "Periodic jobs"): ``P2`` wins at 4.554 s instead
        of 5.004, so the clients resume 0.45 s sooner: 5,469 client ops
        instead of 4,695, all ok (longest op 2.718 → 2.133 s, 47,974 →
        56,284 messages); the same checkpoint counts, and every
        footprint's checkpoint bytes move with the extra writes."""
        c, victim, history = checkpointed_failover(17)
        saves = [s.checkpoint_store.saves for s in c.servers]
        assert victim.checkpoint_store.saves < min(
            s.checkpoint_store.saves for s in c.servers if s is not victim)
        assert c.metrics.counter("rebuild.snapshot_transfers").value >= 1
        assert all(n.retired_below == n.apply_cursor
                   for s in c.servers for n in s.groups)        # victim caught up, all level
        assert check_cluster(c.servers, c.servers[0].config) == []
        footprints = [sorted(s.durable_footprint().items())
                      for s in c.servers]
        assert digest((history, footprints, saves)) == \
            "8e205579f8f999ea769a305c"

    def test_hedged_recovery_reads_cluster_run(self):
        """The one cluster golden that fills the share gatherer: hedges
        issued and won, degraded decodes, a ranked list exhausted and
        cycled. Digest computed on the commit before the gatherer left
        ``KVServer`` (PR 21), with the scrubber off so that moving
        scrub repair onto the same component cannot touch it.
        Re-pinned (from ``06ac1b18bacbc2c5ffad9098``) when a client whose
        request timed out began to walk on from the server after the one
        that timed out: reads that time out at ``P2`` while ``P4`` and
        ``P5`` are down go to ``P3``, which redirects them straight back,
        where they used to walk on into the two dead servers (a 1 s
        timeout each). More retries reach ``P2`` and start gathers there
        (``P2`` recovery reads 33 → 39, hedges issued 29 → 35, the same
        6 won; 1,329 → 1,477 messages), and the longest read falls
        7.751 → 7.546 s; every op is ok. Re-pinned (from
        ``68996d4fed51120432e87111``) when a client began to ask a peer
        who leads once an op waits past its RTO: reads waiting on
        ``P2``'s gathers send 138 probes to ``P3``, which names ``P2``
        every time, so no read moves (1,477 → 1,753 messages; the
        longest read 7.5459 → 7.5458 s as the probes re-time the NICs;
        every read counter the same). Re-pinned (from
        ``46b972c1adb6af1e63deeb3d``) when an endpoint began to probe a
        silent peer with one request instead of retransmitting every
        unbounded request into it: of ``P2``'s Prepares to the downed
        ``P4`` and ``P5``, 4 are retransmitted instead of 6 (1,753 →
        1,751 messages); the history and every read counter are
        unchanged. Re-pinned (from ``f722985143f888e755dc2ef1``) when a
        finished prepare began to cancel its outstanding Prepares: no
        Prepare is retransmitted (4 → 0, 1,751 → 1,745 messages), and
        three responses move by under 0.001 ms; every read counter is
        unchanged. Re-pinned (from ``732089d32b5560c81009f988``) when a
        follower began to elect the instant its lease lapses instead of
        at the next monitor tick: ``P2`` wins at 4.553 s instead of
        5.003, before the scripted reads that fill its gatherer, so the
        same 51 reads, all ok, with every read counter unchanged; the
        earlier election re-times the run (1,745 → 1,752 messages,
        longest read 7.5458 → 7.5459 s)."""
        c, history = hedged_recovery_reads(17)
        counters = [(s.reads.recovery_reads, s.reads.degraded_reads,
                     s.fetch.hedges_issued, s.fetch.hedge_wins)
                    for s in c.servers]
        assert counters[1][2] > counters[1][3] > 0    # P2 hedged, some won
        assert counters[2][1] == 6                    # P3 read degraded
        late = [op for op in history if op["invoke"] == 8.51]
        assert len(late) == 3 and all(
            op["ok"] and op["response"] > 16.0 for op in late)
        assert all(op["ok"] for op in history)
        assert digest((history, counters, c.net.messages_sent)) == \
            "15e924e972b1f5900cc44014"

    def test_read_modes_cluster_run(self):
        """The one cluster golden that drives every read mode and the
        election read barrier. Digests the history, every server's
        read counters, the clients' retry causes and the refusals.
        Digest computed on the commit before the read path left
        ``KVServer``. Re-pinned (from ``349d0b49a0eeab884f7d03e8``) when
        a client whose request timed out began to walk on from the
        server after the one that timed out: ops that time out at the
        crashed ``P1`` retry at ``P2`` instead of ``P1`` again (longest
        op 3.328 → 3.234 s, ``not_leader`` retries 199 → 200, 2,595 →
        2,605 messages); as many ops, all ok, and as many refusals.
        Re-pinned (from ``ca2e2872bd4dc19dd9a5cfc1``) when a client
        began to ask a peer who leads once an op waits past its RTO: 13
        probes, none naming another leader, so no op moved; they re-time
        the run slightly (2,605 → 2,633 messages, one more ``NotReady``
        refusal and ``not_ready`` retry, longest op 3.2342 → 3.2343 s);
        the same 203 ops, all ok. Re-pinned (from
        ``06995b37793e62ff64867367``) when an endpoint began to probe a
        silent peer with one request instead of retransmitting every
        Accept into it: the crashed ``P1``'s own in-flight Accepts
        (which its dead NIC drops) retransmit 25 times instead of 40,
        and after it recovers each goes out once instead of on its own
        timer. Two responses and 22 refusals move by under 0.04 ms; the
        same 203 ops, all ok, the same counters and retry causes, and
        2,633 messages. Re-pinned (from ``a8b1afe7e77d6207c35af553``)
        when an endpoint began to re-arm a silent peer's probe and
        parked requests at the peer's RTO once it is heard, instead of
        at their backed-off intervals: three responses and 33 refusals
        move by under 0.07 ms; everything else as before. Re-pinned
        (from ``c72bbc280cebc95ebe9a0be4``) when a follower whose apply
        cursor stands for a monitor tick on an instance it holds no
        record of, with a later one learned, began to ask peers for it:
        the crashed ``P1`` never sent the Commits of group 0 instance
        34 and group 1 instance 39 after those of 35 and 40, so through
        the leaderless window every follower polls for them every
        0.5 s until ``P2`` re-drives them (2,633 → 2,819 messages, one
        more ``NotReady`` refusal and ``not_ready`` retry, 84 responses
        move by under 0.1 ms); the same 203 ops, all ok, and the same
        read counters. Re-pinned (from ``1d23d30444492e6cf7fbd4b5``)
        when a crash began to end everything its host started
        (DESIGN.md §4 "The crash rule"): before, the recovered ``P1``
        finished two of its ten pre-crash Accept rounds (group 0
        instance 35, group 1 instance 40) at its pre-crash ballot at
        2.2228 s — no follower had promised a higher one before
        ``P2``'s election — and their Commits left the followers polling
        for 34 and 39. Those rounds now end with the crash: 2,819 →
        2,625 messages, one fewer ``NotReady`` refusal and
        ``not_ready`` retry, 84 responses move by under 0.1 ms; the
        same 203 ops, all ok, and the same read counters. Re-pinned
        (from ``c0c427626348c8f40bd6dfdf``) when a follower began to
        elect the instant its lease lapses instead of at the next
        monitor tick: ``P2`` heard ``P1``'s last heartbeat at 2.0001 s
        and wins at 4.053 s instead of 4.503, so the four scripted reads
        to ``P2`` that land before its election read barrier moved with
        it, 0.4498 s earlier (4.5032-4.505 → 4.0534-4.0552 s). The
        leaderless window is 0.45 s shorter: 2,625 → 2,397 messages,
        244 → 179 refusals, ``not_leader`` retries 200 → 148 and
        ``not_ready`` 127 → 94, longest op 3.234 → 2.544 s; the same
        203 ops, all ok, and the same read counters."""
        c, history, refusals, kept = read_modes(17)
        p1, p2, p3 = c.servers[:3]
        assert c.leader() is p2
        assert kept == [False, False, True]          # kept on the 2nd read
        assert all(op["ok"] for op in history)
        by = collections.Counter((src, kind) for src, kind, _ in refusals)
        assert by[("P1", "ReadIndexReply")] > 0      # deposed, not leader
        assert by[("P2", "ReadIndexReply")] > 0      # before its barrier
        assert any(src == "P2" and kind == "NotReady" and 4.05 < t < 4.06
                   for src, kind, t in refusals)     # fast read refused
        counters = [tuple(getattr(s.reads, n) for n in READ_COUNTERS)
                    for s in c.servers]
        assert counters[0][1] > 4                    # batched consistent
        assert counters[2][2] and counters[2][3]     # snapshot + follower
        assert digest((history, counters,
                       [sorted(cl.read_retry_causes.items())
                        for cl in c.clients],
                       sorted(refusals.items()), c.net.messages_sent)) == \
            "fb7a604e3801ffd1c79e7746"

    def test_lossy_duplicating_jittered_network(self):
        seen = lossy_duplex_deliveries(5)
        assert any(s[5] for s in seen[:-1])           # duplicates happened
        assert seen[-1][2] > 0                        # losses happened
        assert digest(seen) == "f2d4604cea9937467fad3780"

    def test_selfheal_permanent_failure_ladder(self, monkeypatch):
        """The one golden that evicts and re-admits members: three
        removal and three re-admission view changes, one of them driven
        by a successor after the sitting leader was killed. Digest
        computed before the view change and the shard migration moved
        into one reconfiguration driver. Re-pinned (from
        ``640513684a3b308c2d132dba``) when an endpoint began to probe a
        silent peer with one request instead of retransmitting every
        Accept into it: Accept retransmissions into the three killed
        members fall 8,705 → 2,673 (51,826 → 45,774 messages). The same
        evictions, re-admissions and views, each at the same time, the
        same times to full redundancy (10.75 s), and the same 4,821
        ops, all ok, with their responses re-timed. Re-pinned (from
        ``4af83fa430b5f814dd509248``) when a finished prepare began to
        cancel its outstanding Prepares: Prepare retransmissions 8 → 0,
        45,774 → 45,735 messages; the same views, times to full
        redundancy and 4,821 ops, all ok. Re-pinned (from
        ``989535806c83f5b97015358d``) when an endpoint began to re-arm
        a silent peer's probe and parked requests at the peer's RTO
        once it is heard, instead of at their backed-off intervals:
        Accept retransmissions 2,675 → 2,735 (45,735 → 45,736
        messages); the same views and times to full redundancy, and
        4,815 ops instead of 4,821, all ok (longest op 2.528 →
        2.548 s). Re-pinned (from ``b2141887e91e07441fd8a016``) when a
        crash began to end everything its host started (DESIGN.md §4
        "The crash rule"): the killed leader's 5 Accepts in flight are
        retired with it and each killed member forgets its RTT
        estimates. 45,736 → 45,725 messages; the same views, times to
        full redundancy and 4,815 ops, all ok, 2,477 of them re-timed
        by under 3.3 ms. Re-pinned (from ``83e445b27fa3ea7082d49258``)
        when a follower began to elect the instant its lease lapses
        instead of at the next monitor tick: after the leader ``P1`` is
        killed at 19 s, ``P2`` wins at 21.053 s instead of 21.503 and
        evicts ``P1`` at 27.0 s instead of 27.5, so its 1 s spare probes
        fall on whole seconds: the one at 28.0 s, the instant the spare
        is back, finds it still rebuilding, the next sees it rebuilt at
        29.0 s instead of 28.5, and it is re-admitted at 30.0 s instead
        of 29.5. That cycle's
        time to full redundancy reads 11.25 s instead of 10.75 (the
        other two, and the median, 10.75 as before); the same views,
        4,861 ops instead of 4,815, all ok (45,725 → 45,917 messages,
        longest op 2.548 → 2.127 s)."""
        problems, ttrs, history, views, messages = selfheal_ladder(
            monkeypatch)
        assert problems == [] and len(ttrs) == 3
        assert sum(len(ev) for ev, _, _, _ in views) == 3
        assert sum(len(re) for _, re, _, _ in views) == 3
        assert digest((problems, ttrs, history, views, messages)) == \
            "3f236309d9210ad56ba5a6ff"

    def test_migration_chaos_episode(self, monkeypatch):
        """Seed 0 of the shards gate's migration safety ladder: the
        rebalancer's five splits and two merges, each a migration driven
        from the replicated map's marker, under a crash, two partitions
        and slow nodes and disks. Digest computed before the view change
        and the shard migration moved into one reconfiguration driver
        (``ca509a0f3eb4797d12e3081c``, four splits and one merge).
        Re-pinned when an endpoint began to probe a silent peer with
        one request instead of retransmitting every Accept into it:
        Accept retransmissions fall 773 → 168, which re-times the
        rebalancer: 7 migrations instead of 5 (5 splits and 2 merges;
        15 copies proposed instead of 10, 3 fence writes instead of 2,
        2 wrong-shard replies instead of 0, map version 14 instead of
        10) and 571 ops instead of 525 (566 ok instead of 519); read
        availability 1.0 both. Re-pinned (from
        ``d109d92ea51d1380ad36ab93``) when an endpoint began to re-arm
        a silent peer's probe and parked requests at the peer's RTO
        once it is heard, instead of at their backed-off intervals:
        the same 7 migrations (16 copies proposed instead of 15, one
        fence write instead of 3, 4 wrong-shard replies instead of 2),
        659 ops instead of 571 (656 ok instead of 566). Re-pinned (from
        ``9d7507c2f7acfe4ed2edb4a3``) when a follower whose apply cursor
        stands for a monitor tick on an instance it holds no record of,
        with a later one learned, began to ask peers for it: the same
        7 migrations (2 wrong-shard replies instead of 4), snapshot
        transfers 5 → 9 (a polled peer that compacted the instance
        answers with its floor), 649 ops instead of 659 (646 ok instead
        of 656); read availability 1.0 both. Re-pinned (from
        ``3219c3826b3d3f912d513264``) when a checkpoint began to hold the
        leader's complete values by reference to its own votes:
        checkpoint bytes 47,959 → 47,321 (written 58,415 → 53,185); the
        smaller device writes re-time 96 of the same 649 ops by under
        0.07 ms, and every other field of the result is unchanged.
        Re-pinned (from ``fcadee3701a436815d94e745``) when a crash began
        to end everything its host started (DESIGN.md §4 "The crash
        rule"): the crashed ``P2`` had no request in flight, but its two
        RTT estimates are volatile now and restart empty, which re-ranks
        its fetch sources: the same 7 migrations, 647 ops instead of
        649 (644 ok instead of 646), hedges issued / won 6 / 5 → 15 /
        14, one fence write → none; read availability 1.0 both."""
        result, history = chaos_history(monkeypatch, SAFETY_SPEC, 0)
        assert result.ok and result.migrations_completed == 7
        assert digest((result.to_jsonable(), history)) == \
            "3e6582ca0738cbd6883558fb"

    @pytest.mark.parametrize("spec,seed,want", [
        (TINY, 9, "7c6c1d8fe33438a3cf90adc9"),
        (STORAGE_HEAVY, 8, "08f9977b6caed17549a17a2a"),
        (WIPE_HEAVY, 0, "88ea42487e1a59bb4f24f686"),
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
        the pin exercising nothing.

        All three were re-pinned (were ``6e40e8b7ca611d1c266d3489``,
        ``404b79e1554c5dd144daaf12`` and ``c465dcff8a3093d813691cc8``)
        when a durable checkpoint began to retire the records below its
        floor that no stored version names (DESIGN.md §5). ``mixed``:
        the same 146 ops and response times; a new leader whose read
        quorum held a retirement floor above its cursor caught up by
        snapshot instead of re-driving the instances below it (0 → 1
        snapshot transfers, 125 rebuild bytes), so fewer records reached
        the segments (checkpoint bytes 22,341 → 22,117); rot injection
        draws from retained votes only, and the scrubber quarantines a
        retired one instead of repairing it (1 → 0 shares repaired).
        ``storage-heavy``: the same two rules (4 → 1 shares repaired,
        repair bytes 279 → 78); 6 of 132 ops moved in time by under
        0.1 ms.
        ``wipe-heavy``: retirement re-times the episode (1,272 → 1,266
        ops, all completed; rebuild bytes 4,278 → 3,417; read
        availability 0.9919 both). Every verdict is unchanged.

        All three were re-pinned again (were ``6fe00687a3b47269f4c694d4``,
        ``76882d198a63d63795a94564`` and ``e64dbe6f2fcbe18fa61cc601``)
        when a segment stopped carrying the records its own save retires
        and the state part began to hold the checkpoint's shares by
        reference, and the result gained ``value_bytes_committed``
        (3,172, 3,092 and 51,843 B). Each client history is identical;
        of the old fields only the checkpoint bytes moved. Stored /
        written: ``mixed`` 22,117 / 25,798 → 8,903 / 11,928,
        ``storage-heavy`` 22,201 / 25,823 → 9,214 / 12,052,
        ``wipe-heavy`` 222,159 / 275,495 → 118,635 / 150,601.

        All three were re-pinned again (were ``d05f0dd20223026475071fbc``,
        ``14a95e86a9b51a9faf79d4ef`` and ``69cbc05201519c956a425191``)
        when a client whose request timed out began to walk on from the
        server after the one that timed out, instead of from the first
        server in its list. The faults re-time the clients, so the op
        counts move; every verdict is unchanged. ``mixed``: 146 → 148
        ops (120 → 122 ok), read timeouts 31 → 27, ops over 0.9 s 7 → 4.
        ``storage-heavy``: 132 → 131 ops (126 → 125 ok), read timeouts
        7 → 11, read availability 0.986 → 0.973, shares repaired 1 → 2.
        ``wipe-heavy``: 1,266 → 1,310 ops (1,261 → 1,306 ok), read
        timeouts 70 → 67, read availability 0.9919 → 0.9937, rebuild
        bytes 3,417 → 4,006, hedges issued / won 11 / 10 → 21 / 18.

        All three were re-pinned again (were ``3437d4cb72811bbbcac0b2a8``,
        ``70d10b001baf7cab9a7819ba`` and ``63a5399c9f3fd436af863cab``)
        when a client began to ask a peer who leads once an op waits
        past its RTO, and to move every op waiting at the suspect when
        the answer names another server. Every verdict is unchanged.
        ``mixed``: 84 probes, 20 ops moved, client timeouts 81 → 75,
        longest op 1.500 → 1.387 s; the same 148 ops (122 → 121 ok).
        ``storage-heavy``: 56 probes, 5 ops moved, client timeouts
        27 → 24, 131 → 141 ops (125 → 135 ok), ops over 0.9 s 4 → 0.
        ``wipe-heavy``: 24 probes, 1 op moved, client timeouts 71 → 74,
        1,310 → 1,259 ops (1,306 → 1,254 ok), snapshot transfers 5 → 4,
        read availability 0.9937 → 0.9919.

        All three were re-pinned again (were ``e911d27d041a212bc7093ce7``,
        ``33cf760ff3bb58b82f648c98`` and ``d804971806958af054107d46``)
        when an endpoint began to probe a silent peer with one request
        instead of retransmitting every Accept into it. Every verdict is
        unchanged. ``mixed``: retransmissions 160 → 89 (Accepts
        126 → 55); the same 148 ops (121 ok), one response 0.05 ms
        later, shares repaired 1 → 0, checkpoint bytes 9,716 → 10,016.
        ``storage-heavy``: retransmissions 130 → 73 (Accepts 94 → 29);
        141 → 127 ops (135 → 121 ok), read availability 0.975 → 0.957,
        snapshot transfers 2 → 3, shares repaired 1 → 2, hedges issued
        / won 6 / 5 → 3 / 3. ``wipe-heavy``: retransmissions 2,025 →
        415 (Accepts 1,983 → 377); 1,259 → 1,351 ops (1,254 → 1,348
        ok), read availability 0.9919 → 0.9955, hedges issued / won
        21 / 19 → 19 / 16, still one wipe and four snapshot
        transfers.

        ``mixed`` and ``storage-heavy`` were re-pinned once more (were
        ``ab662abe16809a9b8f32bee8`` and ``8f3ccc2157d6771ef95f354e``)
        when a finished prepare began to cancel its outstanding
        Prepares; ``wipe-heavy`` retransmitted none and did not move.
        Every verdict is unchanged. ``mixed``: Prepare retransmissions
        4 → 0; the same 148 ops (121 ok), 12 of them re-timed, records
        compacted 462 → 458, timeout adaptations 14 → 11.
        ``storage-heavy``: Prepare retransmissions 7 → 0; the same 127
        ops (121 ok), one response 0.03 ms earlier, records compacted
        439 → 435.

        ``mixed`` was re-pinned once more (was
        ``4a0603c98dd2873d3319ba5a``) when a replica that learned an
        instance by Commit before its Accept arrived began to keep the
        late share on the decided record: the history is identical,
        checkpoint bytes 10,016 → 9,991 (written 13,050 → 13,016).

        All three were re-pinned again (were
        ``9b44ed1e9454f26cbef0d7a7``, ``766aae386a76dcd2be4e457f`` and
        ``2c6f026eb479ec25d62bd8f1``) when an endpoint began to re-arm a
        silent peer's probe and parked requests at the peer's RTO once
        it is heard, instead of at their backed-off intervals. Every
        verdict is unchanged. ``mixed``: retransmissions 85 → 116
        (Accepts 55 → 85); 148 → 149 ops (121 → 123 ok), read
        availability 0.844 → 0.859, checkpoint bytes 9,991 → 10,247.
        ``storage-heavy``: retransmissions 69 → 79; 127 → 141 ops
        (121 → 135 ok), read availability 0.957 → 0.975, snapshot
        transfers 3 → 2, shares repaired 2 → 1, hedges issued / won
        3 / 3 → 6 / 5. ``wipe-heavy``: retransmissions 415 → 418; the
        same 1,351 ops (1,348 ok), three responses under 0.04 ms apart,
        checkpoint bytes 125,085 → 125,084.

        ``mixed`` and ``wipe-heavy`` were re-pinned once more (were
        ``c13c95295c64f9d1f5e85840`` and ``e664b34d25aaa1ebb72ea316``)
        when a follower whose apply cursor stands for a monitor tick on
        an instance it holds no record of, with a later one learned,
        began to ask peers for it (a Commit is one-way, and nothing else
        fetched a missed one); ``storage-heavy`` has no such stall and
        did not move. Every verdict is unchanged. ``mixed``: the same
        149 ops (123 ok); snapshot transfers 1 → 4 (a polled peer that
        compacted the instance answers with its floor), checkpoint
        bytes 10,247 → 10,121. ``wipe-heavy``: 1,351 → 1,864 ops
        (1,348 → 1,864 ok), read timeouts 65 → 12, read availability
        0.9955 → 1.0, snapshot transfers 4 → 9, hedges issued / won
        19 / 16 → 40 / 37.

        All three were re-pinned again (were
        ``5bcb3e7f409354b55b86e251``, ``fa694800f3dba1b8fe03ad8f`` and
        ``e7a60ff2486c1fe1ac44f9c8``) when a checkpoint began to hold the
        leader's complete values by reference to its own votes instead
        of rewriting them at every save (DESIGN.md §5, the charge
        rule). Each client history is identical; only the checkpoint
        bytes moved. Stored / written: ``mixed`` 10,121 / 13,154 →
        9,945 / 12,167, ``storage-heavy`` 9,842 / 12,829 → 9,599 /
        11,873, ``wipe-heavy`` 121,445 / 155,352 → 120,590 / 140,500.

        All three were re-pinned again (were
        ``e371664076305b6983a2cd1f``, ``367f2f1c2d9a7853c0296a5a`` and
        ``b86971f3dcfdbc38516c22e9``) when a crash began to end
        everything its host started (DESIGN.md §4 "The crash rule": the
        endpoint retires every request in flight and forgets its RTT
        estimates). Every verdict is unchanged. ``mixed``: before, the
        recovered ``P1`` decided instances 45, 32 and 47 at its
        pre-crash ballot between 5.016 and 5.179 s; its 30 Accepts in
        flight at the crash now end with it. The same 149 ops, two
        responses under 0.5 ms apart, snapshot transfers 4 → 3,
        checkpoint bytes 9,945 / 12,167 → 9,302 / 11,569.
        ``storage-heavy``: ``P1``'s 7 Accepts in flight are retired and
        its RTT table restarts empty; the client history is identical,
        checkpoint bytes 9,599 / 11,873 → 9,583 / 11,857. ``wipe-heavy``:
        the wiped ``P2`` had no request in flight; its three RTT
        estimates restart empty and re-rank its fetch sources: 1,864 →
        1,869 ops, all ok, snapshot transfers 9 → 10, hedges issued /
        won 40 / 37 → 37 / 34, checkpoint bytes 120,590 / 140,500 →
        121,599 / 141,946.

        All three were re-pinned again (were
        ``305daed3dd8dac7f07dcc38c``, ``cd643b33228431c90fb0f706`` and
        ``f61a2434a58d0e9c0734c316``) when a follower began to elect the
        instant its lease lapses instead of at the next monitor tick,
        and a pre-vote voter whose own wait ends within the round began
        to answer when it ends instead of refusing (DESIGN.md §4). Every
        verdict is unchanged. ``mixed``: ``P2`` wins at 5.053 s instead
        of 5.503; the same 149 ops, 137 ok instead of 123, read
        availability 0.859 → 0.923, snapshot transfers 3 → 4,
        checkpoint bytes 9,302 / 11,569 → 11,273 / 13,397.
        ``storage-heavy``: the partition that keeps every candidate
        short of a quorum heals at 4.650 s, and the first pre-vote after
        it is ``P3``'s at 4.75 s (its vacancy retries now start at its
        lapse, 3.80 s) instead of ``P5``'s at the same instant, so
        ``P3`` leads from 4.755 s instead of ``P5``: 143 ops instead of
        141 (137 ok instead of 135), hedges issued / won 6 / 5 → 3 / 3,
        checkpoint bytes 9,583 / 11,857 → 9,539 / 11,659.
        ``wipe-heavy``: ``P3``, cut off from 1.64 to 4.64 s, pre-votes
        at its lapse (3.80 s) and again at 4.75 s instead of once at
        4.25 s, each refused; the same 1,869 ops, all ok, re-timed
        (longest 0.521 → 0.501 s), snapshot transfers 10 → 9, hedges
        issued / won 37 / 34 → 35 / 30, checkpoint bytes 121,599 /
        141,946 → 120,949 / 140,731."""
        result, history = chaos_history(monkeypatch, spec, seed)
        assert result.ok
        assert len(history) > 100
        if spec is WIPE_HEAVY:
            assert any(e.kind == "wipe" for e in result.schedule)
            assert result.snapshot_transfers >= 1
        assert digest((result.to_jsonable(), history)) == want
