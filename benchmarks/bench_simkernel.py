"""Simulation-kernel wall-clock benchmarks.

These bound the harness itself: events/second through the kernel and
end-to-end simulated writes/second through a full cluster, so
regressions in the testbed (not the protocol) are visible.
"""

import statistics
import time

import pytest

from repro.bench import Setup, make_cluster
from repro.net import LAN, build_network
from repro.rpc import RpcEndpoint
from repro.sim import FifoResource, Simulator
from repro.workload import ClosedLoopDriver, fixed_size_writes


def test_event_loop_throughput(benchmark):
    def run_events():
        sim = Simulator()

        def chain(n):
            if n > 0:
                sim.call_after(0.001, lambda: chain(n - 1))

        for _ in range(100):
            chain(100)
        sim.run()
        return sim.events_processed

    processed = benchmark(run_events)
    assert processed == 10_000


def test_cancel_heavy_heap(benchmark):
    """The RPC pattern: every request arms a far-off retransmit timer
    and cancels it a moment later, so the heap is mostly tombstones
    sitting above the live events."""

    def run_timers():
        sim = Simulator()
        fired = []

        def request(n):
            timer = sim.call_after(0.25, lambda: fired.append("timeout"))

            def reply():
                timer.cancel()
                if n > 0:
                    request(n - 1)

            sim.call_after(0.0005, reply)

        for _ in range(50):
            request(100)
        sim.run()
        assert not fired
        return sim.events_processed

    processed = benchmark(run_timers)
    assert processed == 50 * 101


def test_network_single_hop(benchmark):
    """One wire message end to end: send, NIC queues, jitter, delivery."""

    def run_sends():
        sim = Simulator()
        net = build_network(sim, ["A", "B"], LAN)
        got = []
        net.set_handler("B", lambda env: got.append(env.msg_id))
        for i in range(5_000):
            sim.call_at(i * 1e-4, lambda: net.send("A", "B", None, 4096))
        sim.run()
        return len(got), sim.events_processed

    delivered, events = benchmark(run_sends)
    assert delivered == 5_000
    # The 5 000 send triggers, plus two events per message hop.
    assert events == 5_000 + 2 * 5_000


def test_rpc_round_trip(benchmark):
    """The message hop's constant factor without a cluster: request ->
    async handler -> reply across ``Network`` + ``RpcEndpoint`` on the
    LAN link, adaptive timeout as the Paxos rounds use it. Closed loop,
    one request in flight, so every exchange is an RTT sample."""
    rounds = 2_000

    def run_round_trips():
        sim = Simulator()
        net = build_network(sim, ["A", "B"], LAN)
        a, b = RpcEndpoint(sim, net, "A"), RpcEndpoint(sim, net, "B")
        b.on_request_async(int, lambda n, src, respond: respond(n, 48))
        done = []

        def on_reply(n):
            done.append(n)
            if n + 1 < rounds:
                a.request("B", n + 1, 4096, on_reply, timeout=0.25,
                          adaptive=True)

        a.request("B", 0, 4096, on_reply, timeout=0.25, adaptive=True)
        sim.run()
        return len(done), sim.events_processed

    replies, events = benchmark(run_round_trips)
    assert replies == rounds
    # Two events per wire message, two messages per round trip; the
    # retransmit timer is cancelled, so it never fires.
    assert events == 4 * rounds
    benchmark.extra_info["events_per_round_trip"] = events / rounds
    benchmark.extra_info["us_per_round_trip"] = (
        benchmark.stats.stats.median / rounds * 1e6)


def test_fifo_resource_throughput(benchmark):
    def run_jobs():
        sim = Simulator()
        res = FifoResource(sim)
        for _ in range(5_000):
            res.submit(0.001, lambda: None)
        sim.run()
        return res.jobs_served

    served = benchmark(run_jobs)
    assert served == 5_000


def test_cluster_write_op_rate(once, benchmark):
    """Simulated 4 KB writes through a full 5-node RS-Paxos cluster."""

    def run_cluster():
        cluster = make_cluster(Setup(num_clients=8, num_groups=4))
        spec = fixed_size_writes(4096)
        drivers = [
            ClosedLoopDriver(cluster.sim, cl, spec, stream=f"d{i}")
            for i, cl in enumerate(cluster.clients)
        ]
        for d in drivers:
            d.start()
        cluster.run(until=cluster.sim.now + 2.0)
        return cluster.metrics.throughput("write").count

    ops = once(benchmark, run_cluster)
    assert ops > 100


def checkpoint_export_cost(history: int, new: int = 100, rounds: int = 3):
    """(median wall µs of ``Checkpointer.save``, bytes it hands to
    ``Disk.write``) on one server that has committed ``history`` 3 KB
    writes (plus ``new`` per further round), ``new`` of them since its
    previous checkpoint."""
    cluster = make_cluster(Setup(num_clients=4, num_groups=2))
    sim, srv = cluster.sim, cluster.servers[2]

    def write(n):
        left, done = [n], []

        def issue(client, *ok):
            done.extend(ok)
            if left[0]:
                left[0] -= 1
                client.put(f"k{left[0] % 8}", 3000,
                           on_done=lambda ok: issue(client, ok))

        for client in cluster.clients:
            issue(client)
        while len(done) < n:
            sim.run(until=sim.now + 0.05)
        assert all(done)
        sim.run(until=sim.now + 0.1)        # commits reach the followers

    write(history - new)
    assert srv.checkpointer.save()
    micros, nbytes = [], []
    for _ in range(rounds):
        sim.run(until=sim.now + 1.0)        # previous checkpoint durable
        write(new)
        written = srv.disk.bytes_written
        t0 = time.perf_counter()
        assert srv.checkpointer.save()
        micros.append((time.perf_counter() - t0) * 1e6)
        nbytes.append(srv.disk.bytes_written - written)
    return statistics.median(micros), nbytes[0]


def test_checkpoint_export_scaling(once, benchmark):
    """A checkpoint costs what changed since the last one: the same 100
    new writes hand the device the same bytes after 1 k committed
    writes as after 10 k, and the host pays one identity comparison —
    not one copy — per record already held (``extra_info`` has the
    wall µs; before PR 20 both grew tenfold: 1.0 -> 10.4 MB,
    1.6 -> 24 ms)."""

    def run():
        return checkpoint_export_cost(1_000), checkpoint_export_cost(10_000)

    (us_1k, bytes_1k), (us_10k, bytes_10k) = once(benchmark, run)
    benchmark.extra_info.update(
        us_1k=us_1k, bytes_1k=bytes_1k, us_10k=us_10k, bytes_10k=bytes_10k)
    assert bytes_10k == bytes_1k
