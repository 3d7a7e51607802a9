"""Simulation-kernel wall-clock benchmarks.

These bound the harness itself: events/second through the kernel and
end-to-end simulated writes/second through a full cluster, so
regressions in the testbed (not the protocol) are visible.
"""

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
