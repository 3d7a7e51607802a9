"""Simulation-kernel wall-clock benchmarks.

These bound the harness itself: events/second through the kernel and
end-to-end simulated writes/second through a full cluster, so
regressions in the testbed (not the protocol) are visible.
"""

import pytest

from repro.bench import Setup, make_cluster
from repro.net import LAN, build_network
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
