"""End-to-end determinism: identical seeds produce identical runs.

This is the property that makes every experiment in this repository
exactly reproducible (DESIGN.md §4 rule 2), checked at three levels:
kernel, network trace, and full KV-cluster metrics.
"""

import pytest

from repro.core import rs_paxos
from repro.kvstore import build_cluster
from repro.net import LinkSpec, build_network
from repro.sim import Simulator, Tracer
from repro.workload import ClosedLoopDriver, small_write


def drive_cluster(seed, num_clients=4, **kw):
    """A 5 s closed-loop small-write run; returns the finished cluster."""
    c = build_cluster(rs_paxos(5, 1), seed=seed, num_clients=num_clients,
                      num_groups=2, **kw)
    c.start()
    c.run(until=1.0)
    drivers = [
        ClosedLoopDriver(c.sim, cl, small_write(num_keys=10), stream=f"d{i}")
        for i, cl in enumerate(c.clients)
    ]
    for d in drivers:
        d.start()
    c.run(until=5.0)
    return c


def write_summary(c):
    lat = c.metrics.latency("write")
    return (
        c.metrics.throughput("write").total_bytes,
        c.metrics.throughput("write").count,
        tuple(lat.samples.tolist()),
        c.net.messages_sent,
    )


def run_cluster(seed, num_clients=4, **kw):
    return write_summary(drive_cluster(seed, num_clients, **kw))


#: The batched spec the golden ``test_batched_cluster_run`` pins.
BATCHED = {"batch_max_commands": 4, "batch_linger": 0.0005}


@pytest.fixture
def baseline(cluster_run):
    """``run_cluster(17)``, run once per session (``tests/conftest.py``)
    for the tests that compare some *other* run against it. That the run
    repeats at all is what ``test_full_cluster_run_identical`` checks."""
    return cluster_run(17)


class TestDeterminism:
    def test_network_trace_identical(self):
        def trace(seed):
            sim = Simulator(seed=seed)
            tracer = Tracer()
            net = build_network(
                sim, ["A", "B"],
                LinkSpec(delay_s=0.01, jitter_s=0.005, loss_prob=0.2),
                tracer,
            )
            net.set_handler("B", lambda env: None)
            for i in range(50):
                sim.call_at(i * 0.01, lambda i=i: net.send("A", "B", i, size=100))
            sim.run()
            return tracer.fingerprint()

        assert trace(5) == trace(5)
        assert trace(5) != trace(6)

    def test_full_cluster_run_identical(self, baseline):
        """The one deliberate in-process repeat: a fresh run equals the
        session's shared one, whatever ran in between (process-wide
        state such as ``core/value.py::_value_seq`` must not leak)."""
        assert run_cluster(17) == baseline

    def test_different_seeds_differ(self, baseline):
        assert baseline != run_cluster(18)

    def test_batched_run_is_deterministic(self, baseline, cluster_run):
        """Across processes, ``test_golden_runs.py::
        test_batched_cluster_run`` pins this run's digest (the same
        shared run). Here: batching genuinely changes the schedule
        (fewer messages per command), so that pin is not vacuous."""
        batched = cluster_run(17, **BATCHED)
        assert batched != baseline
        assert batched[3] < baseline[3]

    def test_failover_timeline_deterministic(self):
        from repro.bench import Setup, measure_failover
        from repro.workload import small_write as sw

        def tl(seed):
            return measure_failover(
                Setup(env="wan", num_clients=8, seed=seed),
                sw(num_keys=10),
                crash_times=(5.0,), duration=12.0,
            ).mbps

        assert tl(3) == tl(3)
