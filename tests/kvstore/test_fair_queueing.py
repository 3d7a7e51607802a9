"""Integration tests: per-tenant DRR admission queues + QoS surface.

PR 4's single admission queue becomes per-tenant weighted deficit-
round-robin here. These tests pin the properties the ycsb bench gate
relies on: weighted shares under saturation, isolation of a quiet
tenant from a flooding one, per-tenant shed/retry_after accounting,
and the client-side Busy backoff stats.
"""

import pytest

from repro.core import rs_paxos
from repro.kvstore import build_cluster


def make(**kw):
    cluster = build_cluster(rs_paxos(5, 1), seed=kw.pop("seed", 3), **kw)
    cluster.start()
    cluster.run(until=1.0)
    return cluster


def flood(client, prefix: str, n: int, done: list, chains: int = 8) -> None:
    """``chains`` concurrent back-to-back put loops, ``n`` ops each —
    enough standing backlog for the DRR queues to actually queue."""
    for ch in range(chains):
        def loop(i: int = 0, ch: int = ch) -> None:
            if i >= n:
                return
            client.put(f"{prefix}-{ch}-{i}", 900,
                       on_done=lambda ok: (done.append(ok), loop(i + 1)))
        loop()


class TestWeightedShares:
    def run_contended(self, weights, seconds: float = 8.0):
        c = make(
            num_clients=4,
            client_tenants=["gold", "gold", "bronze", "bronze"],
            tenant_weights=weights,
            max_inflight_proposals=2,
            max_queued_requests=8,
            client_timeout=5.0,
        )
        done: list = []
        for i, client in enumerate(c.clients):
            flood(client, f"t{i}", 10_000, done)
        c.run(until=c.sim.now + seconds)
        by_tenant = {
            t: sum(cl.ops_ok for cl in c.clients if cl.tenant == t)
            for t in ("gold", "bronze")
        }
        return c, by_tenant

    def test_equal_weights_split_evenly(self):
        _, ok = self.run_contended({"gold": 1.0, "bronze": 1.0})
        assert ok["gold"] > 100 and ok["bronze"] > 100
        ratio = ok["gold"] / ok["bronze"]
        assert 0.8 < ratio < 1.25

    def test_weights_skew_throughput(self):
        _, ok = self.run_contended({"gold": 3.0, "bronze": 1.0})
        ratio = ok["gold"] / ok["bronze"]
        # DRR grants ~3x the quantum; allow slack for pipeline effects.
        assert ratio > 1.8

    def test_unknown_tenant_defaults_to_weight_one(self):
        # "bronze" missing from the weight map must still be served.
        _, ok = self.run_contended({"gold": 1.0})
        assert ok["bronze"] > 100

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            make(tenant_weights={"gold": 0.0})
        with pytest.raises(ValueError):
            make(tenant_weights={"gold": -2.0})


class TestIsolation:
    def test_quiet_tenant_unharmed_by_flood(self):
        c = make(
            num_clients=3,
            client_tenants=["noisy", "noisy", "quiet"],
            max_inflight_proposals=2,
            max_queued_requests=4,
            client_timeout=5.0,
        )
        noisy_done: list = []
        for i, client in enumerate(c.clients[:2]):
            flood(client, f"n{i}", 10_000, noisy_done)
        # The quiet tenant sends one op every 50 ms.
        quiet = c.clients[2]
        quiet_done: list = []

        def trickle(i: int = 0) -> None:
            if i >= 40:
                return
            quiet.put(f"q-{i}", 900, on_done=lambda ok: (
                quiet_done.append(ok),
                c.sim.call_after(0.05, lambda: trickle(i + 1)),
            ))
        trickle()
        c.run(until=c.sim.now + 10.0)
        # Every quiet op lands despite the flood saturating admission.
        assert len(quiet_done) == 40 and all(quiet_done)
        leader = c.leader()
        assert leader.requests_shed_by_tenant.get("quiet", 0) == 0

    def test_per_tenant_shed_accounting(self):
        c = make(
            num_clients=2,
            client_tenants=["a", "b"],
            max_inflight_proposals=1,
            max_queued_requests=1,
            client_timeout=5.0,
        )
        done: list = []
        flood(c.clients[0], "a", 2000, done)
        flood(c.clients[1], "b", 2000, done)
        c.run(until=c.sim.now + 5.0)
        leader = c.leader()
        per_tenant = leader.requests_shed_by_tenant
        assert sum(per_tenant.values()) == leader.requests_shed
        assert leader.metrics.counter("admission.shed.a").value == \
            per_tenant.get("a", 0)


class TestClientBackoffStats:
    def test_busy_stats_counted_per_client(self):
        c = make(
            num_clients=2,
            client_tenants=["a", "b"],
            max_inflight_proposals=1,
            max_queued_requests=1,
            client_timeout=5.0,
        )
        done: list = []
        flood(c.clients[0], "a", 3000, done)
        flood(c.clients[1], "b", 3000, done)
        c.run(until=c.sim.now + 5.0)
        leader = c.leader()
        assert leader.requests_shed > 0
        stats = [cl.backoff_stats() for cl in c.clients]
        assert {s["tenant"] for s in stats} == {"a", "b"}
        assert any(s["busy_count"] > 0 for s in stats)
        for s in stats:
            assert set(s) == {"tenant", "busy_count", "busy_wait_total",
                              "busy_wait_max", "read_retries"}
            assert set(s["read_retries"]) == {"not_ready", "not_leader",
                                              "busy", "timeout",
                                              "wrong_shard"}
            if s["busy_count"]:
                assert s["busy_wait_total"] > 0
                assert 0 < s["busy_wait_max"] <= s["busy_wait_total"]
            else:
                assert s["busy_wait_total"] == 0

    def test_retry_after_histograms_recorded(self):
        c = make(
            num_clients=1,
            client_tenants=["gold"],
            max_inflight_proposals=1,
            max_queued_requests=1,
            client_timeout=5.0,
        )
        done: list = []
        flood(c.clients[0], "g", 3000, done)
        c.run(until=c.sim.now + 5.0)
        if c.clients[0].busy_count:
            h = c.metrics.histograms["tenant.gold.retry_after"]
            assert len(h) == c.clients[0].busy_count

    def test_untagged_clients_report_empty_tenant(self):
        c = make(num_clients=1)
        s = c.clients[0].backoff_stats()
        assert s == {"tenant": "", "busy_count": 0,
                     "busy_wait_total": 0.0, "busy_wait_max": 0.0,
                     "read_retries": {"not_ready": 0, "not_leader": 0,
                                      "busy": 0, "timeout": 0,
                                      "wrong_shard": 0}}
