"""Tests for KVClient retry/redirect/rotation behaviour."""

import pytest

from repro.core import LeaseConfig, rs_paxos
from repro.kvstore import KVClient, build_cluster
from repro.kvstore.messages import ClientPut, WhoLeads


def make(config=None, **kw):
    c = build_cluster(config or rs_paxos(5, 1), seed=9, num_groups=2,
                      client_timeout=kw.pop("client_timeout", 1.0), **kw)
    c.start()
    c.run(until=1.0)
    return c


class TestRedirects:
    def test_follows_redirect_chain(self):
        c = make()
        client = c.clients[0]
        client.leader_cache = c.servers[2].name
        ok = []
        client.put("r", 100, on_done=lambda o: ok.append(o))
        c.run(until=5.0)
        assert ok == [True]
        assert client.ops_ok == 1

    def test_rotates_when_cached_leader_dead(self):
        c = make()
        client = c.clients[0]
        c.clients[0].put("seed", 10, on_done=lambda ok: None)
        c.run(until=3.0)
        # Kill the leader; client times out against it and rotates until
        # the new leader answers.
        c.crash_server(0)
        ok = []
        client.put("after-death", 64, on_done=lambda o: ok.append(o))
        c.run(until=25.0)
        assert ok == [True]

    # A lease shorter than the client timeout: the successor leads
    # before the first timeout fires, so one timeout is all it costs.
    SHORT_LEASE = LeaseConfig(duration=0.5, max_drift=0.05,
                              heartbeat_interval=0.125)

    def crash_and_put(self, f, down):
        """Crash ``down`` while the client caches servers[0], then put;
        returns the put's targets in order and its ``(ok, latency)``."""
        c = make(config=rs_paxos(5, f), lease_config=self.SHORT_LEASE)
        client = c.clients[0]
        client.put("seed", 10, on_done=lambda ok: None)
        c.run(until=3.0)
        assert client.leader_cache == c.servers[0].name
        targets = []
        request = client.endpoint.request

        def spy(dest, msg, *args, **kw):
            if isinstance(msg, ClientPut) and msg.key == "after-death":
                targets.append(dest)
            return request(dest, msg, *args, **kw)

        client.endpoint.request = spy
        for i in down:
            c.crash_server(i)
        start, done = c.sim.now, []
        client.put("after-death", 64,
                   on_done=lambda ok: done.append((ok, c.sim.now - start)))
        c.run(until=20.0)
        (outcome,) = done
        return c, targets, outcome

    def test_timeout_skips_the_server_that_timed_out(self):
        c, targets, (ok, took) = self.crash_and_put(1, [0])
        p1, p2 = c.servers[0].name, c.servers[1].name
        assert targets[:2] == [p1, p2]
        assert all(a != b for a, b in zip(targets, targets[1:]))
        # One client timeout plus the election window, not two timeouts.
        assert ok
        assert took < c.clients[0].timeout + self.SHORT_LEASE.follower_timeout

    def test_walk_passes_every_dead_server_once(self):
        c, targets, (ok, _) = self.crash_and_put(2, [0, 1])
        assert targets == [s.name for s in c.servers[:3]]
        assert ok

    def test_retry_budget_exhausts_with_all_servers_down(self):
        c = make()
        client = c.clients[0]
        client.max_attempts = 3
        for i in range(5):
            c.crash_server(i)
        ok = []
        client.put("void", 1, on_done=lambda o: ok.append(o))
        c.run(until=30.0)
        assert ok == [False]
        assert client.ops_failed == 1

    def test_leader_cache_learned_from_success(self):
        c = make()
        client = c.clients[0]
        client.leader_cache = None
        ok = []
        client.put("learn", 10, on_done=lambda o: ok.append(o))
        c.run(until=10.0)
        assert ok == [True]
        assert client.leader_cache == c.servers[0].name


class TestSuspicionProbe:
    """A leader-directed op unanswered for the RTO makes the client ask
    the next server who leads (DESIGN.md "Client retry walk")."""

    def cached_p1(self):
        """A short-lease cluster whose client caches P1 and has measured
        it; returns the cluster, the client, and the spied requests
        ``(t, dst, msg)`` from here on."""
        c = make(lease_config=TestRedirects.SHORT_LEASE)
        client = c.clients[0]
        client.put("seed", 10, on_done=lambda ok: None)
        c.run(until=3.0)
        assert client.leader_cache == c.servers[0].name
        assert client.endpoint.peer_rtt(c.servers[0].name) is not None
        sent = []
        request = client.endpoint.request

        def spy(dest, msg, *args, **kw):
            sent.append((c.sim.now, dest, msg))
            return request(dest, msg, *args, **kw)

        client.endpoint.request = spy
        return c, client, sent

    def test_stale_cache_after_the_successor_leads(self):
        c, client, sent = self.cached_p1()
        c.crash_server(0)
        c.run(until=5.0)
        assert c.leader() is c.servers[1]   # P2 leads; client caches P1
        start, done = c.sim.now, []
        client.put("k", 64, on_done=lambda ok: done.append(
            (ok, c.sim.now - start)))
        c.run(until=7.0)
        ((ok, took),) = done
        assert ok and took < client.timeout / 10
        assert client.endpoint.requests_timed_out == 0
        assert [(d, type(m).__name__) for _, d, m in sent] == [
            ("P1", "ClientPut"), ("P2", "WhoLeads"), ("P2", "ClientPut")]
        assert (client.probes_sent, client.ops_rerouted) == (1, 1)
        assert client.leader_cache == "P2"

    def test_slow_but_alive_leader_keeps_its_op(self):
        c, client, sent = self.cached_p1()
        p1 = c.servers[0]
        at_p1 = []

        def slow(msg, src, respond):
            at_p1.append(msg.key)
            c.sim.call_after(0.3, lambda: p1._on_put(msg, src, respond))

        p1.endpoint.on_request_async(ClientPut, slow)
        done = []
        client.put("k", 64, on_done=done.append)
        c.run(until=5.0)
        assert done == [True]
        assert at_p1 == ["k"]               # one request, never re-sent
        assert client.probes_sent >= 1 and client.ops_rerouted == 0
        assert all(d == "P2" for _, d, m in sent if isinstance(m, WhoLeads))
        assert client.endpoint.requests_timed_out == 0
        assert client.endpoint.stale_replies_dropped == 0  # none cancelled
        assert not client._suspicions       # P1's reply ended it

    def test_many_ops_at_a_dead_server_share_the_probes(self):
        c, client, sent = self.cached_p1()
        c.crash_server(0)
        done = []
        for i in range(10):
            client.put(f"k{i}", 64, on_done=done.append)
        c.run(until=5.0)
        assert done == [True] * 10
        probes = [t for t, _, m in sent if isinstance(m, WhoLeads)]
        # One probe per backoff step, not one per op: the gaps double.
        gaps = [b - a for a, b in zip(probes, probes[1:])]
        assert len(probes) >= 3
        assert all(b == pytest.approx(2 * a) for a, b in zip(gaps, gaps[1:]))
        # Every op moved to P2 on the one answer that named it.
        assert client.ops_rerouted == 10
        moved = [t for t, d, m in sent
                 if isinstance(m, ClientPut) and d == "P2"]
        assert len(moved) == 10
        assert max(moved) - min(moved) < client.retry_backoff
        assert min(moved) > probes[-1]
        assert client.endpoint.requests_timed_out == 0


class TestMetrics:
    def test_client_latency_recorded(self):
        c = make()
        c.clients[0].put("m", 100, on_done=lambda ok: None)
        c.run(until=3.0)
        lat = c.metrics.latency("client.put")
        assert len(lat) == 1
        # Client-observed latency includes the network RTT, so it
        # exceeds the server-side commit latency.
        assert lat.mean() >= c.metrics.latency("write").mean()

    def test_get_reports_size(self):
        c = make()
        c.clients[0].put("g", 777, on_done=lambda ok: None)
        c.run(until=3.0)
        sizes = []
        c.clients[0].get("g", on_done=lambda ok, size: sizes.append(size))
        c.run(until=5.0)
        assert sizes == [777]


class TestBackoff:
    def test_delay_grows_exponentially_then_caps(self):
        c = make()
        client = c.clients[0]
        # Retry 0 is pure jitter in [0, retry_backoff); later retries
        # are half-jittered: delay for retry r lies in [cap/2, cap]
        # where cap = min(max_backoff, retry_backoff * 2^r).
        for _ in range(8):
            assert 0.0 <= client._retry_delay(0) < client.retry_backoff
        for r in range(1, 12):
            cap = min(client.max_backoff, client.retry_backoff * (2 ** r))
            d = client._retry_delay(r)
            assert cap / 2 <= d <= cap
        assert client._retry_delay(50) <= client.max_backoff

    def test_jitter_is_deterministic_per_seed(self):
        a = make().clients[0]
        b = make().clients[0]
        assert [a._retry_delay(r) for r in range(5)] == \
               [b._retry_delay(r) for r in range(5)]

    def test_clients_jitter_differently(self):
        # Distinct named substreams: two clients retrying at the same
        # moment must not dogpile the same instant.
        c = make(num_clients=2)
        d0 = [c.clients[0]._retry_delay(3) for _ in range(4)]
        d1 = [c.clients[1]._retry_delay(3) for _ in range(4)]
        assert d0 != d1

    def test_max_backoff_validated(self):
        c = make()
        with pytest.raises(ValueError):
            KVClient(c.sim, c.net, "X", [c.servers[0].name],
                     retry_backoff=0.5, max_backoff=0.1)

    def test_retries_still_succeed_under_backoff(self):
        # End-to-end: with the leader down, backed-off retries rotate
        # to the new leader and complete.
        c = make()
        client = c.clients[0]
        client.put("seed", 10, on_done=lambda ok: None)
        c.run(until=3.0)
        c.crash_server(0)
        ok = []
        client.put("x", 64, on_done=lambda o: ok.append(o))
        c.run(until=25.0)
        assert ok == [True]


class TestConstruction:
    def test_requires_servers(self):
        c = make()
        with pytest.raises(ValueError):
            KVClient(c.sim, c.net, "X", [])
