"""KV store client (§4.4).

On startup the client knows the server list; it caches the leader it
last saw (the paper's clients "gather the information that which
replica is the leader ... and save this information in its local
cache") and follows :class:`~repro.kvstore.messages.Redirect` hints.
Requests that time out rotate to the next server, so clients ride
through leader failures (Fig. 8): a leader-directed operation that
times out at server T drops the cached leader and walks the server
list from the one after T, wrapping, so T is tried last, not first. A
crashed leader therefore costs one client timeout, not two. Pinned
(``server=``) and rotating follower reads keep their own targets, and
a Redirect that names T again is still followed.

A leader-directed operation need not wait out the whole timeout,
though. Once it has gone unanswered at T for the endpoint's RTO
toward T, the client suspects T and asks the server after T in its
list who leads (:class:`~repro.kvstore.messages.WhoLeads`), again at
2·RTO, 4·RTO, ... up to the client timeout. Suspicion is per client:
one probe per step, however many operations wait at T. If the answer
names S ≠ T, every operation waiting at T past its RTO is cancelled
there and re-sent to S; any reply from T ends the suspicion, and the
client timeout still backs every operation.
"""

from __future__ import annotations

import itertools
from typing import Callable

from ..net import Network
from ..rpc import RpcEndpoint
from ..sim import MetricSet, Simulator

from .messages import (
    Busy,
    ClientDelete,
    ClientGet,
    ClientPut,
    GetOk,
    KV_META,
    NotFound,
    NotReady,
    PutOk,
    Redirect,
    WhoLeads,
    WrongShard,
)

_WHO_LEADS = WhoLeads()


class KVClient:
    """A logical client issuing KV operations over the simulated net.

    Writes and deletes carry a per-client, monotonically increasing
    ``op_id`` so the servers can apply each operation exactly once no
    matter how often the request is retried or duplicated in flight.

    Setting :attr:`history` to an object with
    ``invoke(client, op, msg, t) -> hid`` and
    ``complete(hid, ok, reply, t)`` records every operation as an
    invocation/response pair — the raw material for the
    :mod:`repro.check` linearizability checker.
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        name: str,
        servers: list[str],
        timeout: float = 1.0,
        max_attempts: int = 30,
        retry_backoff: float = 0.05,
        max_backoff: float = 1.0,
        metrics: MetricSet | None = None,
        endpoint: RpcEndpoint | None = None,
        tenant: str = "",
    ):
        if not servers:
            raise ValueError("need at least one server")
        if max_backoff < retry_backoff:
            raise ValueError("max_backoff must be >= retry_backoff")
        self.sim = sim
        self.net = net
        self.name = name
        self.servers = list(servers)
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.retry_backoff = retry_backoff
        self.max_backoff = max_backoff
        self.metrics = metrics or MetricSet()
        self.endpoint = endpoint or RpcEndpoint(sim, net, name)
        self.leader_cache: str | None = servers[0]
        self.tenant = tenant
        self.ops_ok = 0
        self.ops_failed = 0
        # Busy-shed telemetry: how often the leader pushed back on this
        # client and how much server-directed waiting that cost (the
        # retry_after values it honoured, not the client's own jitter).
        self.busy_count = 0
        self.busy_wait_total = 0.0
        self.busy_wait_max = 0.0
        # Suspicion-probe telemetry: WhoLeads probes sent, and operations
        # moved off a suspected server because a peer named another
        # leader.
        self.probes_sent = 0
        self.ops_rerouted = 0
        # Server name -> its open suspicion (at most one per server).
        self._suspicions: dict[str, _Suspicion] = {}
        # Read-side retry causes: *why* reads waited, not just how
        # long — availability gates assert on these. Counted per retry
        # trigger, not per operation.
        self.read_retry_causes = {
            "not_ready": 0, "not_leader": 0, "busy": 0, "timeout": 0,
            "wrong_shard": 0,
        }
        # Highest shard-map version seen in any reply (piggybacked by
        # the servers under dynamic sharding). Sent with every request
        # so a lagging follower can detect its routing is stale and
        # refuse (WrongShard) instead of misrouting the read.
        self.map_version = 0
        self.history = None  # optional invocation/response recorder
        self._op_ids = itertools.count(1)
        # Client-level cursor for rotating reads: successive follower
        # reads visit successive replicas instead of all starting at
        # servers[0] (which is usually the leader).
        self._rotate_targets = itertools.cycle(servers)
        # Deterministic per-client jitter stream: same (seed, client
        # name) => same retry timing, so chaos episodes replay exactly.
        self._backoff_rng = sim.rng.stream(f"kvclient.{name}.backoff")

    def backoff_stats(self) -> dict:
        """Busy-shed pushback this client absorbed, for episode/bench
        reports: shed count, the server-directed wait it honoured, and
        the read-side retry cause counters (NotReady / NotLeader /
        Busy / timeout)."""
        return {
            "tenant": self.tenant,
            "busy_count": self.busy_count,
            "busy_wait_total": round(self.busy_wait_total, 6),
            "busy_wait_max": round(self.busy_wait_max, 6),
            "read_retries": dict(self.read_retry_causes),
        }

    def _retry_delay(self, retry: int) -> float:
        """Capped exponential backoff with decorrelating jitter.

        ``retry`` counts consecutive retries of one operation. Retry 0
        (e.g. a prompt follow-up on a fresh Redirect hint) draws from
        [0, retry_backoff) — pure desynchronizing jitter with no built-in
        floor, so the common single-retry path stays fast. Later retries
        are uniform in [cap/2, cap) where cap doubles per retry up to
        ``max_backoff`` — after a leader crash, clients that all failed
        at the same instant spread out instead of hammering the new
        leader in lockstep.
        """
        if retry == 0:
            return self._backoff_rng.random() * self.retry_backoff
        cap = min(self.max_backoff, self.retry_backoff * (2 ** retry))
        return cap / 2 + self._backoff_rng.random() * cap / 2

    # -- public API -------------------------------------------------------

    def put(
        self, key: str, size: int, data: bytes | None = None,
        on_done: Callable[[bool], None] | None = None,
    ) -> None:
        """Write ``key``; ``on_done(ok)`` fires at commit or after the
        retry budget is exhausted."""
        msg = ClientPut(key, size, data, client=self.name,
                        op_id=next(self._op_ids), tenant=self.tenant,
                        map_version=self.map_version)
        _Op(self, msg, PutOk, on_done, "put").attempt()

    def get(
        self, key: str, mode: str = "fast",
        on_done: Callable[[bool, int], None] | None = None,
        server: str | None = None,
    ) -> None:
        """Read ``key``; ``on_done(ok, size)``.

        ``mode`` is "fast", "consistent", "snapshot" (§4.4) or
        "follower" — a linearizable read served by any replica through
        a read-index round (the leader serves it as a lease fast read).
        Snapshot and follower reads may target a specific (non-leader)
        ``server``; an untargeted follower read rotates across the
        whole server list instead of chasing the leader cache.
        """
        msg = ClientGet(key, mode, tenant=self.tenant,
                        map_version=self.map_version)
        _Op(self, msg, GetOk, on_done, "get", fixed_target=server,
            rotate=(mode == "follower" and server is None)).attempt()

    def delete(
        self, key: str, on_done: Callable[[bool], None] | None = None
    ) -> None:
        msg = ClientDelete(key, client=self.name, op_id=next(self._op_ids),
                           tenant=self.tenant, map_version=self.map_version)
        _Op(self, msg, PutOk, on_done, "delete").attempt()


class _Op:
    """One client operation in flight: its retry state, and — as bound
    methods — every callback the operation hands out.

    The callbacks need each other (a reply may schedule another attempt,
    an attempt may finish the operation), so as closures they would
    capture themselves and form a reference cycle per operation that
    only the cyclic collector can free. As methods of one slotted object
    they refer to each other through ``self`` instead, and the operation
    is freed by reference counting the moment its last callback is
    dropped (DESIGN.md §4, the op-path allocation rule).
    """

    __slots__ = ("client", "msg", "ok_type", "on_done", "op",
                 "fixed_target", "rotate", "leader_directed", "start", "hid",
                 "attempts_left", "retries", "next_server", "target",
                 "req_id")

    def __init__(
        self, client: KVClient, msg, ok_type: type, on_done, op: str,
        fixed_target: str | None = None, rotate: bool = False,
    ):
        self.client = client
        self.msg = msg
        self.ok_type = ok_type
        self.on_done = on_done
        self.op = op
        self.fixed_target = fixed_target
        self.rotate = rotate
        # Neither pinned to a server nor rotating: where such an
        # operation succeeds becomes the cached leader, and where it
        # times out stops being it.
        self.leader_directed = fixed_target is None and not rotate
        self.start = client.sim.now
        self.attempts_left = client.max_attempts
        self.retries = 0
        # Cursor of this operation's own walk over the server list,
        # used while no leader is cached.
        self.next_server = 0
        self.target = ""
        self.req_id = -1  # the request of the current attempt
        self.hid = None
        if client.history is not None:
            self.hid = client.history.invoke(client.name, op, msg, self.start)

    def _pick_target(self) -> str:
        client = self.client
        if self.fixed_target is not None:
            return self.fixed_target
        if self.rotate:
            # Follower reads spread across the whole server list —
            # any replica can serve them, so don't chase the leader.
            return next(client._rotate_targets)
        if client.leader_cache is not None:
            return client.leader_cache
        servers = client.servers
        target = servers[self.next_server % len(servers)]
        self.next_server += 1
        return target

    def _note_retry(self, cause: str) -> None:
        if self.op == "get":
            self.client.read_retry_causes[cause] += 1

    def _retry(self, extra_wait: float = 0.0) -> None:
        """Another attempt after one more step of backoff."""
        self.retries += 1
        client = self.client
        client.sim.call_after(
            extra_wait + client._retry_delay(self.retries), self.attempt
        )

    def _finish(self, ok: bool, reply=None) -> None:
        client = self.client
        op = self.op
        now = client.sim.now
        if ok:
            client.ops_ok += 1
            client.metrics.latency(f"client.{op}").record(now - self.start)
            if client.tenant:
                client.metrics.latency(
                    f"tenant.{client.tenant}.{op}"
                ).record(now - self.start)
        else:
            client.ops_failed += 1
        if self.hid is not None:
            client.history.complete(self.hid, ok, reply, now)
        on_done = self.on_done
        if on_done is not None:
            if op == "get":
                on_done(ok, reply.size if ok and isinstance(reply, GetOk) else 0)
            else:
                on_done(ok)

    def attempt(self) -> None:
        if self.attempts_left <= 0:
            self._finish(False)
            return
        self.attempts_left -= 1
        self.target = self._pick_target()
        msg = self.msg
        client = self.client
        self.req_id = client.endpoint.request(
            self.target, msg, msg.wire_bytes,
            on_reply=self._on_reply, timeout=client.timeout,
            retries=0, on_timeout=self._on_timeout,
            on_suspect=self._on_suspect if self.leader_directed else None,
        )

    def _on_suspect(self) -> None:
        """Unanswered at the target for its RTO: join (or open) the
        client's suspicion of it."""
        client = self.client
        server = self.target
        suspicion = client._suspicions.get(server)
        if suspicion is None:
            servers = client.servers
            peer = servers[
                (servers.index(server) + 1 if server in servers else 0)
                % len(servers)
            ]
            if peer == server:
                return  # nobody to ask
            suspicion = client._suspicions[server] = _Suspicion(
                client, server, peer
            )
        suspicion.add(self)

    def _on_reply(self, reply) -> None:
        client = self.client
        if client._suspicions:
            suspicion = client._suspicions.get(self.target)
            if suspicion is not None:
                suspicion.end()  # the suspect answered: it is alive
        mv = getattr(reply, "map_version", 0)
        if mv > client.map_version:
            client.map_version = mv
        if isinstance(reply, self.ok_type):
            if self.leader_directed:
                client.leader_cache = self.target
            self._finish(True, reply)
        elif isinstance(reply, NotFound):
            # Key absence is a successful read of "nothing".
            if self.leader_directed:
                client.leader_cache = self.target
            self._finish(False, reply)
        elif isinstance(reply, Redirect):
            self._note_retry("not_leader")
            if reply.leader_hint is not None:
                # A concrete hint is fresh information: retry it
                # promptly without growing the backoff window.
                client.leader_cache = reply.leader_hint
                client.sim.call_after(client._retry_delay(0), self.attempt)
            else:
                client.leader_cache = None
                self._retry()
        elif isinstance(reply, Busy):
            self._note_retry("busy")
            # Load shed: the leader is alive but at capacity. Keep the
            # leader cache (it IS the leader) and wait out the server's
            # own estimate plus client-side jitter so shed clients do
            # not return in lockstep.
            client.busy_count += 1
            client.busy_wait_total += reply.retry_after
            client.busy_wait_max = max(client.busy_wait_max, reply.retry_after)
            client.metrics.histogram("client.busy.retry_after").record(
                reply.retry_after
            )
            if client.tenant:
                client.metrics.histogram(
                    f"tenant.{client.tenant}.retry_after"
                ).record(reply.retry_after)
            self._retry(reply.retry_after)
        elif isinstance(reply, WrongShard):
            self._note_retry("wrong_shard")
            client.metrics.counter("client.wrong_shard").inc(1)
            # This replica's shard map lags one we have already seen:
            # its routing is stale. Back off briefly and try elsewhere
            # (rotating reads advance on their own; leader-directed ops
            # drop the cache so the rotation finds a caught-up replica).
            if self.leader_directed:
                client.leader_cache = None
            self._retry()
        else:
            if isinstance(reply, NotReady):
                # Leadership transition in progress: back off
                # exponentially so clients don't storm the new leader in
                # lockstep the moment it comes up.
                self._note_retry("not_ready")
            self._retry()

    def _on_timeout(self) -> None:
        # Server may be down: drop the cache and walk on from the server
        # after it, so the one that just timed out is tried last, not
        # first (a crashed leader would otherwise cost a second timeout).
        self._note_retry("timeout")
        if self.leader_directed:
            client = self.client
            suspicion = client._suspicions.get(self.target)
            if suspicion is not None:
                suspicion.drop(self)
            client.leader_cache = None
            if self.target in client.servers:
                self.next_server = client.servers.index(self.target) + 1
        self.attempt()


class _Suspicion:
    """The client's suspicion of one server: the leader-directed
    operations that have waited there past its RTO, and the probes that
    ask ``peer`` (the retry walk's next server) who leads.

    Probes go out when the first operation joins — RTO after it was
    sent — and then RTO, 2·RTO, ... later, so at RTO·2^k after that
    send, until the next one would pass the client timeout. An
    operation that joins after the schedule ran out starts it again.
    Cancelling ``timer`` (or letting it fire) drops its callback, so the
    object is freed by reference counting once it leaves
    ``client._suspicions``.
    """

    __slots__ = ("client", "server", "peer", "ops", "elapsed", "timer",
                 "probe_id")

    def __init__(self, client: KVClient, server: str, peer: str):
        self.client = client
        self.server = server
        self.peer = peer
        self.ops: dict[_Op, None] = {}  # insertion-ordered set
        self.elapsed = 0.0   # since the probed-for operation was sent
        self.timer = None
        self.probe_id: int | None = None

    def add(self, op: _Op) -> None:
        self.ops[op] = None
        if self.timer is None:
            client = self.client
            self.elapsed = client.endpoint.rto(self.server, client.timeout)
            self.probe()

    def drop(self, op: _Op) -> None:
        """``op`` timed out at the server: it waits there no more."""
        self.ops.pop(op, None)
        if not self.ops:
            self.end()

    def probe(self) -> None:
        client = self.client
        endpoint = client.endpoint
        if self.probe_id is not None:
            endpoint.cancel_request(self.probe_id)  # superseded
        client.probes_sent += 1
        self.probe_id = endpoint.request(
            self.peer, _WHO_LEADS, KV_META, on_reply=self._on_answer,
            timeout=client.timeout, retries=0,
        )
        if 2 * self.elapsed <= client.timeout:
            self.timer = client.sim.call_after(self.elapsed, self.probe)
            self.elapsed *= 2
        else:
            self.timer = None

    def _on_answer(self, reply: Redirect) -> None:
        # Only the open suspicion's latest probe can answer: ending it
        # or sending the next probe cancels the one before.
        self.probe_id = None
        client = self.client
        leader = reply.leader_hint
        if leader is None or leader == self.server:
            return  # the peer knows no other leader: keep waiting
        # A peer says S leads: move every operation waiting here to S.
        # Cancelling the request here first keeps exactly-once to the
        # op_id dedup, as on the timeout path.
        client.leader_cache = leader
        ops = list(self.ops)
        self.end()
        client.ops_rerouted += len(ops)
        endpoint = client.endpoint
        for op in ops:
            endpoint.cancel_request(op.req_id)
            client.sim.call_after(client._retry_delay(0), op.attempt)

    def end(self) -> None:
        client = self.client
        del client._suspicions[self.server]
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        if self.probe_id is not None:
            client.endpoint.cancel_request(self.probe_id)
            self.probe_id = None
        self.ops.clear()
