"""The read path (§4.4): the lease **fast** read on the leader, once
past its election read barrier; the **consistent** read, a marker
through the log; the **snapshot** read of any replica's own state; and
the **follower** read, linearizable on any replica after one read-index
round to the leader. A replica holding only a key's coded share gathers
X shares and decodes (the recovery read, *degraded* without a usable
local share), keeping the value only on the second read of a version.

Pure, like :mod:`repro.kvstore.sharefetch`: built from a clock, the
replica's ``LocalStore`` and ``MetricSet``, the group count and
callables for what only the server knows or does.
"""

from __future__ import annotations

from typing import Callable

from .batch import Parked, payload_for_key
from .messages import GetOk, NotFound, NotReady, ReadIndex, ReadIndexReply
from .shard import instance_of


def _reply(respond, msg) -> None:
    respond(msg, msg.wire_bytes)


class ReadPath:
    """The read modes, the election read barrier and the second-hit rule.

    ``clock`` has ``now``; ``cfg_group`` is the config group's index
    under dynamic sharding, else None. The callables: ``leader_guard(
    respond)`` (False: it already answered);
    ``lease_ready()`` (leader, lease held, neither electing nor changing
    view); ``leader_host()`` (where a read-index round goes: None when
    no other server is known to lead); ``shard_map()``; ``cursor(g)``,
    group ``g``'s apply cursor; ``after_apply(g, i, cb)``, ``cb()`` once
    instance ``i`` is applied; ``request``, an endpoint's; ``admit(
    respond, start, tenant)`` and ``park(g, Parked)``, the consistent-
    read marker's way into the log; and for a recovery read
    ``chosen(g, i)`` (the chosen record, or None), ``retired(g, i)``,
    ``gather(g, i, value_id, seed, on_value, gone, on_gone)`` and
    ``cache(g, i, value)`` (keep a decoded value on its chosen record).
    """

    def __init__(
        self, clock, store, metrics, num_groups: int,
        cfg_group: int | None, *,
        leader_guard: Callable[..., bool],
        lease_ready: Callable[[], bool], leader_host: Callable[[], str | None],
        shard_map: Callable, cursor: Callable[[int], int],
        after_apply: Callable, request: Callable, admit: Callable,
        park: Callable, chosen: Callable, retired: Callable,
        gather: Callable, cache: Callable,
    ):
        self._clock = clock
        self._store = store
        self._metrics = metrics
        self._cfg_group = cfg_group
        self._leader_guard = leader_guard
        self._lease_ready = lease_ready
        self._leader_host = leader_host
        self._shard_map = shard_map
        self._cursor = cursor
        self._after_apply = after_apply
        self._request = request
        self._admit = admit
        self._park = park
        self._chosen = chosen
        self._retired = retired
        self._gather = gather
        self._cache = cache
        # Per group, the log frontier when this server last won an
        # election: fast reads wait until the apply cursor passes it —
        # a fresh leader's store may miss writes its predecessor acked.
        self._barrier = [-1] * num_groups
        # key -> the version a read decoded once and did not keep.
        self._decoded_once: dict[str, int] = {}
        # Cumulative across resets (a crash does not forget them).
        self.fast_reads = 0
        self.consistent_reads = 0
        self.snapshot_reads = 0
        self.follower_reads = 0        # served after a read-index round
        self.read_index_rounds = 0     # issued toward the leader
        self.read_index_served = 0     # answered as the leader
        self.recovery_reads = 0
        self.degraded_reads = 0        # no usable local share

    # -- the election read barrier -------------------------------------

    def elected(self, frontiers: list[int]) -> None:
        """Won an election: every instance an earlier leader could have
        acknowledged is at or below ``frontiers[g]``."""
        self._barrier = list(frontiers)

    def caught_up(self, group: int) -> bool:
        """Has ``group``'s apply cursor passed the election barrier?"""
        return self._cursor(group) > self._barrier[group]

    def reset(self) -> None:
        """The server crashed: no barrier, no one-read markers."""
        self._barrier = [-1] * len(self._barrier)
        self._decoded_once.clear()

    def wait_groups(self, key: str) -> list[int]:
        """The groups a linearizable read of ``key`` waits on: the
        key's group; under dynamic sharding also the source of a
        migration whose marker covers the key, and the config group, so
        a server whose map is stale waits until it has caught up."""
        smap = self._shard_map()
        groups = [smap.group_of(key)]
        if self._cfg_group is not None:
            if smap.migrating is not None:
                lo, hi, src, _ = smap.migrating
                if lo <= key and (hi is None or key < hi) and src != groups[0]:
                    groups.append(src)
            groups.append(self._cfg_group)
        return groups

    def _ready(self, groups: list[int]) -> bool:
        return self._lease_ready() and all(map(self.caught_up, groups))

    # -- the modes -----------------------------------------------------

    def get(self, msg, respond) -> None:
        """Serve ``ClientGet`` ``msg`` in its mode (the server is up)."""
        start = self._clock.now
        if msg.mode == "snapshot":
            # Any replica, from its own state (§4.4: the recovery read
            # doubles as a snapshot read on a non-leader).
            self.snapshot_reads += 1
            self._serve(msg.key, start, respond)
        elif msg.mode == "follower":
            self._follower(msg, start, respond)
        elif self._leader_guard(respond):
            if msg.mode == "fast":
                self._fast(msg.key, start, respond)
            elif msg.mode == "consistent":
                # A marker through the log, right whatever the lease
                # says; it burns a proposal, so it is admitted. The
                # marker orders it in the key's group only: the other
                # wait groups must be past the barrier (a fresh leader's
                # map may be stale), as for a write.
                if not all(map(self.caught_up, self.wait_groups(msg.key)[1:])):
                    _reply(respond, NotReady())
                    return
                self.consistent_reads += 1
                self._admit(respond,
                            lambda r: self._mark(msg.key, start, r),
                            msg.tenant)
            else:
                raise ValueError(f"unknown read mode {msg.mode!r}")

    def _fast(self, key: str, start: float, respond) -> None:
        if not self._ready(self.wait_groups(key)):
            _reply(respond, NotReady())
            return
        self.fast_reads += 1
        self._serve(key, start, respond)

    def _mark(self, key: str, start: float, respond) -> None:
        self._park(self._shard_map().group_of(key),
                   Parked("read", key, 0, None, "", 0,
                          lambda: self._serve(key, start, respond), respond))

    def _follower(self, msg, start: float, respond) -> None:
        """Read-index: serve once the local cursor passes the frontier
        the leader vouches for, which covers every write acked before
        this read began. On the leader (or a server that knows no other
        leader, and fails the check) this is the fast read."""
        host = self._leader_host()
        if host is None:
            self._fast(msg.key, start, respond)
            return
        self.read_index_rounds += 1
        req = ReadIndex(key=msg.key)

        def serve() -> None:
            self.follower_reads += 1
            self._metrics.counter("read.follower").inc(1)
            self._serve(msg.key, start, respond)

        def on_reply(reply) -> None:
            if not isinstance(reply, ReadIndexReply) or not reply.ok:
                # The leader cannot vouch (deposed, lease expired,
                # mid-election): the client retries; waiting here would
                # turn a leadership change into a read outage.
                _reply(respond, NotReady())
                return
            left = [len(reply.frontier)]

            def passed() -> None:
                left[0] -= 1
                if not left[0]:
                    serve()

            for group, index in reply.frontier:
                self._after_apply(group, index, passed)

        self._request(host, req, req.wire_bytes, on_reply=on_reply,
                      timeout=0.5, retries=1, adaptive=True,
                      on_timeout=lambda: _reply(respond, NotReady()))

    def on_read_index(self, msg, src: str, respond) -> None:
        """The leader's side: vouch for the applied frontier only under
        the fast-read conditions, or a deposed-but-unaware leader could
        anchor a follower read behind the true frontier."""
        groups = self.wait_groups(msg.key)
        if not self._ready(groups):
            _reply(respond, ReadIndexReply(ok=False))
            return
        self.read_index_served += 1
        _reply(respond, ReadIndexReply(
            tuple((g, self._cursor(g) - 1) for g in groups), ok=True))

    # -- serving -------------------------------------------------------

    def _serve(self, key: str, start: float, respond) -> None:
        entry = self._store.get(key)
        if entry is None:
            _reply(respond,
                   NotFound(key, map_version=self._shard_map().version))
        elif entry.complete:
            self._answer(key, entry.size, entry.value, start, respond)
        else:
            self._recover(key, entry, start, respond)

    def _answer(self, key: str, size: int, data, start: float,
                respond) -> None:
        now = self._clock.now
        self._metrics.latency("read").record(now - start)
        self._metrics.throughput("read").record(now, size)
        _reply(respond,
               GetOk(key, size, data, map_version=self._shard_map().version))

    def _recover(self, key: str, entry, start: float, respond) -> None:
        """Recovery read (§4.4): only a coded share is local; gather X
        shares, decode, serve."""
        self.recovery_reads += 1
        # The log that chose the entry (tagged on it) holds its record,
        # not necessarily the key's current owner after a migration.
        group = (entry.group if entry.group >= 0
                 else self._shard_map().group_of(key))
        instance = instance_of(entry.version)
        share = entry.value  # this node's coded share, or None
        value_id = share.value_id if share is not None else None
        if share is not None and share.corrupt:
            # Rotten or quarantined: its metadata still names the value,
            # but its bytes must never seed a decode.
            share = None
        if value_id is None:
            rec = self._chosen(group, instance)
            value_id = rec.value_id if rec is not None else None
        if value_id is None:
            _reply(respond,
                   NotFound(key, map_version=self._shard_map().version))
            return
        if share is None:
            self.degraded_reads += 1
            self._metrics.counter("read.degraded").inc(1)

        def on_value(value) -> None:
            data, size = payload_for_key(value.meta, value.data, value.size,
                                         key)
            # Admission on the second hit: a value read once stays a
            # share here; only a re-read of the same version keeps it.
            if self._decoded_once.pop(key, None) == entry.version:
                self._store.put(key, data, size, entry.version,
                                complete=True, group=group)
                self._cache(group, instance, value)
            else:
                self._decoded_once[key] = entry.version
            self._answer(key, size, data, start, respond)

        def gone() -> bool:  # overwritten, and this node retired it since
            return (self._store.get_entry(key) is not entry
                    and self._retired(group, instance))

        self._gather(group, instance, value_id, share, on_value, gone,
                     lambda: self._serve(key, start, respond))
