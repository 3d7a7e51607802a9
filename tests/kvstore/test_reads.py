"""``ReadPath`` on its own: a fake clock, a real ``LocalStore`` and
recorded callables, no cluster, no simulator.

What the read modes do end to end (through failovers, rotten shares and
a migrating shard map) is in ``test_readpath.py``, ``test_failover.py``,
``test_read_retention.py``, ``test_sharding.py`` and the ``read_modes``
golden; these pin the component's own rules — the election read
barrier, both sides of read-index, serving, the recovery read and its
second-hit rule.
"""

from types import SimpleNamespace

import pytest

from repro.kvstore import ShardMap
from repro.kvstore.messages import (
    ClientGet,
    Command,
    GetOk,
    NotFound,
    NotReady,
    ReadIndex,
    ReadIndexReply,
    Redirect,
)
from repro.kvstore.reads import ReadPath
from repro.sim import MetricSet
from repro.storage import LocalStore

from .test_sharefetch import Clock


def share(value_id="v1", corrupt=False):
    return SimpleNamespace(value_id=value_id, corrupt=corrupt)


def value(key, data=b"abc"):
    return SimpleNamespace(meta=Command("put", key), data=data,
                           size=len(data))


class Rig:
    """A ReadPath over one group whose callables are this object's
    state: ``leader`` (does the leader guard pass), ``lease`` (the
    server's half of a fast read), ``host`` (the leader's, for a
    read-index round), ``cursor``; it records ``replies``, ``sent``
    requests, ``parked`` after-apply callbacks, ``marked`` consistent-
    read markers, ``gathers`` and ``cached`` values."""

    def __init__(self, shard_map=None, cfg_group=None):
        self.clock = Clock()
        self.store = LocalStore()
        self.metrics = MetricSet()
        self.leader = True
        self.lease = True
        self.host = None
        self.cursor = 0
        self.map = shard_map or ShardMap(1)
        self.chosen: dict[int, str] = {}
        self.retired: set[int] = set()
        self.replies: list = []
        self.sent: list = []
        self.parked: list = []
        self.marked: list = []
        self.gathers: list = []
        self.cached: list = []
        self.reads = ReadPath(
            self.clock, self.store, self.metrics, 1, cfg_group,
            leader_guard=self.guard,
            lease_ready=lambda: self.lease, leader_host=lambda: self.host,
            shard_map=lambda: self.map, cursor=lambda g: self.cursor,
            after_apply=lambda g, i, cb: self.parked.append((g, i, cb)),
            request=self.request,
            admit=lambda respond, start, tenant: start(respond),
            park=lambda g, entry: self.marked.append((g, entry)),
            chosen=lambda g, i: (SimpleNamespace(value_id=self.chosen[i])
                                 if i in self.chosen else None),
            retired=lambda g, i: i in self.retired,
            gather=lambda *args: self.gathers.append(args),
            cache=lambda g, i, v: self.cached.append((g, i, v)),
        )

    def guard(self, respond) -> bool:
        if not self.leader:
            respond(Redirect(None), 0)
        return self.leader

    def request(self, host, body, size, **kw):
        self.sent.append(SimpleNamespace(host=host, body=body, **kw))
        return len(self.sent)

    def respond(self, msg, size):
        self.replies.append(msg)

    def get(self, key, mode="fast"):
        """The reply ``get`` gave at once, or None."""
        before = len(self.replies)
        self.reads.get(ClientGet(key, mode), self.respond)
        return self.replies[-1] if len(self.replies) > before else None


def test_barrier_elected_caught_up_reset():
    rig = Rig()
    assert rig.reads.caught_up(0)          # no election yet: barrier -1
    rig.reads.elected([5])
    rig.cursor = 5
    assert not rig.reads.caught_up(0)
    rig.cursor = 6
    assert rig.reads.caught_up(0)
    rig.cursor = 0
    rig.reads.reset()
    assert rig.reads.caught_up(0)


@pytest.mark.parametrize("lease,cursor", [(True, 3), (False, 4)],
                         ids=["before-barrier", "no-lease"])
def test_fast_read_refused(lease, cursor):
    rig = Rig()
    rig.store.put("k", b"x", 1, 1)
    rig.reads.elected([3])
    rig.lease, rig.cursor = lease, cursor
    assert isinstance(rig.get("k"), NotReady)
    assert rig.reads.fast_reads == 0


def test_fast_read_served_past_the_barrier_with_the_lease():
    rig = Rig()
    rig.store.put("k", b"x", 1, 1)
    rig.reads.elected([3])
    rig.cursor = 4
    reply = rig.get("k")
    assert isinstance(reply, GetOk) and reply.data == b"x"
    assert rig.reads.fast_reads == 1


def test_fast_read_behind_the_leader_guard():
    rig = Rig()
    rig.leader = False
    assert isinstance(rig.get("k"), Redirect)
    assert rig.reads.fast_reads == 0


def test_follower_mode_on_the_leader_is_a_fast_read():
    rig = Rig()
    rig.store.put("k", b"x", 1, 1)
    assert isinstance(rig.get("k", "follower"), GetOk)
    assert rig.reads.fast_reads == 1
    assert rig.reads.read_index_rounds == 0 and rig.sent == []


def test_follower_mode_with_no_known_leader_is_not_ready():
    rig = Rig()
    rig.lease = False                      # not the leader either
    assert isinstance(rig.get("k", "follower"), NotReady)
    assert rig.reads.read_index_rounds == 0 and rig.sent == []


def follower_round(rig):
    rig.host = "P1"
    rig.store.put("k", b"x", 1, 1)
    assert rig.get("k", "follower") is None  # waits for the leader
    (req,) = rig.sent
    assert req.host == "P1" and req.body == ReadIndex(key="k")
    assert rig.reads.read_index_rounds == 1
    return req


@pytest.mark.parametrize("outcome", ["refused", "timeout"])
def test_read_index_refusal_and_timeout_answer_not_ready(outcome):
    rig = Rig()
    req = follower_round(rig)
    if outcome == "refused":
        req.on_reply(ReadIndexReply(ok=False))
    else:
        req.on_timeout()
    assert isinstance(rig.replies[-1], NotReady)
    assert rig.parked == [] and rig.reads.follower_reads == 0


def test_read_index_parks_until_the_cursor_passes_then_serves():
    rig = Rig()
    follower_round(rig).on_reply(
        ReadIndexReply(((0, 9), (3, 4)), ok=True))
    assert [(g, i) for g, i, _ in rig.parked] == [(0, 9), (3, 4)]
    rig.parked[1][2]()
    assert rig.replies == []               # one group still behind
    rig.parked[0][2]()
    assert isinstance(rig.replies[-1], GetOk)
    assert rig.reads.follower_reads == 1
    assert rig.metrics.counter("read.follower").value == 1


@pytest.mark.parametrize("lease,cursor,ok", [
    (False, 8, False), (True, 2, False), (True, 8, True),
], ids=["no-lease", "before-barrier", "ready"])
def test_on_read_index_vouches_only_when_fast_ready(lease, cursor, ok):
    rig = Rig()
    rig.reads.elected([2])
    rig.lease, rig.cursor = lease, cursor
    rig.reads.on_read_index(ReadIndex(key="k"), "P3", rig.respond)
    (reply,) = rig.replies
    assert reply.ok is ok
    assert reply.frontier == (((0, cursor - 1),) if ok else ())
    assert rig.reads.read_index_served == int(ok)


def test_wait_groups_static_is_the_key_group_alone():
    rig = Rig(ShardMap(4))
    assert rig.reads.wait_groups("k") == [ShardMap(4).group_of("k")]


def test_wait_groups_add_a_covering_migration_source_and_the_config_group():
    smap = ShardMap.single_range(3).begin_split("k", 1)  # [k, ...) 0 -> 1
    rig = Rig(smap, cfg_group=3)
    assert rig.reads.wait_groups("m") == [1, 0, 3]
    assert rig.reads.wait_groups("a") == [0, 3]          # not moving
    rig.map = smap.commit_migration()
    assert rig.reads.wait_groups("m") == [1, 3]


def test_a_fast_read_waits_for_every_wait_group():
    rig = Rig(ShardMap.single_range(2), cfg_group=2)
    rig.store.put("k", b"x", 1, 1)
    rig.reads.elected([0, -1, 5])                        # config group last
    rig.cursor = 3                                       # past 0, not 5
    assert isinstance(rig.get("k"), NotReady)
    rig.reads.on_read_index(ReadIndex(key="k"), "P3", rig.respond)
    assert rig.replies[-1].ok is False
    rig.cursor = 6
    assert isinstance(rig.get("k"), GetOk)
    rig.reads.on_read_index(ReadIndex(key="k"), "P3", rig.respond)
    assert rig.replies[-1].frontier == ((0, 5), (2, 5))


def test_a_consistent_read_waits_for_the_other_wait_groups():
    rig = Rig(ShardMap.single_range(2), cfg_group=2)
    rig.reads.elected([9, -1, 5])     # its own group is the marker's job
    rig.cursor = 3
    assert isinstance(rig.get("k", "consistent"), NotReady)
    rig.cursor = 6
    assert rig.get("k", "consistent") is None and len(rig.marked) == 1
    assert rig.reads.consistent_reads == 1


def test_consistent_read_is_a_marker_served_on_apply():
    rig = Rig()
    rig.store.put("k", b"x", 1, 1)
    assert rig.get("k", "consistent") is None
    ((group, entry),) = rig.marked
    assert (group, entry.op, entry.key) == (0, "read", "k")
    entry.finish()
    assert isinstance(rig.replies[-1], GetOk)
    assert rig.reads.consistent_reads == 1


def test_unknown_mode_raises():
    with pytest.raises(ValueError):
        Rig().get("k", "stale")


def share_only(rig, key="k", version=7, **kw):
    rig.store.put(key, share(**kw), 10, version, complete=False, group=0)
    return rig.store.get_entry(key)


def test_second_hit_rule():
    rig = Rig()
    share_only(rig)
    for n in (1, 2):
        assert rig.get("k", "snapshot") is None
        group, instance, value_id, seed, on_value, gone, on_gone = \
            rig.gathers[-1]
        assert (group, instance, value_id) == (0, 7, "v1")
        on_value(value("k"))
        assert isinstance(rig.replies[-1], GetOk)
        if n == 1:                         # the first decode keeps nothing
            assert not rig.store.get("k").complete and rig.cached == []
    entry = rig.store.get("k")
    assert entry.complete and entry.value == b"abc" and entry.version == 7
    assert [(g, i) for g, i, _ in rig.cached] == [(0, 7)]
    assert rig.reads.recovery_reads == 2 and rig.reads.snapshot_reads == 2
    assert rig.reads.degraded_reads == 0


def test_reset_forgets_the_first_hit():
    rig = Rig()
    share_only(rig)
    rig.get("k", "snapshot")
    rig.gathers[-1][4](value("k"))
    rig.reads.reset()
    rig.get("k", "snapshot")
    rig.gathers[-1][4](value("k"))
    assert not rig.store.get("k").complete and rig.cached == []


def test_a_newer_version_is_a_first_hit_again():
    rig = Rig()
    share_only(rig, version=7)
    rig.get("k", "snapshot")
    rig.gathers[-1][4](value("k"))
    share_only(rig, version=8)
    rig.get("k", "snapshot")
    rig.gathers[-1][4](value("k"))
    assert not rig.store.get("k").complete


def test_a_corrupt_share_is_a_degraded_read():
    rig = Rig()
    share_only(rig, corrupt=True)
    rig.get("k", "snapshot")
    _, _, value_id, seed, *_ = rig.gathers[-1]
    assert value_id == "v1" and seed is None  # named, never decoded
    assert rig.reads.degraded_reads == 1
    assert rig.metrics.counter("read.degraded").value == 1


def test_gone_re_serves_what_the_store_now_holds():
    rig = Rig()
    share_only(rig)
    rig.get("k", "snapshot")
    *_, gone, on_gone = rig.gathers[-1]
    assert not gone()
    rig.store.put("k", b"new", 3, 9, group=0)  # overwritten ...
    assert not gone()
    rig.retired.add(7)                         # ... and retired here
    assert gone()
    on_gone()
    assert rig.replies[-1].data == b"new"


def test_no_value_id_is_not_found():
    rig = Rig()
    rig.store.put("k", None, 0, 7, complete=False, group=0)
    assert isinstance(rig.get("k", "snapshot"), NotFound)
    assert rig.gathers == []
    rig.chosen[7] = "v9"                   # the log names it: gather
    rig.get("k", "snapshot")
    assert rig.gathers[-1][2] == "v9" and rig.reads.degraded_reads == 1
