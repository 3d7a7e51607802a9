"""``Reconfig`` on its own: a fake clock and a fake host, no cluster.

What a view change or a migration does end to end is in
``test_view_change.py``, ``test_membership.py``, ``test_sharding.py``
and the selfheal and migration-chaos goldens; these pin the driver's
own rules — the bounded wait and its budget, the view plan's transfer
and commit (lagging groups only), the abort on an unreachable survivor,
``reset``, resuming from the per-group views, the migration plan's
barrier, copy and commit, and the survivor's side of confirmation.
"""

from types import SimpleNamespace

from repro.core import rs_paxos
from repro.kvstore.messages import (
    Command, ConfirmPlacement, NewView, PlacementGaps, ShardCmd,
)
from repro.kvstore.reconfig import (
    MIGRATION_POLLS, MIGRATION_RETRY, POLL, VIEW_POLLS, Reconfig,
)
from repro.kvstore.shard import ShardMap, encode_version
from repro.storage import LocalStore

from .test_sharefetch import Clock

FIVE = NewView(0, (0, 1, 2, 3, 4), rs_paxos(5, 1))


class Node:
    """The parts of a PaxosNode the driver reads."""

    def __init__(self, peers, node_id=0):
        self.node_id = node_id
        self.peers = {m: f"P{m + 1}" for m in peers}
        self._inflight: dict = {}
        self.chosen: dict = {}
        self.next_instance = 0
        self.apply_cursor = 0
        self.retired_below = 0
        self.votes: dict = {}
        self.acceptor = SimpleNamespace(
            accepted_share=self.votes.get,
            state=SimpleNamespace(floor="floor"))

    def recode_share_for(self, instance, member):
        return SimpleNamespace(size=10, member=member)


class Host:
    """A fake server: records requests, sends, proposals and traces."""

    def __init__(self, groups=2, shard_map=None, store=None):
        self.sim = Clock()
        self.node_id = 0
        self.peers = {m: f"P{m + 1}" for m in range(5)}
        self.groups = [Node(range(5)) for _ in range(groups)]
        self.cfg_group = groups - 1
        self.store = store or LocalStore()
        self.shard_map = shard_map or ShardMap(groups)
        self.up = True
        self.is_leader_server = True
        self.requests: list[SimpleNamespace] = []
        self.sent: list[tuple] = []
        self.proposed: list[tuple] = []
        self.held: list[tuple] = []
        self.traces: list[str] = []
        self.counts: dict[str, int] = {}
        self.metrics = SimpleNamespace(counter=lambda name: SimpleNamespace(
            inc=lambda n: self.counts.__setitem__(
                name, self.counts.get(name, 0) + n)))
        self.endpoint = SimpleNamespace(request=self.request, send=(
            lambda host, msg, size: self.sent.append((host, msg))))
        self.reconfig = Reconfig(self, FIVE)

    def request(self, host, body, size, *, on_reply, on_timeout, **kw):
        self.requests.append(SimpleNamespace(
            host=host, body=body, on_reply=on_reply, on_timeout=on_timeout))

    def leadership_ballot(self):
        return "ballot"

    def propose(self, group, value, on_decided):
        self.proposed.append((group, value, on_decided))
        return True

    def after_apply(self, group, instance, cb):
        cb()

    def with_value(self, group, instance, rec, cont):
        cont(rec)

    def decode_or_give_up(self, group, instance, value_id, seed, cont,
                          rec=None):
        cont(None)

    def hold_share(self, node, instance, ballot, share):
        self.held.append((instance, share))

    def trace(self, text, layer="kv"):
        self.traces.append(text)

    def decide_all(self):
        for i, (group, value, on_decided) in enumerate(self.proposed):
            on_decided(i, value)


def views_proposed(host):
    return [(g, v.meta.arg) for g, v, _ in host.proposed
            if v.meta.op == "view"]


class TestViewPlan:
    def test_drains_then_confirms_then_commits_in_every_group(self):
        host = Host()
        host.groups[1]._inflight[7] = "busy"
        host.reconfig.remove(4)
        assert host.reconfig.view_changing and host.requests == []
        host.sim.advance(5 * POLL)
        assert host.requests == []  # still draining
        del host.groups[1]._inflight[7]
        host.sim.advance(POLL)
        confirms = [r for r in host.requests
                    if isinstance(r.body, ConfirmPlacement)]
        assert sorted((r.body.group, r.host) for r in confirms) == [
            (g, f"P{m}") for g in (0, 1) for m in (2, 3, 4)]
        for r in confirms:
            r.on_reply(PlacementGaps(group=r.body.group, missing=()))
        target = NewView(1, (0, 1, 2, 3), rs_paxos(4, 1))
        assert views_proposed(host) == [(0, target), (1, target)]
        host.decide_all()
        assert not host.reconfig.view_changing
        assert host.reconfig.view_changes_completed == 1
        # The removed member hears one farewell heartbeat of epoch 1.
        assert [(h, m.view_epoch) for h, m in host.sent] == [("P5", 1)]

    def test_a_drain_that_never_ends_aborts(self):
        host = Host()
        host.groups[0]._inflight[3] = "wedged"
        host.reconfig.remove(4)
        host.sim.advance((VIEW_POLLS + 1) * POLL)
        assert host.reconfig.view_changes_aborted == 1
        assert not host.reconfig.view_changing
        assert host.counts == {"view.aborted": 1}
        assert host.requests == [] and host.proposed == []

    def test_an_unreachable_survivor_aborts_the_change(self):
        host = Host(groups=1)
        host.reconfig.remove(4)
        first, *rest = host.requests
        first.on_timeout()
        for r in rest:
            r.on_reply(PlacementGaps(group=0, missing=()))
        assert host.reconfig.view_changes_aborted == 1
        assert host.proposed == []
        assert "view change aborted (survivor 1 unreachable)" in host.traces

    def test_gaps_are_filled_before_the_commit(self):
        host = Host(groups=1)
        node = host.groups[0]
        node.chosen[5] = SimpleNamespace(
            value_id="v", value=SimpleNamespace(meta=Command("put", "k")),
            share=None)
        host.reconfig.remove(4)
        assert {r.body.instances for r in host.requests} == {(5,)}
        for r in host.requests:
            missing = (5,) if r.host == "P3" else ()
            r.on_reply(PlacementGaps(group=0, missing=missing))
        ((dst, install),) = host.sent
        assert (dst, install.instance, install.share.member) == ("P3", 5, 2)
        assert len(views_proposed(host)) == 1

    def test_growth_needs_no_confirmation(self):
        host = Host(groups=1)
        four = NewView(1, (0, 1, 2, 3), rs_paxos(4, 1))
        host.reconfig.views = [four]
        host.groups[0].peers.pop(4)
        host.reconfig.add(4)
        assert host.requests == []
        assert views_proposed(host) == [(0, NewView(2, FIVE.members,
                                                    rs_paxos(5, 1)))]

    def test_reset_stops_an_attempt(self):
        host = Host()
        host.groups[0]._inflight[1] = "busy"
        host.reconfig.remove(4)
        host.reconfig.reset()
        host.groups[0]._inflight.clear()
        host.sim.advance(VIEW_POLLS * POLL)
        assert host.requests == [] and not host.reconfig.view_changing

    def test_only_a_leader_changes_views(self):
        host = Host()
        host.is_leader_server = False
        host.reconfig.remove(4)
        host.reconfig.add(4)
        assert not host.reconfig.view_changing and host.proposed == []


class TestResume:
    def test_a_successor_finishes_only_the_lagging_groups(self):
        host = Host(groups=3)
        four = NewView(1, (0, 1, 2, 3), rs_paxos(4, 1))
        host.reconfig.views[0] = four  # chosen in group 0 only
        host.groups[0].peers.pop(4)
        host.reconfig.resume()
        assert host.reconfig.view_changing
        assert {r.body.group for r in host.requests} == {1, 2}
        for r in host.requests:
            r.on_reply(PlacementGaps(group=r.body.group, missing=()))
        assert views_proposed(host) == [(1, four), (2, four)]
        assert host.traces[0] == "view change: resume epoch 1 in g1, g2"

    def test_nothing_to_resume_when_the_groups_agree(self):
        host = Host()
        host.reconfig.resume()
        host.reconfig.view_applied()
        assert not host.reconfig.view_changing and host.sim.pending() == []

    def test_a_view_applied_at_the_leader_schedules_the_resume(self):
        host = Host()
        host.reconfig.views[1] = NewView(1, (0, 1, 2, 3), rs_paxos(4, 1))
        host.reconfig.view_applied()
        assert host.sim.pending() == [0.0]
        host.sim.advance(0.0)
        assert host.reconfig.view_changing


def migrating_host(src_cursor=0):
    """Group 0 owns ["", "m"), group 1 ["m", +inf) after a split whose
    copy (era 1) is in flight; the store holds two keys of era 0."""
    smap = ShardMap(3, version=1, ranges=(("", "m", 0), ("m", None, 1)),
                    migrating=("m", None, 0, 1))
    store = LocalStore()
    store.put("a", b"a", 1, encode_version(0, 1), complete=True, group=0)
    store.put("p", b"pp", 2, encode_version(0, 2), complete=True, group=0)
    store.put("q", None, 0, encode_version(1, 3), complete=True, group=1)
    host = Host(groups=3, shard_map=smap, store=store)
    host.groups[0].next_instance = 3
    host.groups[0].apply_cursor = src_cursor
    return host


class TestMigrationPlan:
    def test_waits_for_the_source_barrier_then_copies_and_commits(self):
        host = migrating_host(src_cursor=2)
        host.reconfig.resume()
        assert host.proposed == []
        host.groups[0].apply_cursor = 3
        host.sim.advance(POLL)
        # Only "p" is in the range and of an older era. Once its copy is
        # decided and applied, the map that commits the migration follows.
        assert len(host.proposed) == 1
        host.decide_all()
        host.sim.advance(0.0)
        (copy, commit) = [(g, v.meta) for g, v, _ in host.proposed]
        assert copy == (1, Command("copy", "p", mapv=1))
        assert commit[0] == 2 and isinstance(commit[1].arg, ShardCmd)
        assert commit[1].arg.version == 2 and commit[1].arg.migrating is None
        assert host.reconfig.copies_proposed == 1
        host.reconfig.migration_committed()
        assert host.reconfig.migrations_completed == 1

    def test_a_source_that_never_applies_retries_later(self):
        host = migrating_host()
        host.reconfig.resume()
        host.sim.advance((MIGRATION_POLLS + 1) * POLL)
        assert host.proposed == []
        starts = [t for t in host.traces if t.startswith("migration driver")]
        assert len(starts) == 1
        host.sim.advance(MIGRATION_RETRY)
        starts = [t for t in host.traces if t.startswith("migration driver")]
        assert len(starts) == 2

    def test_an_unreconstructible_value_retries_the_copy(self):
        host = migrating_host(src_cursor=3)
        host.store.put("p", "share", 1, encode_version(0, 2), complete=False,
                       group=0)
        host.reconfig.resume()
        host.sim.advance(0.0)
        assert host.proposed == []
        assert host.counts == {"shard.copy_retries": 1}


class TestSurvivorSide:
    def confirm(self, host, *instances):
        replies = []
        host.reconfig.on_confirm_placement(
            ConfirmPlacement(group=0, instances=instances), "P1",
            lambda msg, size: replies.append(msg))
        return replies[0].missing

    def share(self, index):
        return SimpleNamespace(index=index, members=(0, 1, 2, 3, 4),
                               corrupt=False)

    def test_a_vote_is_held(self):
        host = Host(groups=1)
        host.groups[0].votes[4] = self.share(0)
        assert self.confirm(host, 4) == () and host.held == []

    def test_a_learned_share_of_our_own_is_held_like_a_vote(self):
        host = Host(groups=1)
        mine = self.share(0)
        host.groups[0].chosen[4] = SimpleNamespace(share=mine)
        assert self.confirm(host, 4) == ()
        assert host.held == [(4, mine)]

    def test_a_learned_share_of_another_replica_is_a_gap(self):
        host = Host(groups=1)
        host.groups[0].chosen[4] = SimpleNamespace(share=self.share(2))
        host.groups[0].chosen[5] = SimpleNamespace(share=None)
        assert self.confirm(host, 4, 5) == (4, 5) and host.held == []

    def test_instances_below_the_compaction_floor_are_never_gaps(self):
        host = Host(groups=1)
        host.groups[0].retired_below = 10
        assert self.confirm(host, 4, 12) == (12,)
