"""Integration tests for runtime view change (§4.6 / §6.1).

The paper's operational strategy: an N=5, Q=4, θ(3,5) RS-Paxos group
tolerates one crash outright; after that crash the system reconfigures
to N=4, Q=3, θ(2,4) so it can survive a *second* uncorrelated failure.
"""

import pytest

from repro.check import check_view_convergence
from repro.core import Accept, classic_paxos, rs_paxos
from repro.kvstore import build_cluster
from repro.kvstore.reconfig import Reconfig
from repro.rpc import Batch, Request
from repro.rpc.mux import ChannelMsg


def make(seed=1, **kw):
    cluster = build_cluster(rs_paxos(5, 1), seed=seed, num_groups=2, **kw)
    cluster.start()
    cluster.run(until=1.0)
    return cluster


def accepts(payload):
    """(group, Accept) pairs a wire payload carries."""
    if isinstance(payload, Batch):
        return [a for item in payload.items for a in accepts(item)]
    body = payload.body if isinstance(payload, Request) else payload
    if isinstance(body, ChannelMsg) and isinstance(body.body, Accept):
        return [(body.key, body.body)]
    return []


def drop_accepts(c, src, wanted):
    """Drop, for the rest of the run, every Accept that ``src`` sends
    and ``wanted(dst, group, accept)`` selects."""
    send = c.net.send

    def filtered(s, dst, payload, size):
        if s == src and any(wanted(dst, g, a) for g, a in accepts(payload)):
            return
        send(s, dst, payload, size)

    c.net.send = filtered


def leader_dies_between_groups(seed):
    """ROADMAP item 16's first hole. Server 4 is down and the leader
    drops it; its group-1 ``NewView`` Accepts are lost, and it crashes
    right after applying group 0's ``NewView`` (t≈4.003). Group 1 then
    needs the first leader back for a quorum of its N=5 view, so the
    first leader recovers at 5.5 s and a successor is elected. Returns
    the cluster at t=12."""
    c = make(seed)
    c.clients[0].put("pre", 3000, on_done=lambda ok: None)
    c.run(until=3.0)
    c.crash_server(4)
    c.run(until=4.0)
    first = c.leader()
    idx = c.servers.index(first)
    drop_accepts(c, first.name, lambda dst, g, a: (
        g == 1 and a.share.meta.op == "view"))
    apply0 = first.groups[0].on_apply

    def apply_then_crash(instance, rec):
        apply0(instance, rec)
        if rec.value is not None and rec.value.meta.op == "view":
            first.groups[0].on_apply = apply0  # once
            c.sim.call_after(0.0, lambda: c.crash_server(idx))

    first.groups[0].on_apply = apply_then_crash
    first.reconfigure_remove(4)
    c.run(until=5.5)
    assert not first.up and first.view_epoch == 1
    c.recover_server(idx)
    c.run(until=12.0)
    return c


class TestExplicitViewChange:
    def test_shrink_after_crash(self):
        c = make()
        c.clients[0].put("k0", 3000, on_done=lambda ok: None)
        c.run(until=3.0)
        c.crash_server(4)
        c.run(until=4.0)
        leader = c.leader()
        leader.reconfigure_remove(4)
        c.run(until=8.0)
        assert leader.reconfig.view_changes_completed == 1
        # All live servers switched to N=4, Q=3, θ(2,4).
        for s in c.servers[:4]:
            assert s.view_epoch == 1
            assert s.member_ids == {0, 1, 2, 3}
            assert s.config.n == 4
            assert (s.config.q_r, s.config.q_w, s.config.x) == (3, 3, 2)

    def test_writes_resume_with_new_coding(self):
        c = make()
        c.crash_server(4)
        c.run(until=4.0)
        c.leader().reconfigure_remove(4)
        c.run(until=8.0)
        done = []
        c.clients[0].put("new-era", 3000, on_done=lambda ok: done.append(ok))
        c.run(until=12.0)
        assert done == [True]
        # New writes are coded θ(2,4): follower share = half the value.
        follower = next(
            s for s in c.servers[:4] if not s.is_leader_server
        )
        entry = follower.store.get_entry("new-era")
        assert entry is not None and entry.size == 1500

    def test_old_data_readable_without_recode(self):
        """Data coded θ(3,5) before the change stays readable after it
        (optimization 2: confirmation only, no re-spread)."""
        c = make()
        c.clients[0].put("old-data", 3000, on_done=lambda ok: None)
        c.run(until=3.0)
        c.crash_server(4)
        c.run(until=4.0)
        c.leader().reconfigure_remove(4)
        c.run(until=8.0)
        got = []
        c.clients[0].get("old-data", on_done=lambda ok, size: got.append((ok, size)))
        c.run(until=12.0)
        assert got == [(True, 3000)]

    def test_survives_second_crash_after_view_change(self):
        """§6.1: 'This strategy allows the system tolerates two
        uncorrelated failures, given enough time for view change.'"""
        c = make()
        c.clients[0].put("a", 1000, on_done=lambda ok: None)
        c.run(until=3.0)
        # First failure + view change.
        c.crash_server(4)
        c.run(until=4.0)
        c.leader().reconfigure_remove(4)
        c.run(until=8.0)
        # Second failure: a follower of the new 4-member view.
        c.crash_server(3)
        done = []
        c.clients[0].put("b", 1000, on_done=lambda ok: done.append(ok))
        c.run(until=15.0)
        assert done == [True]

    def test_second_leader_crash_after_view_change(self):
        """The Fig. 8 schedule for RS-Paxos: leader killed, view change,
        new leader killed, a third leader still serves."""
        c = make()
        c.clients[0].put("x", 500, on_done=lambda ok: None)
        c.run(until=3.0)
        c.crash_server(0)  # first leader dies
        c.run(until=10.0)
        leader2 = c.leader()
        assert leader2 is not None
        leader2.reconfigure_remove(0)
        c.run(until=15.0)
        assert leader2.reconfig.view_changes_completed == 1
        idx2 = c.servers.index(leader2)
        c.crash_server(idx2)  # second leader dies
        c.run(until=30.0)
        leader3 = c.leader()
        assert leader3 is not None and leader3.up
        done = []
        c.clients[0].put("y", 500, on_done=lambda ok: done.append(ok))
        c.run(until=40.0)
        assert done == [True]

    def test_non_leader_cannot_reconfigure(self):
        c = make()
        follower = next(s for s in c.servers if not s.is_leader_server)
        follower.reconfigure_remove(4)
        c.run(until=3.0)
        assert all(s.view_epoch == 0 for s in c.servers)

    def test_cannot_drop_below_three(self):
        c = build_cluster(classic_paxos(3), seed=2, num_groups=1)
        c.start()
        c.run(until=1.0)
        c.leader().reconfigure_remove(2)
        c.run(until=3.0)
        assert c.leader().view_epoch == 0


class TestResumedViewChange:
    """A view change is one chosen ``NewView`` per group (§4.6). A leader
    that dies between groups leaves the replicated marker: a group on an
    older view than another group chose. Its successor finishes it."""

    def test_successor_finishes_a_half_done_view_change(self):
        c = leader_dies_between_groups(seed=1)
        up = [s for s in c.servers if s.up]
        assert len(up) == 4
        for s in up:
            assert s.view_epoch == 1 and s.member_ids == {0, 1, 2, 3}
            for node in s.groups:
                cfg = node.config
                assert (cfg.n, cfg.q_r, cfg.q_w, cfg.x) == (4, 3, 3, 2)
                assert set(node.peers) == {0, 1, 2, 3}
        assert check_view_convergence(c.servers) == []
        # §6.1: the shrunk view survives a second failure in every group.
        next(s for s in up if not s.is_leader_server).crash()
        done = []
        for i in range(8):
            c.clients[0].put(f"w{i}", 1000, on_done=done.append)
        c.run(until=20.0)
        groups = {c.leader().shard_map.group_of(f"w{i}") for i in range(8)}
        assert groups == {0, 1}
        assert done == [True] * 8

    def test_probe_names_a_group_left_on_the_old_view(self, monkeypatch):
        """Teeth: the end state of the schedule above without the resume
        (as it was before the driver resumed view changes). Every server
        reports epoch 1 over {0, 1, 2, 3}, so a probe that compared only
        the server-level views passed it."""
        monkeypatch.setattr(Reconfig, "_resume_view", lambda self: None)
        c = leader_dies_between_groups(seed=1)
        up = [s for s in c.servers if s.up]
        assert {(s.view_epoch, frozenset(s.member_ids)) for s in up} == {
            (1, frozenset({0, 1, 2, 3}))}
        got = check_view_convergence(c.servers)
        assert {v.kind for v in got} == {"view-convergence"}
        assert {s.name for s in up} == {
            v.detail.split()[0] for v in got if " group 1 runs " in v.detail}
        assert not any(" group 0 runs " in v.detail for v in got)

    def test_unreachable_survivor_aborts_the_change(self):
        """ROADMAP item 16's second hole. Survivor P4 never receives the
        Accept of a θ(3,5) value, so P1, P2, P3 and P5 hold its shares;
        P5 dies, and P4 is cut off while P1 confirms placement for the
        shrink. Committing anyway (what a timed-out confirmation did)
        leaves P4 without a share that a gather can fetch, even after it
        catches up: once P1 dies too, the read quorum {P2, P3, P4} of
        the N=4, Q=3 view holds 2 of the 3 shares the value needs. The
        change aborts instead; retried once P4 is back, the confirmation
        makes P4 hold its share, and the value survives P1's death."""
        c = make(seed=1)
        leader, cut = c.servers[0], c.servers[3]
        assert c.leader() is leader
        drop_accepts(c, leader.name, lambda dst, g, a: (
            dst == cut.name and a.share.meta.key == "old"))
        c.clients[0].put("old", 3000, on_done=lambda ok: None)
        c.run(until=2.0)
        group = leader.shard_map.group_of("old")
        inst = leader.store.get_entry("old").version

        def holders():
            return [s.name for s in c.servers if s.up
                    and s.groups[group].acceptor.accepted_share(inst)]

        assert holders() == ["P1", "P2", "P3", "P5"]
        c.crash_server(4)
        c.run(until=3.0)
        c.net.partition([cut.name],
                        [s.name for s in c.servers if s is not cut], token="cut")
        leader.reconfigure_remove(4)
        c.run(until=9.5)
        assert leader.reconfig.view_changes_aborted == 1
        assert not leader.reconfig.view_changing
        c.net.heal("cut")
        c.run(until=12.0)
        assert all(s.view_epoch == 0 for s in c.servers if s.up)
        leader.reconfigure_remove(4)
        c.run(until=16.0)
        assert all(s.view_epoch == 1 for s in c.servers if s.up)
        assert holders() == ["P1", "P2", "P3", "P4"]
        c.crash_server(0)
        c.run(until=22.0)
        got = []
        c.clients[0].get("old",
                         on_done=lambda ok, size: got.append((ok, size)))
        c.run(until=30.0)
        assert got == [(True, 3000)]


class TestReconfigureAdd:
    """The inverse of the shrink rule: a rebuilt node is re-admitted
    and the view grows back to N=5, Q=4, θ(3,5)."""

    def test_full_remove_rejoin_add_lifecycle(self):
        c = make(seed=5, checkpoint_interval=0.5)
        done0 = []
        c.clients[0].put("era0", 3000, on_done=lambda ok: done0.append(ok))
        c.run(until=3.0)
        assert done0 == [True]
        # Crash + remove: cluster shrinks to N=4, Q=3, θ(2,4).
        c.crash_server(4)
        c.run(until=4.0)
        c.leader().reconfigure_remove(4)
        c.run(until=8.0)
        done1 = []
        c.clients[0].put("era1", 3000, on_done=lambda ok: done1.append(ok))
        c.run(until=10.0)
        assert done1 == [True]
        # The node comes back with a wiped disk, rebuilds via snapshot
        # transfer, and is re-admitted by the leader.
        c.servers[4].wal.wipe()
        c.servers[4].checkpoint_store.wipe()
        c.recover_server(4)
        c.run(until=14.0)
        c.leader().reconfigure_add(4)
        c.run(until=20.0)
        for s in c.servers:
            assert s.view_epoch == 2
            assert s.member_ids == {0, 1, 2, 3, 4}
            assert s.config.n == 5
            assert (s.config.q_r, s.config.q_w, s.config.x) == (4, 4, 3)
        # Writes work under the restored coding, and the whole history
        # — both eras — stays readable.
        done2 = []
        c.clients[0].put("era2", 3000, on_done=lambda ok: done2.append(ok))
        c.run(until=24.0)
        assert done2 == [True]
        got = []
        for key in ("era0", "era1", "era2"):
            c.clients[0].get(key, on_done=lambda ok, size: got.append((ok, size)))
        c.run(until=28.0)
        assert got == [(True, 3000)] * 3

    def test_add_requires_leader(self):
        c = make(seed=6)
        follower = next(s for s in c.servers if not s.is_leader_server)
        follower.reconfigure_add(0)
        c.run(until=3.0)
        assert all(s.view_epoch == 0 for s in c.servers)

    def test_add_existing_member_is_noop(self):
        c = make(seed=7)
        c.leader().reconfigure_add(2)
        c.run(until=3.0)
        assert all(s.view_epoch == 0 for s in c.servers)

    def test_add_unknown_peer_is_noop(self):
        c = make(seed=8)
        c.leader().reconfigure_add(9)
        c.run(until=3.0)
        assert all(s.view_epoch == 0 for s in c.servers)


class TestAutoReconfigure:
    def test_silent_member_dropped_automatically(self):
        c = build_cluster(
            rs_paxos(5, 1), seed=3, num_groups=2, auto_reconfigure=True
        )
        c.start()
        c.run(until=1.0)
        c.crash_server(4)
        # suspicion threshold (~3 s of silence) + evict grace (2 s) +
        # heartbeat cadence + change execution.
        c.run(until=12.0)
        leader = c.leader()
        assert leader.view_epoch == 1
        assert leader.member_ids == {0, 1, 2, 3}

    def test_healthy_members_not_dropped(self):
        c = build_cluster(
            rs_paxos(5, 1), seed=4, num_groups=2, auto_reconfigure=True
        )
        c.start()
        c.run(until=12.0)
        assert all(s.view_epoch == 0 for s in c.servers)
