"""Self-healing membership: accrual detection + replica replacement.

Unit tests drive :mod:`repro.kvstore.membership` against a bare clock
(no simulator); integration tests run the full cluster and cover the
crash-safety corners of the eviction pipeline — a leader dying between
the optimization-2 confirmation and the view proposal, two leaders
racing removals of different nodes, and the drain-budget abort.
"""

import pytest

from repro.check import check_cluster
from repro.core import rs_paxos
from repro.core.value import Value
from repro.kvstore import build_cluster
from repro.kvstore.membership import (
    AWAITING_REPLACEMENT,
    EVICTING,
    HEALTHY,
    REBUILDING,
    RESTORING,
    SUSPECT,
    AccrualFailureDetector,
    RepairController,
)


def detector(**kw):
    kw.setdefault("threshold", 6.0)
    kw.setdefault("heartbeat_interval", 0.5)
    return AccrualFailureDetector(**kw)


class TestAccrualDetector:
    def test_score_grows_with_silence(self):
        d = detector()
        d.seed([1], now=0.0)
        assert d.score(1, 0.0) == 0.0
        assert d.score(1, 1.5) == pytest.approx(3.0)  # 1.5s / 0.5s hb
        d.heard(1, 2.0)
        assert d.score(1, 2.0) == 0.0

    def test_never_seeded_peer_has_no_opinion(self):
        d = detector()
        assert d.score(9, 100.0) == 0.0
        assert d.suspect_since(9, 100.0) is None

    def test_interval_history_normalizes_score(self):
        # A peer acking every 2s is not "silent" after 3s the way a
        # peer acking every 0.5s is.
        d = detector()
        d.seed([1], now=0.0)
        for t in (2.0, 4.0, 6.0, 8.0):
            d.heard(1, t)
        assert d.expected_interval(1) == pytest.approx(2.0)
        assert d.score(1, 11.0) == pytest.approx(1.5)

    def test_burst_cannot_make_detector_hair_triggered(self):
        # Mean inter-arrival floors at the heartbeat interval.
        d = detector()
        d.seed([1], now=0.0)
        for i in range(10):
            d.heard(1, 0.01 * (i + 1))
        assert d.expected_interval(1) == pytest.approx(0.5)

    def test_hysteresis_band(self):
        d = detector()
        d.seed([1], now=0.0)
        # Crosses the threshold at 3s of silence (score 6.0).
        assert d.suspect_since(1, 2.9) is None
        assert d.suspect_since(1, 3.0) == pytest.approx(3.0)
        # One ack inflates the expected interval to 3.0s and drops the
        # score below threshold — but suspicion only clears below
        # threshold/2, so the original crossing time is retained.
        d.heard(1, 3.0)
        assert d.suspect_since(1, 13.0) == pytest.approx(3.0)  # score 10/3
        d.heard(1, 13.0)
        assert d.suspect_since(1, 13.1) is None  # score ~0 < threshold/2

    def test_seed_resets_history_and_suspicion(self):
        d = detector()
        d.seed([1, 2], now=0.0)
        assert d.suspect_since(1, 10.0) is not None
        d.seed([1, 2], now=10.0)
        assert d.suspect_since(1, 10.0) is None
        assert d.score(1, 10.0) == 0.0

    def test_clear_suspicions_restarts_grace(self):
        d = detector()
        d.seed([1], now=0.0)
        # The crossing is stamped at the first query at/over threshold.
        assert d.suspect_since(1, 5.0) == pytest.approx(5.0)
        d.clear_suspicions()
        # Still silent, so suspicion re-fires — but the clock restarts.
        assert d.suspect_since(1, 6.0) == pytest.approx(6.0)

    def test_quiet_peers_correlation_probe(self):
        d = detector()
        d.seed([1, 2, 3], now=0.0)
        d.heard(3, 1.4)
        # At t=1.5: peers 1,2 are at score 3.0 (>= threshold/2), peer 3
        # just acked.
        assert d.quiet_peers(1.5) == {1, 2}


class FakeActuators:
    """Records evict/restore/probe calls; probe replies are scripted."""

    def __init__(self):
        self.evicted = []
        self.restored = []
        self.probes = []
        self.probe_reply = None  # None=silent, False=rebuilding, True=ready

    def evict(self, nid):
        self.evicted.append(nid)

    def restore(self, nid):
        self.restored.append(nid)

    def probe(self, nid, cb):
        self.probes.append(nid)
        cb(self.probe_reply)


def controller(acts, det=None, **kw):
    det = det or detector()
    kw.setdefault("f", 1)
    kw.setdefault("evict_grace", 2.0)
    return RepairController(
        0, det, evict=acts.evict, restore=acts.restore, probe=acts.probe,
        **kw,
    ), det


class TestRepairController:
    MEMBERS = {0, 1, 2, 3, 4}

    def boot(self, **kw):
        acts = FakeActuators()
        ctl, det = controller(acts, **kw)
        det.seed([1, 2, 3, 4], now=0.0)
        ctl.resume(0.0, set(self.MEMBERS), set(self.MEMBERS))
        return ctl, det, acts

    def tick(self, ctl, now, members=None, op=False, suppressed=False):
        ctl.tick(now, set(members or self.MEMBERS), op_in_flight=op,
                 suppressed=suppressed)

    def test_full_lifecycle(self):
        ctl, det, acts = self.boot()
        # Peer 4 never acks after the seed; 1-3 ack at every tick.
        for nid in (1, 2, 3):
            det.heard(nid, 4.5)
        self.tick(ctl, 4.5)
        assert ctl.state[4] == SUSPECT
        assert acts.evicted == []
        for nid in (1, 2, 3):
            det.heard(nid, 6.5)
        self.tick(ctl, 6.5)  # 2s grace spent since the 4.5 crossing
        assert ctl.state[4] == EVICTING
        assert acts.evicted == [4]
        # The removal view commits: the server reports it.
        ctl.note_evicted(7.0, 4)
        assert ctl.state[4] == AWAITING_REPLACEMENT
        assert ctl.eviction_events == [(7.0, 4)]
        # Spare silent, then rebuilding, then ready.
        for nid in (1, 2, 3):
            det.heard(nid, 8.0)
        self.tick(ctl, 8.0, members={0, 1, 2, 3})
        assert acts.probes == [4]
        assert ctl.state[4] == AWAITING_REPLACEMENT
        acts.probe_reply = False
        for nid in (1, 2, 3):
            det.heard(nid, 9.5)
        self.tick(ctl, 9.5, members={0, 1, 2, 3})
        assert ctl.state[4] == REBUILDING
        acts.probe_reply = True
        for nid in (1, 2, 3):
            det.heard(nid, 11.0)
        self.tick(ctl, 11.0, members={0, 1, 2, 3})
        for nid in (1, 2, 3):
            det.heard(nid, 12.5)
        self.tick(ctl, 12.5, members={0, 1, 2, 3})
        assert ctl.state[4] == RESTORING
        assert acts.restored == [4]
        # The add view commits: 4 reappears in the membership.
        for nid in (1, 2, 3):
            det.heard(nid, 13.0)
        self.tick(ctl, 13.0)
        assert ctl.state[4] == HEALTHY
        assert ctl.replacement_events == [(13.0, 4, 6.0)]

    def test_resume_reconstructs_from_membership(self):
        acts = FakeActuators()
        ctl, _ = controller(acts)
        # Known peers 1-4, but 3 is missing from the current view: a
        # predecessor evicted it; the new leader resumes mid-cycle.
        ctl.resume(50.0, {0, 1, 2, 4}, {0, 1, 2, 3, 4})
        assert ctl.state == {
            1: HEALTHY, 2: HEALTHY, 4: HEALTHY, 3: AWAITING_REPLACEMENT,
        }

    def test_correlated_silence_suppresses(self):
        ctl, det, acts = self.boot()
        # Everyone quiet at once: at F=1 that is a partition signature,
        # never independent deaths — the whole pipeline freezes.
        self.tick(ctl, 8.0)
        assert acts.evicted == []
        assert ctl.suppressed_ticks == 1

    def test_one_membership_op_per_tick(self):
        # With F=2, two dead peers do not look like a partition — but
        # still at most one membership operation starts per tick.
        acts = FakeActuators()
        ctl, det = controller(acts, f=2)
        det.seed([1, 2, 3, 4], now=0.0)
        ctl.resume(0.0, set(self.MEMBERS), set(self.MEMBERS))
        for nid in (1, 2):
            det.heard(nid, 3.5)
        self.tick(ctl, 3.5)
        assert ctl.state[3] == SUSPECT and ctl.state[4] == SUSPECT
        for nid in (1, 2):
            det.heard(nid, 5.5)
        self.tick(ctl, 5.5)  # both past grace; lowest id goes first
        assert acts.evicted == [3]
        assert ctl.state[4] == SUSPECT
        ctl.note_evicted(5.6, 3)
        for nid in (1, 2):
            det.heard(nid, 6.0)
        self.tick(ctl, 6.0, members={0, 1, 2, 4})
        assert acts.evicted == [3, 4]

    def test_suppression_resets_grace(self):
        ctl, det, acts = self.boot()
        for nid in (1, 2, 3):
            det.heard(nid, 5.5)
        self.tick(ctl, 5.5)  # 4 suspect since ~3.0, grace not yet spent
        assert ctl.state[4] == SUSPECT
        # A partition becomes plausible: suspicion clears entirely.
        for nid in (1, 2, 3):
            det.heard(nid, 6.0)
        self.tick(ctl, 6.0, suppressed=True)
        assert ctl.state[4] == HEALTHY
        # Suppression lifts; the grace restarts from the new crossing,
        # so nothing is evicted for another full threshold + grace.
        for nid in (1, 2, 3):
            det.heard(nid, 7.0)
        self.tick(ctl, 7.0)
        assert acts.evicted == []

    def test_no_eviction_while_op_in_flight(self):
        ctl, det, acts = self.boot()
        for nid in (1, 2, 3):
            det.heard(nid, 4.0)
        self.tick(ctl, 4.0)  # records the suspicion crossing for 4
        for nid in (1, 2, 3):
            det.heard(nid, 8.0)
        self.tick(ctl, 8.0, op=True)  # grace long spent, but op busy
        assert acts.evicted == []
        self.tick(ctl, 8.1)
        assert acts.evicted == [4]

    def test_aborted_eviction_retries_with_backoff(self):
        ctl, det, acts = self.boot(backoff_initial=4.0)
        for nid in (1, 2, 3):
            det.heard(nid, 4.0)
        self.tick(ctl, 4.0)  # crossing at 4.0
        for nid in (1, 2, 3):
            det.heard(nid, 6.0)
        self.tick(ctl, 6.0)
        assert acts.evicted == [4] and ctl.state[4] == EVICTING
        # The view change aborted (op no longer in flight, member still
        # present): back to SUSPECT, next attempt only after backoff
        # (doubled once at evict time, once at abort detection).
        for nid in (1, 2, 3):
            det.heard(nid, 6.5)
        self.tick(ctl, 6.5)
        assert ctl.state[4] == SUSPECT
        for nid in (1, 2, 3):
            det.heard(nid, 8.0)
        self.tick(ctl, 8.0)
        assert acts.evicted == [4]  # still just the one attempt
        for nid in (1, 2, 3):
            det.heard(nid, 15.0)
        self.tick(ctl, 15.0)
        assert acts.evicted == [4, 4]

    def test_min_members_floor(self):
        acts = FakeActuators()
        ctl, det = controller(acts, min_members=4)
        det.seed([1, 2, 3], now=0.0)
        ctl.resume(0.0, {0, 1, 2, 3}, {0, 1, 2, 3})
        for nid in (1, 2):
            det.heard(nid, 8.0)
        ctl.tick(8.0, {0, 1, 2, 3}, op_in_flight=False, suppressed=False)
        # Evicting 3 would leave 3 members < min_members: refused.
        assert acts.evicted == []

    def test_racing_leader_eviction_reconciled(self):
        ctl, det, acts = self.boot()
        # Peer 2 vanishes from the replicated view without us ever
        # starting an eviction: another leader removed it. Adopt.
        self.tick(ctl, 5.0, members={0, 1, 3, 4})
        assert ctl.state[2] == AWAITING_REPLACEMENT
        assert ctl.eviction_events == [(5.0, 2)]


def make(seed=1, **kw):
    cluster = build_cluster(rs_paxos(5, 1), seed=seed, num_groups=2, **kw)
    cluster.start()
    cluster.run(until=1.0)
    return cluster


class TestSelfHealingIntegration:
    def test_no_false_eviction_under_partial_cut(self):
        """A 3 s one-way cut leader->follower must not cost the
        follower its seat: pre-vote traffic from the deaf member makes
        the partition plausible and suppresses eviction."""
        c = make(seed=21, auto_reconfigure=True)
        c.run(until=2.0)
        leader = c.leader()
        deaf = next(s for s in c.servers if not s.is_leader_server)
        c.net.sever(leader.name, deaf.name, token="cut")
        c.run(until=5.0)
        c.net.heal("cut")
        c.run(until=14.0)
        assert all(s.view_epoch == 0 for s in c.servers)
        assert sum(len(s.repair.eviction_events) for s in c.servers) == 0

    def test_full_perma_crash_lifecycle(self):
        """Wipe -> auto-evict -> spare provisioned -> rebuild ->
        auto re-admission, no operator calls anywhere."""
        c = make(seed=22, auto_reconfigure=True, auto_heal=True,
                 checkpoint_interval=1.0)
        done = []
        c.clients[0].put("pre", 3000, on_done=lambda ok: done.append(ok))
        c.run(until=3.0)
        assert done == [True]
        c.wipe_server(4)
        c.run(until=12.0)
        # Evicted: the survivors run the shrunk view.
        assert sum(len(s.repair.eviction_events) for s in c.servers) == 1
        assert all(s.member_ids == {0, 1, 2, 3} for s in c.servers[:4])
        c.recover_server(4)
        c.run(until=25.0)
        # Re-admitted after rebuild: back to the full 5-member view.
        assert sum(len(s.repair.replacement_events) for s in c.servers) == 1
        for s in c.servers:
            assert s.view_epoch == 2
            assert s.member_ids == {0, 1, 2, 3, 4}
        got = []
        c.clients[0].get("pre", on_done=lambda ok, size: got.append((ok, size)))
        c.run(until=28.0)
        assert got == [(True, 3000)]
        assert check_cluster(c.servers, rs_paxos(5, 1)) == []

    def test_leader_crash_between_confirmation_and_proposal(self):
        """The evicting leader dies after the optimization-2
        confirmation completes but before the view instances are
        proposed. Nothing was replicated, so the successor must run the
        whole eviction again — and does, off its own detector."""
        c = make(seed=23, auto_reconfigure=True)
        c.run(until=2.0)
        leader = c.leader()
        idx = c.servers.index(leader)

        def crash_instead(run, target):
            c.crash_server(idx)

        leader.reconfig._commit_view = crash_instead
        c.crash_server(4)
        c.run(until=3.0)
        leader.reconfigure_remove(4)
        c.run(until=6.0)
        # The leader crashed mid-change; no view was committed.
        assert all(s.view_epoch == 0 for s in c.servers if s.up)
        # Both the old leader and 4 are down: >F quiet suppresses the
        # successor until the old leader recovers and acks again.
        c.recover_server(idx)
        c.run(until=25.0)
        settled = [s for s in c.servers if s.up]
        assert len(settled) == 4
        for s in settled:
            assert s.view_epoch == 1
            assert s.member_ids == {0, 1, 2, 3, 4} - {4}
        assert check_cluster(settled, rs_paxos(5, 1)) == []

    def test_two_leaders_racing_different_removals(self):
        """Old leader (partitioned mid-change) races the successor:
        each proposes removing a *different* node. Exactly one removal
        commits; after the heal every replica converges on that view."""
        c = make(seed=24)
        c.run(until=2.0)
        l1 = c.leader()
        others = [s for s in c.servers if s is not l1]
        # Targets: l1 tries to drop others[0]; the successor will drop
        # others[1]. Both targets stay alive throughout.
        t1 = others[0].node_id
        c.net.partition([l1.name], [s.name for s in others], token="split")
        l1.reconfigure_remove(t1)
        # Majority side elects a successor, which removes a different
        # node while l1's change is stalled behind the partition.
        c.run(until=8.0)
        l2 = c.leader()
        assert l2 is not None and l2 is not l1
        t2 = next(s.node_id for s in others if s is not l2 and s.node_id != t1)
        l2.reconfigure_remove(t2)
        c.run(until=12.0)
        c.net.heal("split")
        c.run(until=20.0)
        # Only the successor's removal committed; l1 adopted it.
        expect = {0, 1, 2, 3, 4} - {t2}
        for s in c.servers:
            assert s.view_epoch == 1
            assert s.member_ids == expect
        done = []
        c.clients[0].put("after", 2000, on_done=lambda ok: done.append(ok))
        c.run(until=24.0)
        assert done == [True]
        assert check_cluster(c.servers, rs_paxos(5, 1)) == []

    def test_drain_budget_abort(self):
        """A wedged in-flight proposal must not fence writes forever:
        the drain gives up after VIEW_POLLS polls and the change
        aborts, counted in view_changes_aborted."""
        c = make(seed=25)
        c.run(until=2.0)
        leader = c.leader()
        # Wedge the pipeline: a proposal that will never resolve.
        leader.groups[0]._inflight[999] = Value("wedge", 0, None)
        leader.reconfigure_remove(4)
        c.run(until=4.0)
        assert leader.reconfig.view_changes_aborted == 1
        assert leader.reconfig.view_changing is False
        assert all(s.view_epoch == 0 for s in c.servers)

    def test_fresh_leader_does_not_evict_unmet_peer(self):
        """Detector seeding (satellite fix): a new leader must measure
        silence from its own acquisition, not from a default in the
        past — a cut survivor it has never heard from is not dead."""
        c = make(seed=26, auto_reconfigure=True)
        c.run(until=2.0)
        l1 = c.leader()
        victim = next(s for s in c.servers if not s.is_leader_server)
        # Cut the victim off, then crash the leader: the successor
        # acquires leadership never having heard the victim ack.
        c.net.partition(
            [victim.name],
            [s.name for s in c.servers if s is not victim],
            token="cut",
        )
        c.crash_server(c.servers.index(l1))
        c.run(until=6.5)
        c.net.heal("cut")
        c.run(until=12.0)
        # The cut member kept its seat; only real membership changes
        # (none) may have happened.
        assert victim.node_id in (c.leader() or victim).member_ids
        assert sum(len(s.repair.eviction_events) for s in c.servers) == 0
