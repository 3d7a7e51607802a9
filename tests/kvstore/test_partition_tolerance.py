"""Pre-vote, check-quorum step-down, and election edge cases.

The partial-partition failure modes: a one-way-deaf follower must not
depose a healthy leader (pre-vote + leader stickiness), a leader that
cannot hear its renewal quorum must demote instead of limping
(check-quorum), and the election races that already existed — colliding
rank-staggered timers, a deposed leader's stale heartbeat, a rebuilding
observer — must resolve to exactly one leader.
"""

import pytest

from repro.core import Ballot, classic_paxos, rs_paxos
from repro.kvstore import build_cluster
from repro.kvstore.messages import Heartbeat, PreVote, PreVoteReply


def make(config=None, seed=1, **kw):
    cluster = build_cluster(config or rs_paxos(5, 1), seed=seed, **kw)
    cluster.start()
    cluster.run(until=1.0)
    return cluster


def leaders(c):
    return [s for s in c.servers if s.up and s.is_leader_server]


class TestPreVoteStickiness:
    def test_deaf_follower_never_deposes_healthy_leader(self):
        """Sever leader->follower only: the follower's vacancy timer
        lapses forever, but peers still hearing the leader refuse its
        pre-votes — zero elections, leadership unmoved."""
        c = make()
        leader = c.servers[0]
        deaf = c.servers[1]
        elections_before = sum(s.elections_started for s in c.servers)
        c.net.sever(leader.name, deaf.name, token="deaf")
        c.run(until=20.0)
        assert c.leader() is leader
        assert sum(s.elections_started for s in c.servers) == elections_before
        # The deaf follower did try: pre-vote rounds ran and failed.
        assert deaf._pre_vote_round > 0
        c.net.heal("deaf")
        c.run(until=25.0)
        assert c.leader() is leader

    def test_deaf_follower_deposes_without_stickiness(self):
        """Teeth: force every pre-vote to be granted and the same deaf
        follower does bump a real ballot — stickiness, not luck, is
        what keeps the leader in place above."""
        c = make()
        leader = c.servers[0]
        deaf = c.servers[1]

        def make_granter(srv):
            def grant(msg, src):
                reply = PreVoteReply(
                    voter_id=srv.node_id, round=msg.round, granted=True)
                srv.endpoint.send(src, reply, reply.wire_bytes)
            return grant

        for srv in c.servers:
            srv.endpoint.on(PreVote, make_granter(srv))
        elections_before = sum(s.elections_started for s in c.servers)
        c.net.sever(leader.name, deaf.name, token="deaf")
        c.run(until=20.0)
        assert sum(s.elections_started for s in c.servers) > elections_before

    def test_pre_vote_refused_while_leader_heard(self):
        """A follower that still hears the leader answers granted=False."""
        c = make()
        follower = c.servers[2]
        assert not follower.lease.vacant_for_follower()


class TestElectionDeadline:
    @pytest.mark.parametrize("eighth", range(8))
    def test_successor_elects_when_its_lease_lapses(self, eighth):
        """The leader crashes at one of eight instants spread over a
        heartbeat period. Its successor begins the election (its first
        pre-vote) Δ + δ after the last heartbeat it heard, not at the
        first monitor tick after that (§4.3: the lease is all that
        stands between a crash and the next leader)."""
        c = make()
        lease = c.servers[0].cfg.lease_config
        heard, began = {}, []
        for srv in c.servers[1:]:
            def renew(srv=srv, renew=srv.lease.renew):
                heard[srv.name] = c.sim.now
                renew()

            def begin(srv=srv, begin=srv._begin_pre_vote):
                began.append((c.sim.now, heard[srv.name]))
                begin()

            srv.lease.renew = renew
            srv._begin_pre_vote = begin
        c.run(until=3.0 + eighth * lease.heartbeat_interval / 8)
        c.crash_server(0)
        c.run(until=c.sim.now + lease.follower_timeout + 1.0)
        begun, last_heard = began[0]
        assert lease.follower_timeout - 1e-9 <= begun - last_heard \
            <= lease.follower_timeout + 1e-3
        assert c.leader() is c.servers[1]


class TestPreVoteDeferral:
    """A voter whose own wait ends within the candidate's round answers
    when it ends instead of refusing (defer, don't drop), with the
    verdict it holds then. The voter ``P3`` stops hearing the live
    leader ``P1`` at 1.0 s, so its lease runs down; pre-votes are handed
    to it directly, and only its replies to them are kept."""

    ROUND = 10_000  # no real pre-vote round gets this far

    def deaf_voter(self):
        c = make()
        voter = c.servers[2]
        c.net.sever(c.servers[0].name, voter.name, token="deaf")
        replies = []
        send = voter.endpoint.send

        def keep(dst, body, size):
            if isinstance(body, PreVoteReply) and body.round == self.ROUND:
                replies.append((c.sim.now, body.granted))
            send(dst, body, size)

        voter.endpoint.send = keep
        lapse = c.sim.now + voter.lease.remaining_follower_wait()
        return c, voter, replies, lapse

    def probe(self, c, voter, at):
        c.run(until=at)
        voter._on_pre_vote(PreVote(candidate_id=1, round=self.ROUND), "P2")

    def test_a_wait_within_the_round_is_granted_when_it_lapses(self):
        c, voter, replies, lapse = self.deaf_voter()
        wait = voter.cfg.rpc_timeout / 2
        self.probe(c, voter, lapse - wait)
        assert replies == []
        c.run(until=lapse + 0.01)
        ((t, granted),) = replies
        assert granted and abs(t - lapse) < 1e-9

    def test_a_heartbeat_heard_in_between_refuses(self):
        c, voter, replies, lapse = self.deaf_voter()
        self.probe(c, voter, lapse - voter.cfg.rpc_timeout / 2)
        leader = c.servers[0]
        voter._on_heartbeat(Heartbeat(
            leader_id=leader.node_id, seq=leader._hb_seq,
            ballot=leader.leadership_ballot(),
            view_epoch=leader.view_epoch), leader.name)
        c.run(until=lapse + 0.01)
        ((t, granted),) = replies
        assert not granted and abs(t - lapse) < 1e-9

    def test_a_wait_of_a_whole_round_is_refused_at_once(self):
        c, voter, replies, lapse = self.deaf_voter()
        at = lapse - 1.5 * voter.cfg.rpc_timeout
        self.probe(c, voter, at)
        assert replies == [(at, False)]


class TestCheckQuorum:
    def test_isolated_leader_steps_down(self):
        """A leader partitioned from every follower demotes once its
        lease stays expired past the grace, instead of serving stale
        lease reads forever."""
        c = make()
        leader = c.servers[0]
        others = [s.name for s in c.servers[1:]]
        c.net.partition([leader.name], others, token="iso")
        c.run(until=12.0)
        assert not leader.is_leader_server
        assert leader.step_downs >= 1
        assert not leader.lease.held_by_leader()
        # The majority side elected a successor.
        new = leaders(c)
        assert len(new) == 1 and new[0] is not leader

    def test_at_most_one_lease_holder_throughout(self):
        """Sampled single-lease invariant across an isolation episode."""
        from repro.check import check_single_lease
        c = make()
        leader = c.servers[0]
        others = [s.name for s in c.servers[1:]]
        hits = []

        def probe():
            hits.extend(check_single_lease(c.servers))
            if c.sim.now < 15.0:
                c.sim.call_after(0.1, probe)

        c.sim.call_soon(probe)
        c.net.partition([leader.name], others, token="iso")
        c.faults.heal_at(8.0, token="iso")
        c.run(until=15.0)
        assert hits == []


class TestElectionEdgeCases:
    def test_colliding_candidates_resolve_to_one_leader(self):
        """Force two followers to time out in the same tick: whatever
        the pre-vote/prepare race does, exactly one leader remains and
        both groups agree on it."""
        c = make(num_groups=2)
        c.crash_server(0)
        # Collapse the rank stagger: both wake at the same instant.
        for srv in c.servers[1:3]:
            srv.lease.invalidate()
        c.run(until=10.0)
        assert len(leaders(c)) == 1
        # Writes still commit (unique choice enforced live by the
        # ConsistencyViolation hook if the race had split the log).
        done = []
        c.clients[0].put("after-race", 128, on_done=lambda ok: done.append(ok))
        c.run(until=16.0)
        assert done == [True]

    def test_stale_heartbeat_after_new_leader_renewal_is_ignored(self):
        """A deposed leader's lower-ballot heartbeat must not roll a
        follower's allegiance back or refresh the dead lease."""
        c = make()
        old = c.servers[0]
        c.crash_server(0)
        c.run(until=10.0)
        new = c.leader()
        assert new is not None and new is not old
        follower = next(
            s for s in c.servers
            if s.up and not s.is_leader_server and s._hb_floor is not None
        )
        floor_before = follower._hb_floor
        leader_before = follower.current_leader
        # Replay the deposed leader's stale heartbeat by hand.
        stale = Heartbeat(
            leader_id=old.node_id, seq=99,
            ballot=Ballot(0, old.node_id),
        )
        follower._on_heartbeat(stale, old.name)
        assert follower.current_leader == leader_before
        assert follower._hb_floor == floor_before

    def test_observer_never_pre_votes_or_elects(self):
        """A wiped (rebuilding) node's vacancy timeout must not probe or
        elect: its ballot state is amnesiac until rebuild completes."""
        c = make(checkpoint_interval=1.0)
        c.wipe_server(2)
        c.run(until=3.0)
        c.recover_server(2)
        observer = c.servers[2]
        # Keep it an observer artificially and kill the leader so its
        # vacancy timer genuinely lapses.
        observer.rebuild.pending = set(range(len(observer.groups)))
        rounds_before = observer._pre_vote_round
        elections_before = observer.elections_started
        c.crash_server(0)
        c.run(until=12.0)
        assert observer._pre_vote_round == rounds_before
        assert observer.elections_started == elections_before
        assert not observer.is_leader_server
        # Someone non-amnesiac still took over.
        assert len(leaders(c)) == 1

    def test_failover_still_fast_with_pre_vote(self):
        """Pre-vote adds one round-trip, not a timeout: failover after a
        leader crash still completes well inside the old bound."""
        for config in (rs_paxos(5, 1), classic_paxos(5)):
            c = make(config=config)
            c.crash_server(0)
            c.run(until=6.0)
            assert c.leader() is not None
            assert c.leader() is not c.servers[0]
