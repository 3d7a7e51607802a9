"""A crash ends everything its host started (DESIGN.md §4 "The crash
rule"): the endpoint retires every request in flight, each component
cancels its own timers, and so no reply, timeout or timer of one
incarnation runs a continuation in the next. These two runs are why the
liveness guards that used to re-check ``up`` on every reply path could
go."""

from repro.core import Ballot, Prepare, classic_paxos, rs_paxos
from repro.kvstore import build_cluster
from repro.kvstore.messages import ClientGet
from repro.kvstore.shard import instance_of

PEERS = ["P2", "P3", "P4", "P5"]


def test_an_accept_round_does_not_outlive_its_leaders_crash():
    """The scripted form of rs-paxos chaos ``--wipe-heavy --seed 6027``:
    Accepts that reach a minority, the leader's crash, a successor's
    decision, the recovery, the heal. Were the round's requests kept,
    their retransmissions would reach P5 — which never promised the
    successor's ballot — and P1 would decide at its pre-crash ballot."""
    c = build_cluster(classic_paxos(5), seed=3, num_groups=1)
    c.start()
    c.run(until=1.0)
    p1 = c.servers[0]
    node = p1.groups[0]
    ballot = node.leader_ballot
    decided = []  # (time, instance, ballot) of every decision P1 makes
    on_chosen = node._on_chosen_at_leader
    node._on_chosen_at_leader = lambda i, b, v: (
        decided.append((c.sim.now, i, b)), on_chosen(i, b, v))
    # 1. P1's Accepts reach only P2; P5 hears none of P2, P3, P4.
    c.net.sever_group(["P1"], ["P3", "P4", "P5"], token="p1")
    c.net.partition(["P5"], ["P2", "P3", "P4"], token="p5")
    # 2. A write: P1 proposes it, and two of five vote.
    c.clients[0].put("k", 64)
    c.run(until=1.05)
    (instance,) = node._inflight
    # 3. P1 crashes. 4. A successor decides the instance among P2-P4.
    c.crash_server(0)
    c.run(until=5.0)
    successor = c.leader()
    assert successor not in (None, p1)
    assert instance in successor.groups[0].chosen
    # 5. P1 recovers. 6. Its cut heals; P5 still hears no successor.
    c.recover_server(0)
    recovered = c.sim.now
    c.net.heal("p1")
    c.run(until=8.0)
    # 7. Everything heals.
    c.net.heal()
    c.run(until=10.0)
    assert [d for d in decided if d[0] >= recovered and d[2] == ballot] == []


def test_no_continuation_of_a_crashed_leader_runs_after_its_recovery():
    """The leader has Accepts, a read-index round, a share gather and a
    catch-up page in flight, none answered, when it crashes; it is back
    1 s later and the network heals. Not one of their callbacks runs:
    not the reply, the timeout or the suspicion of any request, nor the
    gather's or the read's own continuation."""
    c = build_cluster(rs_paxos(5, 1), seed=7, num_groups=2)
    c.start()
    c.run(until=1.0)
    done = []
    c.clients[0].put("k", 3000, on_done=done.append)
    c.run(until=2.0)
    assert done == [True]
    p1 = c.servers[0]
    assert c.leader() is p1
    c.net.sever_group(PEERS, ["P1"], token="deaf")  # no reply gets back
    # Accepts: a write.
    c.clients[0].put("k2", 3000)
    c.run(until=c.sim.now + 0.02)
    # A share gather for "k", as a recovery read or a repair starts one.
    follower = c.servers[2].store.get_entry("k")
    share = follower.value
    gathered = []
    p1._gather_shares(p1.shard_map.group_of("k"),
                      instance_of(follower.version), share.value_id,
                      None, gathered.append)
    # A catch-up page.
    p1.rebuild.catch_up(0)
    # A read-index round: the read path pointed at P2 for one read.
    answers = []
    p1.current_leader = 1
    p1.reads.get(ClientGet("k", mode="follower"),
                 lambda msg, size: answers.append(msg))
    p1.current_leader = 0
    ran = []
    kinds = set()
    for pending in list(p1.endpoint._pending.values()):
        body = pending.body
        kind = type(getattr(body, "body", body)).__name__  # a group's
        kinds.add(kind)                                   # is muxed
        for name in ("on_reply", "on_timeout", "on_suspect"):
            cb = getattr(pending, name)
            if cb is not None:
                setattr(pending, name, lambda *a, cb=cb, tag=(kind, name): (
                    ran.append(tag), cb(*a)))
    assert {"Accept", "ReadIndex", "FetchShare", "CatchUp"} <= kinds
    c.run(until=c.sim.now + 0.01)
    p1.crash()
    c.run(until=c.sim.now + 1.0)
    p1.recover()
    c.net.heal()
    c.run(until=c.sim.now + 5.0)
    assert ran == [] and gathered == [] and answers == []
    assert p1.endpoint.stale_replies_dropped > 0


def test_a_prepare_deferred_before_a_crash_is_not_answered_after_it():
    """The lease gate defers a challenger's Prepare until the
    acceptor's own lease lapses (defer, don't drop). The acceptor
    crashes holding it and is back before the deferral would fire:
    the deferral ended with the crash, so no Promise is sent."""
    c = build_cluster(rs_paxos(5, 1), seed=3, num_groups=1)
    c.start()
    c.run(until=1.0)
    c.crash_server(0)  # the leader: nothing renews P3's lease again
    p3 = c.servers[2]
    answers = []
    p3.groups[0]._handle_prepare(
        Prepare(ballot=Ballot(100, 1), from_instance=0), "P2",
        lambda reply, size: answers.append(reply))
    assert answers == [] and p3.lease.remaining_follower_wait() > 1.0
    c.crash_server(2)
    c.run(until=c.sim.now + 0.1)
    c.recover_server(2)
    c.run(until=10.0)
    assert answers == []


def test_a_deposed_leader_ends_its_accept_rounds():
    """The scripted form of classic chaos ``--wipe-heavy --seed 34``
    without the wipe: a leader deposed while up, not crashed, cancels
    the Accept rounds it has not decided. Were they kept, their
    retransmissions would reach P5 — which never promised the
    successor's ballot — once the cut heals, and P1 would decide at
    the ballot it lost."""
    c = build_cluster(classic_paxos(5), seed=3, num_groups=1)
    c.start()
    c.run(until=1.0)
    p1 = c.servers[0]
    node = p1.groups[0]
    ballot = node.leader_ballot
    decided = []  # (time, instance, ballot) of every decision P1 makes
    on_chosen = node._on_chosen_at_leader
    node._on_chosen_at_leader = lambda i, b, v: (
        decided.append((c.sim.now, i, b)), on_chosen(i, b, v))
    # 1. P1's messages reach only P2; P5 hears none of P2, P3, P4.
    c.net.sever_group(["P1"], ["P3", "P4", "P5"], token="p1")
    c.net.partition(["P5"], ["P2", "P3", "P4"], token="p5")
    # 2. A write: P1 proposes it, and two of five vote.
    c.clients[0].put("k", 64)
    c.run(until=1.05)
    (instance,) = node._inflight
    # 3. P1 cannot renew its lease and steps down (check-quorum);
    #    P2-P4 elect a successor, which decides the instance.
    c.run(until=8.0)
    assert p1.step_downs == 1 and not p1.is_leader_server
    successor = c.leader()
    assert successor not in (None, p1)
    assert instance in successor.groups[0].chosen
    reached = successor.groups[0].apply_cursor
    # 4. P1's cut heals; P5 still hears no successor.
    c.net.heal("p1")
    c.run(until=11.0)
    # 5. Everything heals.
    c.net.heal()
    c.run(until=13.0)
    assert [d for d in decided if d[2] == ballot] == []
    # 6. P1 stopped leading with its rounds: it waits on no instance
    #    and applies what the successor decided.
    assert not node.is_leader and node.leader_ballot is None
    assert node._inflight == {} and node._decide_cbs == {}
    assert node.apply_cursor >= reached > instance


def test_an_election_a_group_is_preempted_in_is_lost():
    """Classic chaos ``--wipe-heavy --seed 11``, in short: two candidates
    split the groups, and one is preempted in a group it had won while
    its others still prepared. That group stepped down; the candidate
    must not lead without it, so the election is lost and every group
    it did win steps down too."""
    c = build_cluster(classic_paxos(5), seed=3, num_groups=2)
    c.start()
    c.run(until=1.0)
    p2 = c.servers[1]
    ends = []  # (won, groups led) as each of P2's elections ends
    finished = p2._election_finished
    p2._election_finished = lambda ok: (
        finished(ok),
        ends.append((p2.is_leader_server, [n.is_leader for n in p2.groups])))
    preempt = []  # the first of P2's groups to be ready is preempted
    for node in p2.groups:
        def become(on_ready, node=node, become=node.become_leader):
            def ready(ok):
                on_ready(ok)
                if ok and not preempt:
                    preempt.append(node)
                    node._preempted(Ballot(node.leader_ballot.round + 1, 4))
            become(ready)
        node.become_leader = become
    c.crash_server(0)
    c.run(until=4.0)
    assert preempt and ends[0] == (False, [False, False])
