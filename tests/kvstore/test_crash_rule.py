"""A crash ends everything its host started (DESIGN.md §4 "The crash
rule"): the endpoint retires every request in flight, each component
cancels its own timers, and so no reply, timeout or timer of one
incarnation runs a continuation in the next. These two runs are why the
liveness guards that used to re-check ``up`` on every reply path could
go."""

from repro.core import classic_paxos, rs_paxos
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
