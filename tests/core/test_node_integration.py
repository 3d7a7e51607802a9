"""Integration tests: full PaxosNode groups over the simulated network."""

import pytest

from repro.core import (
    Ballot,
    Value,
    classic_paxos,
    fresh_value_id,
    is_noop,
    rs_paxos,
)
from repro.net import LinkSpec

from .harness import elect, make_group


def val(data: bytes) -> Value:
    return Value(fresh_value_id(0), len(data), data)


def propose_and_run(group, leader, value, until=5.0):
    decided = []
    leader.propose(value, lambda inst, v: decided.append((inst, v)))
    group.sim.run(until=group.sim.now + until)
    return decided


class TestClassicPaxos:
    def test_single_value_chosen(self):
        group = make_group(classic_paxos(5))
        assert elect(group, 0)
        leader = group.node(0)
        decided = propose_and_run(group, leader, val(b"hello"))
        assert len(decided) == 1
        inst, v = decided[0]
        assert v.data == b"hello"
        assert leader.chosen[inst].value.data == b"hello"

    def test_followers_learn_via_commit(self):
        group = make_group(classic_paxos(5))
        assert elect(group, 0)
        decided = propose_and_run(group, group.node(0), val(b"xyz"))
        inst = decided[0][0]
        for node in group.nodes:
            assert inst in node.chosen
            assert node.chosen[inst].value_id == decided[0][1].value_id

    def test_pipelined_proposals_ordered(self):
        group = make_group(classic_paxos(3))
        assert elect(group, 0)
        leader = group.node(0)
        decided = []
        for i in range(10):
            leader.propose(
                val(f"value-{i}".encode()),
                lambda inst, v: decided.append((inst, v.data)),
            )
        group.sim.run(until=group.sim.now + 5.0)
        assert len(decided) == 10
        instances = [inst for inst, _ in decided]
        assert instances == sorted(instances)
        # Apply order at every node is instance order.
        for node in group.nodes:
            assert node.apply_cursor == max(instances) + 1

    def test_tolerates_f_crashes(self):
        group = make_group(classic_paxos(5))
        assert elect(group, 0)
        group.crash(3)
        group.crash(4)  # F = 2 for majority Paxos over 5
        decided = propose_and_run(group, group.node(0), val(b"still works"))
        assert len(decided) == 1

    def test_blocks_beyond_f_crashes(self):
        group = make_group(classic_paxos(5))
        assert elect(group, 0)
        for i in (2, 3, 4):
            group.crash(i)
        decided = propose_and_run(group, group.node(0), val(b"no quorum"), until=3.0)
        assert decided == []

    def test_propose_without_leadership_raises(self):
        group = make_group(classic_paxos(3))
        with pytest.raises(RuntimeError):
            group.node(0).propose(val(b"x"), lambda i, v: None)


class TestRSPaxos:
    def test_single_value_chosen_and_decoded(self):
        group = make_group(rs_paxos(5, 1))
        assert elect(group, 0)
        decided = propose_and_run(group, group.node(0), val(b"A" * 999))
        assert len(decided) == 1
        assert decided[0][1].data == b"A" * 999

    def test_followers_store_coded_shares_only(self):
        group = make_group(rs_paxos(5, 1))
        assert elect(group, 0)
        payload = b"B" * 900
        decided = propose_and_run(group, group.node(0), val(payload))
        inst = decided[0][0]
        for i, node in enumerate(group.nodes):
            share = node.acceptor.accepted_share(inst)
            assert share is not None
            assert share.index == i
            assert len(share.data) == 300  # 1/3 of the value

    def test_network_bytes_reduced_vs_paxos(self):
        def run(config):
            group = make_group(config)
            assert elect(group, 0)
            base = group.net.total_bytes_sent()
            propose_and_run(group, group.node(0), val(b"C" * 30_000))
            return group.net.total_bytes_sent() - base

        paxos_bytes = run(classic_paxos(5))
        rs_bytes = run(rs_paxos(5, 1))
        # §1: over 50% network saving for the accept phase.
        assert rs_bytes < paxos_bytes * 0.5

    def test_disk_bytes_reduced_vs_paxos(self):
        def run(config):
            group = make_group(config)
            assert elect(group, 0)
            propose_and_run(group, group.node(0), val(b"D" * 30_000))
            return sum(n.wal.disk.bytes_written for n in group.nodes)

        assert run(rs_paxos(5, 1)) < run(classic_paxos(5)) * 0.5

    def test_tolerates_one_crash_n5(self):
        group = make_group(rs_paxos(5, 1))
        assert elect(group, 0)
        group.crash(4)
        decided = propose_and_run(group, group.node(0), val(b"ok"))
        assert len(decided) == 1

    def test_blocks_at_two_crashes_n5(self):
        group = make_group(rs_paxos(5, 1))
        assert elect(group, 0)
        group.crash(3)
        group.crash(4)
        decided = propose_and_run(group, group.node(0), val(b"no"), until=3.0)
        assert decided == []

    def test_n7_f2_tolerates_two_crashes(self):
        group = make_group(rs_paxos(7, 2))
        assert elect(group, 0)
        group.crash(5)
        group.crash(6)
        decided = propose_and_run(group, group.node(0), val(b"E" * 300))
        assert len(decided) == 1
        assert decided[0][1].data == b"E" * 300

    def test_works_under_loss(self):
        group = make_group(
            rs_paxos(5, 1), link=LinkSpec(delay_s=0.001, loss_prob=0.3), seed=11
        )
        assert elect(group, 0, until=20.0)
        decided = propose_and_run(group, group.node(0), val(b"lossy"), until=30.0)
        assert len(decided) == 1

    def test_works_under_duplication(self):
        group = make_group(
            rs_paxos(5, 1), link=LinkSpec(delay_s=0.001, dup_prob=0.4), seed=12
        )
        assert elect(group, 0)
        decided = propose_and_run(group, group.node(0), val(b"dups"))
        assert len(decided) == 1


class TestLeaderTakeover:
    def test_new_leader_recovers_chosen_value(self):
        """A value chosen under the old leader survives takeover: the new
        leader must reconstruct it from coded shares (Prop. 3)."""
        group = make_group(rs_paxos(5, 1))
        assert elect(group, 0)
        payload = b"precious" * 50
        decided = propose_and_run(group, group.node(0), val(payload))
        inst, v0 = decided[0]
        group.crash(0)
        assert elect(group, 1, until=10.0)
        new_leader = group.node(1)
        assert inst in new_leader.chosen
        rec = new_leader.chosen[inst]
        assert rec.value_id == v0.value_id

    def test_new_leader_reproposes_partially_accepted_value(self):
        """Shares accepted by >= X but < QW acceptors: recoverable, so
        the new leader re-proposes the same value."""
        group = make_group(rs_paxos(5, 1))
        assert elect(group, 0)
        leader = group.node(0)
        payload = b"partial" * 10
        # Partition two followers so accepts only reach 0,1,2 (3 = X,
        # one short of QW=4): the value cannot be chosen yet.
        group.net.partition(["P1"], ["P4", "P5"])
        leader.propose(val(payload), lambda i, v: None)
        group.sim.run(until=group.sim.now + 1.0)
        # Heal, then crash a node that never held a share (stays within
        # F = 1). The old leader stays up as an acceptor — its share is
        # one of the 3 the new leader needs — but gets preempted.
        group.net.heal()
        group.crash(4)
        assert elect(group, 1, until=10.0)
        group.sim.run(until=group.sim.now + 5.0)
        # The new leader found >= 3 shares and re-proposed the value.
        rec = group.node(1).chosen.get(0)
        assert rec is not None
        assert rec.value is not None and rec.value.data == payload

    def test_new_leader_fills_unrecoverable_with_noop(self):
        """Shares accepted by < X acceptors: not recoverable, not chosen;
        the new leader is free to fill the instance with a no-op."""
        group = make_group(rs_paxos(5, 1))
        assert elect(group, 0)
        leader = group.node(0)
        # Accepts reach only nodes 0 and 1 (2 < X = 3).
        group.net.partition(["P1"], ["P3", "P4", "P5"])
        leader.propose(val(b"never chosen"), lambda i, v: None)
        group.sim.run(until=group.sim.now + 1.0)
        group.crash(0)
        group.net.heal()
        assert elect(group, 1, until=10.0)
        group.sim.run(until=group.sim.now + 2.0)
        rec = group.node(1).chosen.get(0)
        assert rec is not None
        assert is_noop(rec.value_id)

    def test_stale_leader_preempted(self):
        group = make_group(classic_paxos(3))
        assert elect(group, 0)
        preempted = []
        group.node(0).on_preempted = lambda b: preempted.append(b)
        assert elect(group, 1)
        # Old leader proposes; acceptors nack with the higher ballot.
        group.node(0).propose(val(b"stale"), lambda i, v: None)
        group.sim.run(until=group.sim.now + 2.0)
        assert preempted
        assert not group.node(0).is_leader

    def test_leader_election_race_converges(self):
        group = make_group(classic_paxos(5))
        results = {}
        group.node(0).become_leader(lambda ok: results.setdefault(0, ok))
        group.node(1).become_leader(lambda ok: results.setdefault(1, ok))
        group.sim.run(until=10.0)
        # At least one attempt resolves; at most one may win.
        assert len(results) >= 1
        assert sum(1 for ok in results.values() if ok) <= 1


class TestCrashRecovery:
    def test_acceptor_state_survives_crash(self):
        group = make_group(rs_paxos(5, 1))
        assert elect(group, 0)
        decided = propose_and_run(group, group.node(0), val(b"durable" * 20))
        inst = decided[0][0]
        share_before = group.node(2).acceptor.accepted_share(inst)
        group.crash(2)
        group.recover(2)
        share_after = group.node(2).acceptor.accepted_share(inst)
        assert share_after is not None
        assert share_after.value_id == share_before.value_id
        assert share_after.data == share_before.data

    def test_recovered_acceptor_keeps_promise_floor(self):
        group = make_group(classic_paxos(3))
        assert elect(group, 0)
        ballot = group.node(0).leader_ballot
        group.crash(1)
        group.recover(1)
        assert group.node(1).acceptor.state.floor >= ballot

    def test_chosen_still_reachable_after_crash_recover(self):
        group = make_group(rs_paxos(5, 1))
        assert elect(group, 0)
        decided = propose_and_run(group, group.node(0), val(b"sticky" * 30))
        inst, v = decided[0]
        group.crash(1)
        group.recover(1)
        group.crash(0)  # leader gone; node 1 recovered from WAL
        assert elect(group, 1, until=10.0)
        rec = group.node(1).chosen.get(inst)
        assert rec is not None and rec.value_id == v.value_id


class TestLeaderRetainsNoRoundState:
    def test_no_vote_tracker_outlives_its_chosen_instance(self):
        """A round's ``VoteTracker`` belongs to its ``on_reply`` closure
        and goes when the last Accepted has been answered. The leader
        used to file every tracker in a dict nothing read and nothing
        pruned: one tracker (and its voter set) per instance, for ever."""
        import gc

        from repro.core.proposer import VoteTracker

        def census() -> int:
            gc.collect()
            return sum(isinstance(o, VoteTracker) for o in gc.get_objects())

        alive_before = census()  # other tests' leftovers, if any
        group = make_group(rs_paxos(5, 1))
        assert elect(group, 0)
        leader = group.node(0)
        decided = []
        for i in range(200):
            leader.propose(val(b"v%d" % i), lambda inst, v: decided.append(inst))
        group.sim.run(until=group.sim.now + 5.0)
        assert len(decided) == 200
        assert all(inst in leader.chosen for inst in decided)
        assert not hasattr(leader, "_votes")
        assert census() == alive_before


class TestFinishedPrepareStops:
    """A prepare phase that has its quorum, or a Nack, cancels the
    Prepares still outstanding: nobody reads their replies, so they
    must not go on retransmitting into a silent peer."""

    def prepares(self, node) -> int:
        return sum(type(p.body).__name__ == "Prepare"
                   for p in node.endpoint._pending.values())

    def test_batch_prepare_cancels_on_quorum(self):
        group = make_group(rs_paxos(5, 1))
        group.crash(4)
        assert elect(group, 0)
        assert self.prepares(group.node(0)) == 0

    def test_canonical_prepare_cancels_on_quorum(self):
        group = make_group(classic_paxos(5))
        group.crash(3)
        group.crash(4)
        decided = []
        group.node(0).propose_canonical(val(b"x"),
                                        lambda inst, v: decided.append(inst))
        group.sim.run(until=5.0)
        assert decided == [0]
        assert self.prepares(group.node(0)) == 0

    def test_preempted_prepare_cancels(self):
        group = make_group(rs_paxos(5, 1))
        assert elect(group, 1)
        group.crash(4)
        group.node(0)._max_ballot_seen = Ballot(0, 0)  # a stale ballot
        assert not elect(group, 0)
        assert self.prepares(group.node(0)) == 0


class TestCommitBeforeAccept:
    def test_late_accept_fills_a_commit_only_record(self):
        """The first Accept to P5 is lost, so the Commit reaches it
        first and finds no vote: the record holds the chosen id only
        and the apply cursor stalls on it. The retransmitted Accept
        must fill the record in; before, a replica that never learned
        the instance could not serve it, and the cursor stayed put."""
        from repro.core.messages import Accept
        from repro.rpc import Request

        group = make_group(rs_paxos(5, 1))
        assert elect(group, 0)
        wire_send, dropped = group.net.send, []

        def send(src, dst, payload, size):
            if (dst == "P5" and not dropped and isinstance(payload, Request)
                    and isinstance(payload.body, Accept)):
                dropped.append(payload.body.instance)
                return
            wire_send(src, dst, payload, size)

        group.net.send = send
        decided = propose_and_run(group, group.node(0), val(b"x" * 300),
                                  until=0.01)
        follower = group.node(4)
        assert decided and dropped == [decided[0][0]]
        rec = follower.chosen[decided[0][0]]
        assert rec.share is None and follower.apply_cursor == 0
        group.sim.run(until=group.sim.now + 2.0)
        assert follower.chosen[decided[0][0]].share is not None
        assert follower.apply_cursor == 1
