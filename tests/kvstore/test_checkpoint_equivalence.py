"""Equivalence property: state part + segments + WAL tail recovers what
a full-copy checkpoint + WAL tail recovers.

Before PR 20 a checkpoint deep-copied every acceptor and learner record
(``AcceptorState.copy``, two ``ChosenRecord`` dictcomps) and recovery
installed fresh copies of that blob. Those dictcomps are kept here as
the reference implementation. One replica — the only live server of a
five-node cluster, so nothing reaches it but what the test feeds it —
is driven through a random interleaving of every site that writes a
durable record, of checkpoints that succeed, fail or are cut short, and
of crashes, recoveries and a wipe; at every recovery the state the
replica rebuilt must equal, record for record, what the reference
rebuilds from its last durable full copy and the same WAL.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core import (
    AcceptorState,
    Ballot,
    ChosenRecord,
    Value,
    encode_value,
    rs_paxos,
)
from repro.core.messages import Accept, Commit
from repro.kvstore import build_cluster
from repro.kvstore.messages import Command, InstallShare

ME = 2          # the replica under test
GROUPS = 2

OPS = (
    "accept", "accept", "accept", "reaccept", "learn", "learn",
    "commit_only", "fill_share", "cache_value", "rot", "scrub", "repair",
    "run", "checkpoint", "checkpoint", "checkpoint_eio", "crash_mid_save",
    "crash_recover", "crash_recover", "wipe_rejoin",
)


def copied_acceptor(state: AcceptorState) -> AcceptorState:
    """The pre-PR-20 ``AcceptorState.copy``."""
    return AcceptorState(
        floor=state.floor,
        instances={
            inst: Accept(s.instance, s.ballot, s.share)
            for inst, s in state.instances.items()
        },
    )


def copied_chosen(chosen: dict) -> dict:
    """The pre-PR-20 dictcomp of export and install alike."""
    return {
        inst: ChosenRecord(r.value_id, r.ballot, r.value, r.share)
        for inst, r in chosen.items()
    }


def reference_export(srv) -> dict:
    """The pre-PR-20 checkpoint payload: every record copied."""
    return {
        "groups": [
            {
                "acceptor": copied_acceptor(node.acceptor.state),
                "chosen": copied_chosen(node.chosen),
                "apply_cursor": node.apply_cursor,
                "next_instance": node.next_instance,
                "max_ballot": node._max_ballot_seen,
            }
            for node in srv.groups
        ],
        "store": srv.store.export_state(),
        "applied_ops": frozenset(srv.applied),
        "group_floors": [node.apply_cursor for node in srv.groups],
    }


def reference_recover(srv, blob) -> None:
    """The pre-PR-20 recovery of a crashed ``srv``: install copies of
    the full-copy blob (if one is durable), then replay the WAL."""
    if blob is not None:
        for node, snap in zip(srv.groups, blob["groups"]):
            node.acceptor.restore_state(copied_acceptor(snap["acceptor"]))
            node.chosen = copied_chosen(snap["chosen"])
            node.apply_cursor = snap["apply_cursor"]
            node.next_instance = max(node.next_instance,
                                     snap["next_instance"])
            node._max_ballot_seen = max(node._max_ballot_seen,
                                        snap["max_ballot"])
        srv.store.install_state(blob["store"])
        srv.applied.reset()
        for ident in blob["applied_ops"]:
            srv.applied.add(*ident)
        srv.compact_floor = list(blob["group_floors"])
    for node in srv.groups:
        node.recover()


def recovered_state(srv):
    """Everything recovery rebuilds, as plain comparable values."""
    return (
        [
            (node.acceptor.state.floor,
             dict(node.acceptor.state.instances), dict(node.chosen),
             node.apply_cursor, node.next_instance, node._max_ballot_seen)
            for node in srv.groups
        ],
        set(srv.applied),
        {k: (v.value, v.size, v.complete, v.version, v.tombstone, v.group)
         for k, v in srv.store.export_state().items()},
        list(srv.compact_floor),
    )


class Replica:
    """The replica under test plus the model that picks legal inputs."""

    def __init__(self) -> None:
        self.cluster = build_cluster(rs_paxos(5, 1), seed=1,
                                     num_groups=GROUPS)
        for i, peer in enumerate(self.cluster.servers):
            if i != ME:
                peer.crash()
        self.srv = self.cluster.servers[ME]
        self.sim = self.cluster.sim
        self.durable_blob = None    # the reference's durable full copy
        self.recoveries = 0
        self.next_inst = [0] * GROUPS
        self.fresh = 0
        # Per group: instance -> (round, value) this replica last
        # accepted; instance -> value the cluster decided.
        self.accepted = [{} for _ in range(GROUPS)]
        self.decided = [{} for _ in range(GROUPS)]

    # -- inputs ----------------------------------------------------------

    def advance(self, seconds=0.004) -> None:
        self.sim.run(until=self.sim.now + seconds)

    def new_value(self, group: int, inst: int) -> Value:
        self.fresh += 1
        return Value(
            f"v{self.fresh}", 3000, None,
            meta=Command("put", f"k{inst % 5}", None, "C0", self.fresh))

    def my_share(self, group: int, value: Value):
        node = self.srv.groups[group]
        shares = encode_value(value, node.config.coding, node.members)
        return shares[node.members.index(ME)]

    def deliver_accept(self, group, inst, round_, value) -> None:
        node = self.srv.groups[group]
        before = node.acceptor.state.instances.get(inst)
        node._handle_accept(
            Accept(inst, Ballot(round_, 0), self.my_share(group, value)),
            "P0", lambda reply, size: None)
        if node.acceptor.state.instances.get(inst) is not before:
            self.accepted[group][inst] = (round_, value)

    def pick(self, candidates, sel):
        candidates = sorted(candidates)
        return candidates[sel % len(candidates)] if candidates else None

    # -- operations --------------------------------------------------------

    def run(self, g, sel):
        """Time passes: pending WAL appends reach the disk."""
        self.advance()

    def accept(self, g, sel):
        inst = self.next_inst[g]
        self.next_inst[g] += 1
        self.deliver_accept(g, inst, 1, self.new_value(g, inst))

    def reaccept(self, g, sel):
        """A later proposer re-drives an undecided instance."""
        inst = self.pick(set(self.accepted[g]) - set(self.decided[g]), sel)
        if inst is not None:
            round_, _ = self.accepted[g][inst]
            self.deliver_accept(g, inst, round_ + 1, self.new_value(g, inst))

    def learn(self, g, sel):
        inst = self.pick(set(self.accepted[g]) - set(self.decided[g]), sel)
        if inst is not None:
            round_, value = self.accepted[g][inst]
            self.decided[g][inst] = (round_, value)
            self.srv.groups[g]._handle_commit(
                Commit(inst, Ballot(round_, 0), value.value_id), "P0")

    def commit_only(self, g, sel):
        """Decided elsewhere; this replica never saw the Accept."""
        inst = self.next_inst[g]
        self.next_inst[g] += 1
        value = self.new_value(g, inst)
        self.decided[g][inst] = (1, value)
        self.srv.groups[g]._handle_commit(
            Commit(inst, Ballot(1, 0), value.value_id), "P0")

    def fill_share(self, g, sel):
        """InstallShare closes a placement gap."""
        node = self.srv.groups[g]
        inst = self.pick(
            [i for i, r in node.chosen.items()
             if r.share is None and i in self.decided[g]], sel)
        if inst is not None:
            _, value = self.decided[g][inst]
            self.srv._on_install_share(
                InstallShare(g, inst, value.value_id,
                             self.my_share(g, value), value.meta), "P0")

    def cache_value(self, g, sel):
        """A decode (recovery read, re-code for a peer) is cached."""
        node = self.srv.groups[g]
        inst = self.pick(
            [i for i, r in node.chosen.items()
             if r.value is None and i in self.decided[g]], sel)
        if inst is not None:
            self.srv._cache_decoded(node, inst, self.decided[g][inst][1])
            node._advance_apply()

    def rot(self, g, sel):
        self.srv.inject_bit_rot(np.random.default_rng(sel))

    def scrub(self, g, sel):
        """Repairs locally where the value is cached; the rest fan out
        to peers that never answer."""
        self.srv.scrub_now()

    def repair(self, g, sel):
        """A peer-sourced repair completes."""
        node = self.srv.groups[g]
        inst = self.pick(
            [i for i, s in node.acceptor.state.instances.items()
             if s.share.corrupt and i in self.accepted[g]], sel)
        if inst is None:
            return
        round_, value = self.accepted[g][inst]
        lsn = next(
            (r.lsn for r in reversed(self.srv.wal.durable)
             if r.tag == g and isinstance(r.payload, Accept)
             and r.payload.instance == inst),
            None)
        self.srv._install_repaired(
            g, lsn, Accept(inst, Ballot(round_, 0), self.my_share(g, value)),
            0)

    def checkpoint(self, g, sel):
        blob = reference_export(self.srv)

        def durable() -> None:
            self.durable_blob = blob

        if self.srv.checkpoint_now(on_done=durable):
            self.advance()

    def checkpoint_eio(self, g, sel):
        self.advance()  # drain the WAL: the failing write is the save
        self.srv.disk.inject_write_errors(1)
        saves = self.srv.checkpoint_store.saves
        if self.srv.checkpoint_now(on_done=lambda: 1 / 0):
            self.advance()
            assert self.srv.checkpoint_store.saves == saves
            assert not self.srv._ckpt_inflight
        else:
            self.srv.disk._eio_pending = 0

    def crash_mid_save(self, g, sel):
        self.srv.checkpoint_now(on_done=lambda: 1 / 0)
        self.crash_recover(g, sel)

    def crash_recover(self, g, sel):
        """Crash, recover — and recover the reference's way from the
        same durable state, which must rebuild the same replica."""
        srv = self.srv
        srv.crash()
        srv.recover()
        got = recovered_state(srv)
        srv.crash()
        reference_recover(srv, self.durable_blob)
        want = recovered_state(srv)
        assert got == want
        srv.crash()
        srv.recover()
        self.recoveries += 1
        # Votes that never reached the WAL or a checkpoint are gone.
        for group, node in enumerate(srv.groups):
            live = node.acceptor.state.instances
            self.accepted[group] = {
                inst: (live[inst].ballot.round, value)
                for inst, (_, value) in self.accepted[group].items()
                if inst in live
                and live[inst].share.value_id == value.value_id
            }

    def wipe_rejoin(self, g, sel):
        srv = self.srv
        srv.wipe()
        self.durable_blob = None
        self.accepted = [{} for _ in range(GROUPS)]
        srv.rejoin()
        assert all(not n.acceptor.state.instances and not n.chosen
                   for n in srv.groups)
        for group in range(GROUPS):
            srv.rebuild.finish_line(group, 0)   # a peer's log, all pulled


def script(*names):
    return [(name, 0, 0) for name in names]


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, GROUPS - 1),
              st.integers(0, 1 << 16)),
    min_size=5, max_size=60))
# A record that changed after it was checkpointed: rotten, then repaired.
@example(script("accept", "accept", "run", "learn", "checkpoint", "rot",
                "checkpoint", "crash_recover", "repair", "checkpoint"))
# A failed and a torn checkpoint: the next one carries their records.
@example(script("accept", "run", "checkpoint", "accept", "learn", "run",
                "checkpoint_eio", "accept", "checkpoint", "accept",
                "crash_mid_save", "accept", "run", "checkpoint"))
# Nothing from before a wipe may come back after it.
@example(script("accept", "accept", "run", "learn", "checkpoint",
                "wipe_rejoin", "accept", "run", "checkpoint"))
# Commit-only record, filled in by InstallShare, then by a decode; its
# checkpoint-resident share rots and is re-encoded from the cached value.
@example(script("commit_only", "checkpoint", "fill_share", "checkpoint",
                "crash_recover", "cache_value", "rot", "checkpoint",
                "scrub", "checkpoint"))
def test_segments_recover_what_a_full_copy_recovers(ops):
    replica = Replica()
    for op, group, sel in ops:
        getattr(replica, op)(group, sel)
    replica.advance()
    replica.crash_recover(0, 0)
