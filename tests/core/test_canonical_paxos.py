"""Tests for the canonical (two-roundtrip) proposal mode (§2.1)."""

import pytest

from repro.core import Value, classic_paxos, fresh_value_id, rs_paxos

from .harness import elect, make_group


def val(payload: bytes) -> Value:
    return Value(fresh_value_id(0), len(payload), payload)


class TestCanonicalPropose:
    def test_single_value_chosen(self):
        group = make_group(classic_paxos(5))
        decided = []
        group.node(0).propose_canonical(
            val(b"canonical"), lambda i, v: decided.append((i, v.data))
        )
        group.sim.run(until=5.0)
        assert decided == [(0, b"canonical")]

    def test_rs_paxos_coded(self):
        group = make_group(rs_paxos(5, 1))
        decided = []
        group.node(0).propose_canonical(
            val(b"C" * 900), lambda i, v: decided.append(v.data)
        )
        group.sim.run(until=5.0)
        assert decided == [b"C" * 900]
        share = group.node(3).acceptor.accepted_share(0)
        assert len(share.data) == 300

    def test_sequential_values(self):
        group = make_group(classic_paxos(3))
        decided = []

        def next_one(i=0):
            if i >= 5:
                return
            group.node(0).propose_canonical(
                val(f"v{i}".encode()),
                lambda inst, v, i=i: (decided.append((inst, v.data)),
                                      next_one(i + 1)),
            )

        next_one()
        group.sim.run(until=10.0)
        assert [d for _, d in decided] == [b"v0", b"v1", b"v2", b"v3", b"v4"]

    def test_never_proposes_below_a_retirement_floor(self):
        """Below a promiser's ``retired_below`` every instance is chosen
        and votes may be gone: the proposer takes an instance above the
        floor instead of proposing into instance 0."""
        group = make_group(classic_paxos(5))
        for i in range(1, 5):
            group.node(i).acceptor.state.retired_below = 7
        decided = []
        group.node(0).propose_canonical(
            val(b"late"), lambda i, v: decided.append((i, v.data)))
        group.sim.run(until=5.0)
        assert decided == [(7, b"late")]

    def test_respects_previously_accepted_value(self):
        """A canonical proposer must re-propose a recoverable earlier
        value rather than its own."""
        group = make_group(rs_paxos(5, 1))
        assert elect(group, 0)
        payload = b"sticky" * 20
        decided0 = []
        group.node(0).propose(val(payload), lambda i, v: decided0.append(i))
        group.sim.run(until=group.sim.now + 2.0)
        assert decided0
        # Node 1 now proposes canonically into the same instance space.
        group.node(1).next_instance = 0
        decided1 = []
        group.node(1).propose_canonical(
            val(b"mine"), lambda i, v: decided1.append((i, v.data))
        )
        group.sim.run(until=group.sim.now + 5.0)
        assert decided1 == [(0, payload)]

    def test_two_canonical_proposers_converge(self):
        group = make_group(classic_paxos(5), seed=3)
        decided = []
        group.node(0).propose_canonical(
            val(b"from-0"), lambda i, v: decided.append((0, i, v.value_id))
        )
        group.node(1).propose_canonical(
            val(b"from-1"), lambda i, v: decided.append((1, i, v.value_id))
        )
        group.sim.run(until=20.0)
        # Each instance decided at most one value across all observers.
        by_inst = {}
        for node in group.nodes:
            for inst, rec in node.chosen.items():
                by_inst.setdefault(inst, set()).add(rec.value_id)
        for inst, ids in by_inst.items():
            assert len(ids) == 1

    def test_costs_more_roundtrips_than_leader_path(self):
        """The §2.1 point: canonical Paxos pays an extra prepare round
        per value; Multi-Paxos amortizes it."""

        def messages_for(mode):
            group = make_group(classic_paxos(5))
            if mode == "leader":
                assert elect(group, 0)
            base = group.net.messages_sent
            decided = []
            if mode == "leader":
                group.node(0).propose(val(b"x" * 100), lambda i, v: decided.append(i))
            else:
                group.node(0).propose_canonical(
                    val(b"x" * 100), lambda i, v: decided.append(i)
                )
            group.sim.run(until=group.sim.now + 3.0)
            assert decided
            return group.net.messages_sent - base

        assert messages_for("canonical") > messages_for("leader") * 1.5
