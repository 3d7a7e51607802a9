"""Tests for the pure acceptor state machine."""

from repro.core import (
    Accept,
    Accepted,
    Acceptor,
    Ballot,
    CodedShare,
    Nack,
    Prepare,
    Promise,
)
from repro.core.messages import META_BYTES
from repro.erasure import CodingConfig

CFG = CodingConfig(3, 5)


def share(value_id="v1", index=0, size=300):
    return CodedShare(value_id, index, CFG, size)


class TestPrepare:
    def test_first_prepare_promised(self):
        a = Acceptor(0)
        reply, durable = a.on_prepare(Prepare(Ballot(1, 0)))
        assert isinstance(reply, Promise)
        assert reply.ballot == Ballot(1, 0)
        assert reply.accepted == {}
        assert durable == META_BYTES

    def test_lower_prepare_nacked(self):
        a = Acceptor(0)
        a.on_prepare(Prepare(Ballot(5, 0)))
        reply, durable = a.on_prepare(Prepare(Ballot(3, 1)))
        assert isinstance(reply, Nack)
        assert reply.promised == Ballot(5, 0)
        assert durable == 0

    def test_equal_prepare_regranted(self):
        # Ballots are unique per proposer; an equal ballot can only be a
        # network duplicate of a prepare we already granted, so it is
        # idempotently re-granted (a Nack here would race the Promise).
        a = Acceptor(0)
        a.on_prepare(Prepare(Ballot(5, 0)))
        reply, _ = a.on_prepare(Prepare(Ballot(5, 0)))
        assert isinstance(reply, Promise)

    def test_higher_prepare_supersedes(self):
        a = Acceptor(0)
        a.on_prepare(Prepare(Ballot(1, 0)))
        reply, _ = a.on_prepare(Prepare(Ballot(2, 1)))
        assert isinstance(reply, Promise)

    def test_promise_reports_accepted_state(self):
        a = Acceptor(0)
        a.on_accept(Accept(3, Ballot(1, 0), share("v1")))
        a.on_accept(Accept(7, Ballot(1, 0), share("v2")))
        reply, _ = a.on_prepare(Prepare(Ballot(2, 1), from_instance=0))
        assert isinstance(reply, Promise)
        assert set(reply.accepted) == {3, 7}
        ballot, sh = reply.accepted[3]
        assert ballot == Ballot(1, 0) and sh.value_id == "v1"

    def test_promise_range_filters_instances(self):
        a = Acceptor(0)
        a.on_accept(Accept(3, Ballot(1, 0), share("v1")))
        a.on_accept(Accept(7, Ballot(1, 0), share("v2")))
        reply, _ = a.on_prepare(Prepare(Ballot(2, 1), from_instance=5))
        assert set(reply.accepted) == {7}

    def test_prepare_blocked_by_accepted_ballot_in_range(self):
        a = Acceptor(0)
        a.on_accept(Accept(4, Ballot(9, 2), share()))
        reply, _ = a.on_prepare(Prepare(Ballot(5, 1), from_instance=0))
        assert isinstance(reply, Nack)
        assert reply.promised == Ballot(9, 2)

    def test_prepare_not_blocked_by_instances_below_range(self):
        a = Acceptor(0)
        a.on_accept(Accept(4, Ballot(9, 2), share()))
        reply, _ = a.on_prepare(Prepare(Ballot(5, 1), from_instance=10))
        assert isinstance(reply, Promise)


class TestAccept:
    def test_accept_when_free(self):
        a = Acceptor(7)
        reply, durable = a.on_accept(Accept(0, Ballot(1, 0), share("v1", 2)))
        assert isinstance(reply, Accepted)
        assert reply.acceptor == 7
        assert reply.value_id == "v1"
        assert durable == META_BYTES + share().size

    def test_accept_at_promised_ballot(self):
        a = Acceptor(0)
        a.on_prepare(Prepare(Ballot(2, 1)))
        reply, _ = a.on_accept(Accept(0, Ballot(2, 1), share()))
        assert isinstance(reply, Accepted)

    def test_accept_below_promise_nacked(self):
        a = Acceptor(0)
        a.on_prepare(Prepare(Ballot(5, 1)))
        reply, durable = a.on_accept(Accept(0, Ballot(4, 0), share()))
        assert isinstance(reply, Nack)
        assert reply.promised == Ballot(5, 1)
        assert durable == 0

    def test_accept_above_promise_allowed(self):
        # Phase 2(b): accept unless promised ballot is greater.
        a = Acceptor(0)
        a.on_prepare(Prepare(Ballot(1, 1)))
        reply, _ = a.on_accept(Accept(0, Ballot(3, 2), share()))
        assert isinstance(reply, Accepted)

    def test_accept_raises_promise_floor_per_instance(self):
        a = Acceptor(0)
        a.on_accept(Accept(0, Ballot(5, 2), share()))
        reply, _ = a.on_accept(Accept(0, Ballot(3, 1), share("v2")))
        assert isinstance(reply, Nack)

    def test_overwrite_with_higher_ballot(self):
        a = Acceptor(0)
        a.on_accept(Accept(0, Ballot(1, 0), share("v1")))
        reply, _ = a.on_accept(Accept(0, Ballot(2, 1), share("v2", 1)))
        assert isinstance(reply, Accepted)
        assert a.accepted_share(0).value_id == "v2"

    def test_duplicate_accept_idempotent(self):
        a = Acceptor(0)
        a.on_accept(Accept(0, Ballot(1, 0), share("v1")))
        reply, _ = a.on_accept(Accept(0, Ballot(1, 0), share("v1")))
        assert isinstance(reply, Accepted)
        assert a.accepted_share(0).value_id == "v1"

    def test_instances_independent(self):
        a = Acceptor(0)
        a.on_accept(Accept(0, Ballot(9, 0), share("v1")))
        reply, _ = a.on_accept(Accept(1, Ballot(1, 1), share("v2")))
        assert isinstance(reply, Accepted)


class TestRangePromiseInteraction:
    def test_range_promise_blocks_lower_accepts_everywhere(self):
        # The floor is global (documented conservative choice).
        a = Acceptor(0)
        a.on_prepare(Prepare(Ballot(5, 1), from_instance=10))
        reply, _ = a.on_accept(Accept(2, Ballot(3, 0), share()))
        assert isinstance(reply, Nack)

    def test_state_export_restore(self):
        a = Acceptor(0)
        a.on_prepare(Prepare(Ballot(2, 1)))
        a.on_accept(Accept(0, Ballot(2, 1), share("v1")))
        snapshot = a.snapshot()
        # Voting continues on ``a``; the snapshot must not follow it.
        a.on_accept(Accept(0, Ballot(3, 1), share("v3")))
        b = Acceptor(0)
        b.restore_state(snapshot)
        reply, _ = b.on_accept(Accept(0, Ballot(1, 0), share("v2")))
        assert isinstance(reply, Nack)
        assert b.accepted_share(0).value_id == "v1"

    def test_accepted_share_missing_instance(self):
        assert Acceptor(0).accepted_share(42) is None
