"""The acceptor role — a pure state machine.

Handlers take a message and return ``(reply, durable_bytes)``. The
caller (the simulated server in :mod:`repro.kvstore`) must make
``durable_bytes`` durable in its WAL **before** transmitting the reply;
this is the §4.5 requirement that lets a recovered acceptor never
un-promise or un-accept.

Batch prepare (Multi-Paxos, §5): a single Prepare with ballot ``b``
covers every instance >= ``from_instance``. The acceptor tracks one
global *floor* ballot — the highest range ballot ever promised — plus a
per-instance record for every instance it has voted in. The floor is
deliberately global rather than range-scoped: promising ``b`` for
[i0, ∞) while also refusing lower ballots on instances < i0 is strictly
more conservative (never unsafe), and in Multi-Paxos the new leader
re-drives unfinished lower instances under its own ballot anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .ballot import NULL_BALLOT, Ballot
from .messages import META_BYTES, Accept, Accepted, Nack, Prepare, Promise
from .value import CodedShare


class AcceptorInstance(NamedTuple):
    """Durable per-instance acceptor record, an immutable value: a
    writer *replaces* it in ``AcceptorState.instances``, so live state,
    checkpoint and recovered replica may share one object and a changed
    record is a different one (DESIGN.md §4)."""

    promised: Ballot = NULL_BALLOT
    accepted_ballot: Ballot | None = None
    accepted_share: CodedShare | None = None


@dataclass
class AcceptorState:
    """Everything the acceptor must persist (exported for recovery)."""

    floor: Ballot = NULL_BALLOT
    instances: dict[int, AcceptorInstance] = field(default_factory=dict)


class Acceptor:
    """Votes on proposals; one per replica."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.state = AcceptorState()

    # -- phase 1 -----------------------------------------------------------

    def on_prepare(self, msg: Prepare) -> tuple[Promise | Nack, int]:
        """Handle a (range) prepare; §3.2 phase 1(b).

        The promise covers all instances >= ``msg.from_instance`` and
        reports previously accepted proposals in that range so the
        proposer can run the phase-1(c) recoverability scan.
        """
        highest = self.state.floor
        for inst, st in self.state.instances.items():
            if inst >= msg.from_instance:
                highest = max(highest, st.promised)
        # Strictly-lower ballots are refused. An *equal* ballot can only
        # be a duplicate of a prepare we already granted (ballots are
        # unique per proposer), so it is idempotently re-granted —
        # otherwise a network-duplicated prepare would race a spurious
        # Nack against the real Promise.
        if msg.ballot < highest:
            return Nack(instance=-1, promised=highest), 0
        self.state.floor = msg.ballot
        accepted = {
            inst: (st.accepted_ballot, st.accepted_share)
            for inst, st in self.state.instances.items()
            if inst >= msg.from_instance and st.accepted_ballot is not None
        }
        reply = Promise(
            ballot=msg.ballot,
            from_instance=msg.from_instance,
            accepted=accepted,  # type: ignore[arg-type]
        )
        return reply, META_BYTES

    # -- phase 2 -----------------------------------------------------------

    def on_accept(self, msg: Accept) -> tuple[Accepted | Nack, int]:
        """Handle an accept; §3.2 phase 2(b).

        Accepts unless a strictly greater ballot has been promised
        (an equal ballot is the proposer exercising its own promise).
        """
        state = self.state
        st = state.instances.get(msg.instance)
        # Effective promise: the higher of the instance's own and the
        # range floor (an instance never voted in has only the floor).
        promised = state.floor
        if st is not None and st.promised >= promised:
            promised = st.promised
        if msg.ballot < promised:
            return Nack(instance=msg.instance, promised=promised), 0
        # msg.ballot >= promised, past the check above.
        state.instances[msg.instance] = AcceptorInstance(
            msg.ballot, msg.ballot, msg.share)
        reply = Accepted(
            instance=msg.instance,
            ballot=msg.ballot,
            value_id=msg.share.value_id,
            acceptor=self.node_id,
        )
        return reply, META_BYTES + msg.share.size

    # -- recovery ------------------------------------------------------------

    def snapshot(self) -> AcceptorState:
        """Independent copy of the durable state (its own map over the
        same immutable records): unmoved while voting continues."""
        return AcceptorState(self.state.floor, dict(self.state.instances))

    def restore_state(self, state: AcceptorState) -> None:
        """Install recovered durable state (after a crash)."""
        self.state = state

    def accepted_share(self, instance: int) -> CodedShare | None:
        st = self.state.instances.get(instance)
        return st.accepted_share if st else None
