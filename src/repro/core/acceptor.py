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

The per-instance record *is* the vote: the frozen :class:`Accept` the
acceptor granted (its ``ballot`` both promised and accepted, its
``share`` the accepted fragment). The same object is the WAL payload
that makes the vote durable, so one vote is one object — live state,
log, checkpoint and a recovered replica share it, and a changed vote is
a different one (DESIGN.md §4 "Durable records are immutable values").

Retirement: once a checkpoint that covers every instance below its
floor is durable, the records below that floor whose values no live
key still names are dropped (:meth:`Acceptor.retire`). The floor is
kept as ``retired_below`` and reported in every promise; below it an
instance is chosen, and a proposer that sees the floor neither re-drives
nor free-chooses there (:meth:`PaxosNode._finish_prepare`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..storage import retirable
from .ballot import NULL_BALLOT, Ballot
from .messages import META_BYTES, Accept, Accepted, Nack, Prepare, Promise
from .value import CodedShare


@dataclass
class AcceptorState:
    """Everything the acceptor must persist (exported for recovery)."""

    floor: Ballot = NULL_BALLOT
    instances: dict[int, Accept] = field(default_factory=dict)
    retired_below: int = 0


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
                highest = max(highest, st.ballot)
        # Strictly-lower ballots are refused. An *equal* ballot can only
        # be a duplicate of a prepare we already granted (ballots are
        # unique per proposer), so it is idempotently re-granted —
        # otherwise a network-duplicated prepare would race a spurious
        # Nack against the real Promise.
        if msg.ballot < highest:
            return Nack(instance=-1, promised=highest), 0
        self.state.floor = msg.ballot
        accepted = {
            inst: (st.ballot, st.share)
            for inst, st in self.state.instances.items()
            if inst >= msg.from_instance
        }
        reply = Promise(
            ballot=msg.ballot,
            from_instance=msg.from_instance,
            accepted=accepted,  # type: ignore[arg-type]
            retired_below=self.state.retired_below,
        )
        return reply, META_BYTES

    # -- phase 2 -----------------------------------------------------------

    def on_accept(self, msg: Accept) -> tuple[Accepted | Nack, int]:
        """Handle an accept; §3.2 phase 2(b).

        Accepts unless a strictly greater ballot has been promised
        (an equal ballot is the proposer exercising its own promise).
        The granted ``msg`` itself becomes the instance's record.
        """
        state = self.state
        st = state.instances.get(msg.instance)
        # Effective promise: the higher of the instance's own and the
        # range floor (an instance never voted in has only the floor).
        promised = state.floor
        if st is not None and st.ballot >= promised:
            promised = st.ballot
        if msg.ballot < promised:
            return Nack(instance=msg.instance, promised=promised), 0
        state.instances[msg.instance] = msg
        reply = Accepted(
            instance=msg.instance,
            ballot=msg.ballot,
            value_id=msg.share.value_id,
            acceptor=self.node_id,
        )
        return reply, META_BYTES + msg.share.size

    # -- retirement and recovery -----------------------------------------------

    def retire(self, below: int, keep) -> None:
        """Drop the votes of every instance below ``below`` except those
        in ``keep``, and raise ``retired_below`` to ``below``. The caller
        guarantees every instance below ``below`` is chosen."""
        state = self.state
        state.retired_below = max(state.retired_below, below)
        instances = state.instances
        for inst in retirable(instances, below, keep):
            del instances[inst]

    def snapshot(self) -> AcceptorState:
        """Independent copy of the durable state (its own map over the
        same immutable records): unmoved while voting continues."""
        return AcceptorState(self.state.floor, dict(self.state.instances),
                             self.state.retired_below)

    def restore_state(self, state: AcceptorState) -> None:
        """Install recovered durable state (after a crash)."""
        self.state = state

    def accepted_share(self, instance: int) -> CodedShare | None:
        st = self.state.instances.get(instance)
        return st.share if st else None
