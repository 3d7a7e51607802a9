"""Reconfiguration (§4.6, §6.1, dynamic sharding): one driver, two plans.

A view change and a shard migration are one protocol: a *replicated*
marker says a change is in flight; the leader waits (a bounded number
of polls) until its groups are quiet enough, transfers the state the new
configuration needs, and commits the change as chosen instances; the
marker clears because the commit applied.

- **Migration:** the marker is ``shard_map.migrating``; the wait, until
  the source group applied everything below the election barrier; the
  transfer, era-stamped ``copy`` commands into the new owner group; the
  commit, the ``commit_migration`` map.
- **View change:** the marker is a group whose applied view is older
  than the newest view another group chose (a view change is a chosen
  instance *per group*, §4.6); the wait, a drain of every group's
  proposals; the transfer, placement confirmation (§4.6 optimization 2)
  in the lagging groups that lose a member; the commit, a ``NewView`` in
  each lagging group.

A successor therefore finishes what a crashed leader started:
:meth:`Reconfig.resume` runs on election win, and again when a view or
map command applies at the leader. The server is the driver's one
:class:`ReconfigHost`; :meth:`Reconfig.reset` is all a crash or a
demotion clears.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol

from ..core import Value, classic_paxos, fresh_value_id, rs_paxos
from .batch import BatchMeta, is_batch, meta_of, payload_for_key, put_keys_of
from .messages import (
    Command,
    ConfirmPlacement,
    Heartbeat,
    InstallShare,
    NewView,
    PlacementGaps,
    ShardCmd,
)
from .shard import era_of, instance_of

#: The bounded wait polls every ``POLL``. A view change that cannot
#: drain in ``VIEW_POLLS`` aborts (the repair controller retries it with
#: backoff); a migration whose source cannot apply its barrier in
#: ``MIGRATION_POLLS`` aborts and retries after ``MIGRATION_RETRY``.
POLL = 0.02
VIEW_POLLS = 50
MIGRATION_POLLS = 500
MIGRATION_RETRY = 0.5
#: Patience of one placement confirmation.
CONFIRM_TIMEOUT = 1.0
CONFIRM_RETRIES = 5
#: Copy commands a migration keeps in flight.
COPY_WINDOW = 8

VIEW, MIGRATION = "view", "migration"


def config_for(config, n: int):
    """The §6.1 rule: keep the fault-tolerance target F and re-derive
    quorums and coding at ``n`` members — N=5, Q=4, θ(3,5) shrinks to
    N=4, Q=3, θ(2,4) and grows back; classic Paxos takes the majority.
    Growth needs no placement confirmation: any new read quorum Q_R' >=
    Q_R still holds Q_R - 1 >= X_old members of the old view."""
    if not config.is_erasure_coded:
        return classic_paxos(n)
    return rs_paxos(n, config.f)


class ReconfigHost(Protocol):
    """What the driver needs of its server: the Paxos groups and what it
    applied from them (``store``, ``shard_map``), its
    clock (``sim``) and RPC ``endpoint``, and the actions only it can
    take."""

    sim: Any
    endpoint: Any
    metrics: Any
    node_id: int
    peers: dict[int, str]
    groups: list
    cfg_group: int | None
    store: Any
    shard_map: Any
    is_leader_server: bool

    def leadership_ballot(self) -> Any: ...
    def propose(self, group: int, value: Value, on_decided) -> bool: ...
    def after_apply(self, group: int, instance: int, cb) -> None: ...
    def with_value(self, group: int, instance: int, rec, cont) -> None: ...
    def decode_or_give_up(self, group: int, instance: int, value_id, seed,
                          cont, rec=None) -> None: ...
    def hold_share(self, node, instance: int, ballot, share) -> None: ...
    def trace(self, text: str, layer: str = "kv") -> None: ...


class _Run:
    """One attempt at one plan. Every step checks it is still live, so
    an attempt that a reset or a newer attempt replaced just stops."""

    __slots__ = ("plan", "mapv")

    def __init__(self, plan: str, mapv: int = 0):
        self.plan, self.mapv = plan, mapv


def _countdown(n: int, then: Callable[[], None]) -> Callable[..., None]:
    """A callback that runs ``then()`` on its ``n``-th call."""
    left = [n]

    def one(*_ignored) -> None:
        left[0] -= 1
        if left[0] == 0:
            then()

    return one


class Reconfig:
    """The reconfiguration driver, and the view each group applied."""

    def __init__(self, host: ReconfigHost, bootstrap: NewView):
        self._host = host
        self.views: list[NewView] = [bootstrap] * len(host.groups)
        self._runs: dict[str, _Run] = {}
        self.view_changes_completed = 0
        self.view_changes_aborted = 0
        self.migrations_completed = 0
        self.copies_proposed = 0

    @property
    def view_changing(self) -> bool:
        """A view change runs here: client writes are fenced."""
        return VIEW in self._runs

    def reset(self) -> None:
        """Stop every attempt; the next leader resumes from the markers."""
        self._runs.clear()

    def _end(self, run: _Run) -> bool:
        """Drop ``run`` if it is still the driver's; True if it was."""
        if self._runs.get(run.plan) is not run:
            return False
        del self._runs[run.plan]
        return True

    def _live(self, run: _Run) -> bool:
        host = self._host
        if (self._runs.get(run.plan) is not run
                or not host.is_leader_server):
            return False
        return run.plan == VIEW or (
            host.shard_map.version == run.mapv
            and host.shard_map.migrating is not None)

    def _wait(self, run: _Run, ready: Callable[[], bool], polls: int,
              then: Callable[[], None], spent: Callable[[], None]) -> None:
        """``then()`` once ``ready()``, polled every ``POLL`` while
        ``run`` is live; ``spent()`` after ``polls`` failed polls."""
        if not self._live(run):
            return
        if ready():
            then()
        elif polls <= 0:
            spent()
        else:
            self._host.sim.call_after(POLL, lambda: self._wait(
                run, ready, polls - 1, then, spent))

    def resume(self) -> None:
        """Finish whatever the replicated markers say is in flight."""
        self.resume_migration()
        self._resume_view()

    # -- the view-change plan (§4.6 / §6.1) ----------------------------

    def remove(self, dead_id: int) -> None:
        """Drop ``dead_id`` from every group (leader-only). Placement
        confirmation makes every survivor hold its share of every chosen
        value first, so old data stays recoverable without re-coding."""
        members = set(self.newest().members)
        if dead_id in members and dead_id != self._host.node_id and (
                len(members) > 3):  # else no meaningful smaller quorums
            self._change(members - {dead_id}, f"drop {dead_id}")

    def add(self, new_id: int) -> None:
        """Re-admit ``new_id`` to every group (leader-only); it learns
        the view commands by catch-up and its fragments by rebuild."""
        members = set(self.newest().members)
        if new_id not in members and new_id in self._host.peers:
            self._change(members | {new_id}, f"add {new_id}")

    def _change(self, members: set[int], what: str) -> None:
        if not self._host.is_leader_server or self.view_changing:
            return
        newest = self.newest()
        config = config_for(newest.config, len(members))
        self._host.trace(f"view change: {what} -> "
                         f"N={config.n} Q={config.q_w} X={config.x}")
        self._drive_view(NewView(epoch=newest.epoch + 1,
                                 members=tuple(sorted(members)),
                                 config=config))

    def _resume_view(self) -> None:
        host = self._host
        target = self.newest()
        lagging = self._lagging(target)
        if host.is_leader_server and lagging and (
                not self.view_changing):
            host.trace(f"view change: resume epoch {target.epoch} in "
                       + ", ".join(f"g{g}" for g in lagging))
            self._drive_view(target)

    def view_applied(self) -> None:
        """A view command applied here. Groups it left on different
        views are the marker: finish them, after the apply loop."""
        if (self._host.is_leader_server and not self.view_changing
                and self._lagging(self.newest())):
            self._host.sim.call_after(0.0, self._resume_view)

    def newest(self) -> NewView:
        """The newest view any group applied: the server's view."""
        return max(self.views, key=lambda v: v.epoch)

    def _lagging(self, target: NewView) -> list[int]:
        return [g for g, v in enumerate(self.views) if v.epoch < target.epoch]

    def _drive_view(self, target: NewView) -> None:
        run = self._runs[VIEW] = _Run(VIEW)
        self._wait(
            run, lambda: not any(node._inflight for node in self._host.groups),
            VIEW_POLLS, lambda: self._confirm(run, target),
            lambda: self._abort_view(run, "drain budget spent"))

    def _abort_view(self, run: _Run, why: str) -> None:
        if self._end(run):
            self.view_changes_aborted += 1
            self._host.metrics.counter("view.aborted").inc(1)
            self._host.trace(f"view change aborted ({why})")

    def _confirm(self, run: _Run, target: NewView) -> None:
        """Placement confirmation in each lagging group that loses a
        member, then the commit. An unreachable survivor aborts: without
        its share, some new read quorum could hold fewer than X shares
        of an old value (DESIGN.md "Membership lifecycle")."""
        host = self._host
        survivors = [m for m in target.members if m != host.node_id]
        shrinking = [g for g in self._lagging(target)
                     if set(host.groups[g].peers) - set(target.members)]
        if not shrinking or not survivors:
            self._commit_view(run, target)
            return
        one_done = _countdown(len(shrinking) * len(survivors), lambda: (
            self._live(run) and self._commit_view(run, target)))
        for g in shrinking:
            node = host.groups[g]
            # Instances below our compaction floor are subsumed by the
            # checkpoint (snapshot transfer re-codes the latest version
            # per key for the receiver), and superseded pre-floor
            # versions may no longer have enough live shares to gather.
            need = tuple(
                inst for inst, rec in sorted(node.chosen.items())
                if inst >= node.retired_below and put_keys_of(meta_of(rec))
            )
            req = ConfirmPlacement(group=g, instances=need)
            for m in survivors:
                host.endpoint.request(
                    host.peers[m], req, req.wire_bytes,
                    on_reply=lambda rep, g=g, m=m: self._fill_gaps(
                        g, m, rep, one_done),
                    timeout=CONFIRM_TIMEOUT, retries=CONFIRM_RETRIES,
                    on_timeout=lambda m=m: self._abort_view(
                        run, f"survivor {m} unreachable"),
                )

    def _fill_gaps(self, group: int, member: int, reply, done) -> None:
        """Send ``member`` its re-coded share of each instance it lacks."""
        host = self._host
        if not isinstance(reply, PlacementGaps) or (
                not reply.missing):
            done()
            return
        node = host.groups[group]
        sent_one = _countdown(len(reply.missing), done)
        for inst in reply.missing:
            rec = node.chosen.get(inst)
            if rec is None:
                sent_one()
                continue
            host.with_value(group, inst, rec, lambda rec, inst=inst: (
                self._send_install(group, member, inst, rec), sent_one()))

    def _send_install(self, group: int, member: int, instance: int,
                      rec) -> None:
        host = self._host
        share = host.groups[group].recode_share_for(instance, member)
        if share is not None:
            msg = InstallShare(group=group, instance=instance,
                               value_id=rec.value_id, share=share,
                               meta=meta_of(rec))
            host.endpoint.send(host.peers[member], msg, msg.wire_bytes)

    def _commit_view(self, run: _Run, target: NewView) -> None:
        """``target`` as a chosen instance in every group still behind."""
        host = self._host
        lagging = self._lagging(target)
        removed = sorted(set().union(*(host.groups[g].peers for g in lagging))
                         - set(target.members))

        def complete() -> None:
            self._end(run)
            self.view_changes_completed += 1
            # Commit fan-out switched to the new view's peers as the
            # instance applied, so a *live* removed member never hears
            # its removal. One farewell heartbeat carries the new epoch;
            # its view-epoch check pulls the view by catch-up and
            # retires the member.
            hb = Heartbeat(leader_id=host.node_id, seq=0,
                           ballot=host.leadership_ballot(),
                           view_epoch=target.epoch)
            for nid in removed:
                if nid in host.peers:
                    host.endpoint.send(host.peers[nid], hb, hb.wire_bytes)
            host.trace("view change complete")

        if not lagging:
            self._end(run)  # every group chose it meanwhile
            return
        decided = _countdown(len(lagging), complete)
        for g in lagging:
            value = Value(fresh_value_id(host.node_id), 0, None,
                          meta=Command("view", "", target))
            if not host.propose(g, value, decided):
                # Lost this group mid-change: the winner finishes it
                # from the groups that did choose it.
                self._end(run)
                return

    # -- the survivor's side of placement confirmation -----------------

    def on_confirm_placement(self, msg: ConfirmPlacement, src: str,
                             respond) -> None:
        host = self._host
        node = host.groups[msg.group]
        # Pre-floor instances are subsumed by our checkpoint: never gaps.
        missing = tuple(inst for inst in msg.instances
                        if inst >= node.retired_below
                        and not self._hold_fetchable(node, inst))
        reply = PlacementGaps(group=msg.group, missing=missing)
        respond(reply, reply.wire_bytes)

    def _hold_fetchable(self, node, instance: int) -> bool:
        """Make this replica's own share of ``instance`` one a gather can
        fetch; False if it has none. A share catch-up left on the chosen
        record answers no FetchShare, so confirming it as it is would
        let the shrunk view count a share nobody can read: it is held
        like a vote first."""
        if node.acceptor.accepted_share(instance) is not None:
            return True
        rec = node.chosen.get(instance)
        share = rec.share if rec is not None else None
        if (share is None or share.corrupt
                or node.node_id not in share.members
                or share.members.index(node.node_id) != share.index):
            return False
        self._host.hold_share(node, instance, node.acceptor.state.floor,
                              share)
        return True

    def on_install_share(self, msg: InstallShare, src: str) -> None:
        host = self._host
        node = host.groups[msg.group]
        rec = node.chosen.get(msg.instance)
        if rec is not None and rec.value_id == msg.value_id and rec.share is None:
            node.chosen[msg.instance] = rec._replace(share=msg.share)
        host.hold_share(node, msg.instance, node.acceptor.state.floor,
                        msg.share)
        # Reflect it in the store; a batched share stands in for every
        # key the batch wrote, in frame order (later commands win).
        meta, share, inst = msg.meta, msg.share, msg.instance
        if isinstance(meta, Command) and meta.op == "put":
            host.store.put(meta.key, share, share.size, inst, complete=False)
        elif is_batch(meta):
            items = meta.arg.items if isinstance(meta.arg, BatchMeta) else ()
            for item in items:
                if item.op == "put":
                    host.store.put(item.key, share, share.size, inst,
                                   complete=False)
                elif item.op == "delete":
                    host.store.delete(item.key, inst)

    # -- the migration plan (dynamic sharding) -------------------------

    def resume_migration(self) -> None:
        """Start the copy if the replicated map says a migration is in
        flight and no attempt runs here. Copies are idempotent (applies
        are era-guarded), so a successor takes over where one stopped."""
        host = self._host
        mig = host.shard_map.migrating
        if (not host.is_leader_server or mig is None
                or MIGRATION in self._runs):
            return
        run = self._runs[MIGRATION] = _Run(MIGRATION, host.shard_map.version)
        hi = "+inf" if mig[1] is None else repr(mig[1])
        host.trace(f"migration driver v{run.mapv}: copy [{mig[0]!r}, {hi}) "
                   f"g{mig[2]} -> g{mig[3]}", "shard")
        # Every write the previous map's owner could have acknowledged
        # is chosen below our election barrier, hence below
        # next_instance now: once the source group applied that prefix,
        # the store scan observes every acknowledged value.
        src = host.groups[mig[2]]
        target = src.next_instance
        self._wait(run, lambda: src.apply_cursor >= target, MIGRATION_POLLS,
                   lambda: self._copy_range(run),
                   lambda: self._abort_migration(run, MIGRATION_RETRY))

    def _abort_migration(self, run: _Run, retry: float = 0.0) -> None:
        if self._end(run) and retry > 0:
            self._host.sim.call_after(retry, self.resume_migration)

    def migration_committed(self) -> None:
        """The map that ends a migration applied (at every replica)."""
        self.migrations_completed += 1
        self._runs.pop(MIGRATION, None)

    def _copy_range(self, run: _Run) -> None:
        """Stream every stored key of the migrating range into the new
        owner group as ``copy`` commands of the new era, ``COPY_WINDOW``
        at a time, then propose the map that commits the migration."""
        host, mapv = self._host, run.mapv
        lo, hi, src, dst = host.shard_map.migrating
        keys = [k for k in host.store.keys()
                if lo <= k and (hi is None or k < hi)]
        i = pending = failed = 0
        committed = False

        def step() -> None:
            nonlocal i, pending
            if not self._live(run) or committed:
                return
            while i < len(keys) and pending < COPY_WINDOW:
                key = keys[i]
                i += 1
                entry = host.store.get_entry(key)
                if entry is None or era_of(entry.version) >= mapv:
                    # Already copied this era, or rewritten through the
                    # new owner since the cutover — never regress it.
                    continue
                pending += 1
                if entry.tombstone:
                    propose_copy(key, 0, None, tombstone=True)
                else:
                    self._materialize(
                        entry.group if entry.group >= 0 else src, key, entry,
                        lambda size, data, key=key: (
                            fail_one() if size is None
                            else propose_copy(key, size, data)))
            if i >= len(keys) and pending == 0:
                finish()

        def propose_copy(key, size, data, tombstone=False) -> None:
            if not self._live(run):
                return
            value = Value(fresh_value_id(host.node_id), size, data,
                          meta=Command("copy", key, mapv=mapv,
                                       arg="tombstone" if tombstone else None))
            if not host.propose(dst, value, lambda inst, v: host.after_apply(
                    dst, inst, done_one)):
                self._abort_migration(run)
                return
            self.copies_proposed += 1
            host.metrics.counter("shard.copies").inc(1)

        def fail_one() -> None:
            nonlocal failed
            failed += 1
            done_one()

        def done_one() -> None:
            nonlocal pending
            pending -= 1
            host.sim.call_after(0.0, step)

        def finish() -> None:
            nonlocal committed
            if committed or not self._live(run):
                return
            committed = True
            if failed:
                # Some values were unreconstructible right now (too many
                # peers down): retry the idempotent copy soon.
                host.metrics.counter("shard.copy_retries").inc(1)
                self._abort_migration(run, MIGRATION_RETRY)
                return
            new_map = host.shard_map.commit_migration()
            if not self.propose_map(new_map):
                self._abort_migration(run)
                return
            host.trace(f"migration v{mapv} copies done ({i} scanned), "
                       f"committing v{new_map.version}", "shard")

        step()

    def _materialize(self, group: int, key: str, entry, cont) -> None:
        """``cont(size, data)`` with the full current value of a stored
        entry (gathered and decoded when only a fragment is local), or
        ``cont(None, None)`` when it cannot be reconstructed now."""
        if entry.complete:
            cont(entry.size, entry.value)
            return
        node = self._host.groups[group]
        inst = instance_of(entry.version)

        def decoded(value) -> None:
            if value is None:
                cont(None, None)  # the retry pass picks it up
            else:
                data, size = payload_for_key(value.meta, value.data,
                                             value.size, key)
                cont(size, data)

        share = node.acceptor.accepted_share(inst)
        usable = share is not None and not share.corrupt
        self._host.decode_or_give_up(group, inst,
                                     share.value_id if usable else None,
                                     share, decoded, rec=node.chosen.get(inst))

    def propose_map(self, new_map) -> bool:
        """Replicate a successor shard map through the config group."""
        host = self._host
        cmd = ShardCmd(version=new_map.version, num_groups=new_map.num_groups,
                       ranges=new_map.ranges, migrating=new_map.migrating)
        value = Value(fresh_value_id(host.node_id), 0, None,
                      meta=Command("shard", "", cmd))
        if not host.propose(host.cfg_group, value, lambda inst, v: None):
            return False
        host.metrics.counter("shard.cmds_proposed").inc(1)
        return True
