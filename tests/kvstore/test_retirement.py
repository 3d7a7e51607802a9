"""Retiring the decided log below the checkpoint floor.

When a checkpoint turns durable, a replica drops the acceptor and
learner records of every instance below its floor that no key's stored
version names (DESIGN.md §5 "Recovery lifecycle"). Three things must
hold for that to be safe and worth it:

- *The floor is fenced.* Every promise names the acceptor's
  ``retired_below``; a leader never re-drives or free-chooses below the
  highest one it hears, and its apply cursor gets there by snapshot.
- *Nothing is forgotten by the probes.* A retired learner record leaves
  a digest of its value id, so ``check_unique_choice`` still compares a
  replica that retired an instance with one that learned it, across a
  crash too.
- *Memory at rest follows the keys, not the history.* With checkpoints
  on, the records a replica holds (live, in ``checkpointer.held`` and in
  the segments) after N writes and after 4N differ by at most the
  keyspace plus one interval's writes.
"""

import pytest

from repro.check import check_cluster, check_unique_choice
from repro.core import ConsistencyViolation, PromiseTracker, rs_paxos
from repro.kvstore import build_cluster

from .test_checkpoint_segments import checkpoint, write_exactly
from .test_rebuild import make, pump

LAGGARD = 1     # node id of the replica that falls behind, then leads


def floor_script():
    """A replica whose cursor is below its peers' ``retired_below`` wins
    a prepare whose quorum holds them. Returns the cluster, the
    instances the new leader re-drove or proposed, the retirement
    floor, and the violations the run ended with."""
    c = build_cluster(rs_paxos(5, 1), seed=5, num_groups=1,
                      checkpoint_interval=0.0)
    c.start()
    c.run(until=1.0)                            # 1. node 0 leads
    lag, old = c.servers[LAGGARD], c.servers[0]
    others = [s for s in c.servers if s not in (lag, old)]
    c.net.partition([lag.name], [s.name for s in c.servers if s is not lag])
    write_exactly(c, 24, num_keys=2)            # 2. two keys, rewritten
    for srv in others:                          # 3. retire below the floor
        assert checkpoint(srv)
    floor = min(s.groups[0].acceptor.state.retired_below for s in others)
    assert lag.groups[0].apply_cursor < floor
    for srv in others:                          # 4. only the laggard stands
        srv._maybe_elect = lambda: None
    old.crash()                                 # 5. the leader dies
    c.net.heal()                                # 6. the laggard comes back
    driven: list[int] = []
    node = lag.groups[0]
    real_round = node._run_accept_round
    node._run_accept_round = lambda inst, *a, **k: (
        driven.append(inst), real_round(inst, *a, **k))
    violations = []
    try:
        c.run(until=c.sim.now + 4.0)            # 7. it wins the prepare
        assert lag.is_leader_server
        pump(c, [("k0", 3000), ("k9", 3000)])   # 8. and serves writes
        c.run(until=c.sim.now + 2.0)
        old.recover()                           # 9. settle
        c.run(until=c.sim.now + 3.0)
    except ConsistencyViolation as exc:
        violations.append(("unique-choice", str(exc)))
    violations += [(v.kind, v.detail) for v in (
        check_cluster(c.servers, c.servers[0].config) if not violations
        else check_unique_choice(c.servers))]
    return c, driven, floor, violations


class TestRetirementFloor:
    def test_new_leader_waits_for_the_floor_by_snapshot(self):
        c, driven, floor, violations = floor_script()
        lag = c.servers[LAGGARD]
        assert violations == []
        assert driven and min(driven) >= floor     # nothing re-driven below
        assert lag.groups[0].apply_cursor > floor
        assert c.metrics.counter("rebuild.snapshot_transfers").value >= 1

    def test_ignoring_the_floor_free_chooses_over_retired_values(
            self, monkeypatch):
        """Teeth: a leader blind to ``retired_below`` sees no vote for
        the retired instances, fills them with no-ops, and the run ends
        in a unique-choice violation."""
        monkeypatch.setattr(PromiseTracker, "retired_below", property(
            lambda self: 0))
        _, driven, floor, violations = floor_script()
        assert min(driven) < floor
        assert "unique-choice" in {kind for kind, _ in violations}


class TestRetiredInstancesStayCompared:
    def test_a_crash_keeps_what_was_retired(self):
        c = make(interval=0.0)
        srv, peer = c.servers[2], c.servers[3]
        write_exactly(c, 40, num_keys=2)
        assert checkpoint(srv)
        g, node = max(enumerate(srv.groups),
                      key=lambda gn: gn[1].acceptor.state.retired_below)
        gone = [i for i in range(node.acceptor.state.retired_below)
                if node.retired_digest(i) and i not in node.chosen]
        assert gone                                  # not vacuous
        srv.crash()
        srv.recover()
        node = srv.groups[g]
        assert all(node.retired_digest(i) for i in gone)
        assert all(i not in node.chosen
                   and i not in node.acceptor.state.instances for i in gone)
        assert check_unique_choice(c.servers) == []
        # A peer that learned something else there is caught.
        inst = gone[0]
        chosen = peer.groups[g].chosen
        chosen[inst] = chosen.get(inst, next(iter(chosen.values())))._replace(
            value_id="forged")
        violations = check_unique_choice(c.servers)
        assert [v.kind for v in violations] == ["unique-choice"]
        assert f"instance {inst}" in violations[0].detail

    def test_a_late_commit_of_another_value_raises(self):
        c = make(interval=0.0)
        srv = c.servers[2]
        write_exactly(c, 40, num_keys=2)
        assert checkpoint(srv)
        node = max(srv.groups, key=lambda n: n.acceptor.state.retired_below)
        inst = next(i for i in range(node.acceptor.state.retired_below)
                    if node.retired_digest(i))
        with pytest.raises(ConsistencyViolation):
            node.install_chosen(inst, next(iter(node.chosen.values()))
                                ._replace(value_id="forged"))


def held_records(srv) -> int:
    """Acceptor, learner, held and segment records of ``srv``."""
    live = sum(len(n.acceptor.state.instances) + len(n.chosen)
               for n in srv.groups)
    held = sum(len(m) for g in range(len(srv.groups))
               for m in srv.checkpointer.held.records(g))
    segments = sum(len(acc) + len(chosen)
                   for seg in srv.checkpoint_store.segments
                   for acc, chosen in seg.payload["groups"])
    return live + held + segments


class TestMemoryAtRest:
    KEYS = 8
    INTERVAL = 50       # writes between two checkpoints

    def records_after(self, writes: int) -> list[int]:
        """Records each replica holds after ``writes`` writes over
        ``KEYS`` keys, with a checkpoint everywhere after every
        ``INTERVAL`` writes."""
        c = make(seed=3, interval=0.0)
        for _ in range(writes // self.INTERVAL):
            write_exactly(c, self.INTERVAL, num_keys=self.KEYS)
            for srv in c.servers:
                assert checkpoint(srv)
        return [held_records(srv) for srv in c.servers]

    def test_records_follow_the_keys_not_the_history(self):
        n = self.records_after(200)
        four_n = self.records_after(800)
        for small, large in zip(n, four_n):
            assert abs(large - small) <= self.KEYS + self.INTERVAL, (n, four_n)
        # Without retirement each write leaves six records per replica
        # (acceptor and learner; live, held, in a segment): 4,800 here.
        assert max(four_n) < 800
