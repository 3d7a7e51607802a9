"""Tests for bit-rot injection and the background scrub/repair path."""

import dataclasses

from repro.core import Accept, classic_paxos, rs_paxos
from repro.kvstore import build_cluster
from repro.sim import Simulator


def make(seed=3, scrub_interval=0.0, protocol=rs_paxos(5, 1), **kw):
    c = build_cluster(protocol, seed=seed, num_groups=2,
                      client_timeout=1.0, scrub_interval=scrub_interval, **kw)
    c.start()
    c.run(until=1.0)
    return c


def put(c, key, size):
    done = []
    c.clients[0].put(key, size, on_done=done.append)
    c.run(until=c.sim.now + 2.0)
    assert done == [True]


def rot_rng(c):
    return c.sim.rng.stream("test.bitrot")


class TestInjection:
    def test_rot_invalidates_exactly_one_record(self):
        c = make()
        put(c, "k", 100)
        srv = c.servers[2]
        assert srv.wal.verify() == []
        assert srv.scrubber.rot(rot_rng(c))
        assert len(srv.wal.verify()) == 1
        assert c.metrics.counter("scrub.rot_injected").value == 1

    def test_rot_with_no_accept_records_is_noop(self):
        c = make()  # no puts yet: nothing durable to rot
        assert not c.servers[1].scrubber.rot(rot_rng(c))

    def test_rotten_share_excluded_from_memory_copies(self):
        c = make()
        put(c, "k", 100)
        srv = c.servers[3]
        srv.scrubber.rot(rot_rng(c))
        rec = srv.wal.verify()[0]
        accepted = srv.groups[rec.tag].acceptor.accepted_share(
            rec.payload.instance)
        assert accepted.corrupt  # the cached view mirrors the rot


class TestRepair:
    def test_follower_repairs_over_network(self):
        # A follower holds only its own fragment; repair must fetch
        # from peers (the leader re-codes the requester's exact
        # fragment — one share of traffic, not X).
        c = make()
        put(c, "k", 300)
        srv = c.servers[2]  # follower
        srv.scrubber.rot(rot_rng(c))
        srv.scrubber.scrub()
        c.run(until=c.sim.now + 2.0)
        assert srv.wal.verify() == []
        assert c.metrics.counter("scrub.repaired").value == 1
        assert c.metrics.counter("scrub.repair_bytes").value > 0

    def test_leader_repairs_locally_for_free(self):
        # The leader still holds the full value, so repair re-encodes
        # the fragment locally: zero repair traffic.
        c = make()
        put(c, "k", 300)
        leader = c.servers[0]
        leader.scrubber.rot(rot_rng(c))
        leader.scrubber.scrub()
        c.run(until=c.sim.now + 2.0)
        assert leader.wal.verify() == []
        assert c.metrics.counter("scrub.repaired").value == 1
        assert c.metrics.counter("scrub.repair_bytes").value == 0

    def test_repaired_share_feeds_decoder(self):
        # After repair, a consistent read served from coded shares
        # (leader crashed, new leader reconstructs) still decodes.
        c = make()
        put(c, "k", 512)
        srv = c.servers[4]
        srv.scrubber.rot(rot_rng(c))
        srv.scrubber.scrub()
        c.run(until=c.sim.now + 2.0)
        assert srv.wal.verify() == []
        sizes = []
        c.clients[0].get("k", mode="consistent",
                         on_done=lambda ok, size: sizes.append(size))
        c.run(until=c.sim.now + 2.0)
        assert sizes == [512]

    def test_background_scrubber_repairs_without_manual_pass(self):
        c = make(scrub_interval=0.5)
        put(c, "k", 200)
        srv = c.servers[1]
        srv.scrubber.rot(rot_rng(c))
        c.run(until=c.sim.now + 3.0)  # several scrub intervals
        assert srv.wal.verify() == []
        assert c.metrics.counter("scrub.passes").value > 1
        assert c.metrics.counter("scrub.repaired").value == 1

    def test_scrub_on_clean_server_repairs_nothing(self):
        c = make()
        put(c, "k", 100)
        c.servers[2].scrubber.scrub()
        c.run(until=c.sim.now + 1.0)
        assert c.metrics.counter("scrub.passes").value == 1
        assert c.metrics.counter("scrub.corrupt_found").value == 0
        assert c.metrics.counter("scrub.repaired").value == 0

    def test_classic_paxos_repairs_from_full_copies(self):
        # Full replication: every replica's "share" is the whole value,
        # so any peer can hand back a clean copy.
        c = make(protocol=classic_paxos(5))
        put(c, "k", 256)
        srv = c.servers[3]
        srv.scrubber.rot(rot_rng(c))
        srv.scrubber.scrub()
        c.run(until=c.sim.now + 2.0)
        assert srv.wal.verify() == []
        assert c.metrics.counter("scrub.repaired").value == 1


class TestQuarantine:
    def test_losing_vote_is_quarantined_not_fetched(self):
        # A rotten share whose instance decided a *different* value can
        # never be needed again (and may be globally unreconstructible)
        # — the scrubber rewrites it checksum-valid with the share
        # durably flagged corrupt, instead of burning repair traffic.
        c = make()
        put(c, "k", 100)
        srv = c.servers[2]
        rec = next(r for r in srv.wal.durable
                   if r.valid and isinstance(r.payload, Accept))
        vote, group = rec.payload, rec.tag
        loser = dataclasses.replace(vote.share, value_id="losing-proposal")
        srv.wal.corrupt_record(
            rec.lsn, Accept(vote.instance, vote.ballot, loser))
        srv.scrubber.scrub()
        c.run(until=c.sim.now + 1.0)
        assert c.metrics.counter("scrub.fetches_served").value == 0
        assert c.metrics.counter("scrub.quarantined").value == 1
        assert c.metrics.counter("scrub.repair_bytes").value == 0
        # The rewritten record is checksum-valid again (integrity probe
        # passes) but carries the durable corrupt flag: a new vote, same
        # instance, ballot and group.
        assert srv.wal.verify() == []
        quarantined = rec.payload
        assert (quarantined.instance, quarantined.ballot) == (
            vote.instance, vote.ballot)
        assert quarantined.share.corrupt and rec.tag == group in (0, 1)


class TestCrashSafety:
    def test_crash_cancels_scrubber_and_recover_rearms(self):
        c = make(scrub_interval=0.5)
        put(c, "k", 100)
        srv = c.servers[2]
        c.run(until=c.sim.now + 2.0)
        passes = c.metrics.counter("scrub.passes").value
        srv.crash()
        c.run(until=c.sim.now + 2.0)
        # Peers keep scrubbing; the crashed server contributes nothing.
        srv.recover()
        srv.scrubber.rot(rot_rng(c))
        c.run(until=c.sim.now + 3.0)
        assert c.metrics.counter("scrub.passes").value > passes
        assert srv.wal.verify() == []

    def test_rot_survives_crash_then_gets_repaired(self):
        # Rot lands, server crashes before any scrub pass; recovery
        # carries the corrupt record forward and the scrubber repairs
        # it after rejoin.
        c = make(scrub_interval=0.5)
        put(c, "k", 200)
        srv = c.servers[1]
        srv.scrubber.rot(rot_rng(c))
        srv.crash()
        c.run(until=c.sim.now + 1.0)
        srv.recover()
        assert srv.wal.recovery_corrupt == 1  # carried, not truncated
        c.run(until=c.sim.now + 3.0)
        assert srv.wal.verify() == []
        assert c.metrics.counter("scrub.repaired").value == 1

    def test_crash_forgets_repairs_in_flight(self):
        # A crash stops the peer gather of a repair in flight; the
        # passes after recovery must start it again, not skip it as
        # still in flight.
        c = make(scrub_interval=0.5)
        put(c, "k", 200)
        srv = c.servers[2]  # follower: repair must gather from peers
        assert srv.scrubber.rot(rot_rng(c))
        srv.scrubber.scrub()
        assert len(srv.scrubber.inflight) == 1
        srv.crash()
        c.run(until=c.sim.now + 1.0)
        srv.recover()
        c.run(until=c.sim.now + 3.0)
        assert srv.wal.verify() == []
        assert c.metrics.counter("scrub.repaired").value == 1
