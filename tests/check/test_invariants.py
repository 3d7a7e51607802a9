"""Unit tests for the replicated-state invariant probes.

The probes only touch a narrow attribute surface (``srv.up``,
``srv.name``, ``srv.groups[g].chosen`` / ``.retired_below`` /
``.retired_digests`` / ``.acceptor``, ``srv.checkpointer.last_at``), so
lightweight fakes keep these tests at unit scale;
whole-system coverage comes from the chaos suite. The probes read that
surface as plain attributes, never with a default, so a fake must carry
every attribute a probe reads: a missing one fails loudly here instead
of passing silently.
"""

from types import SimpleNamespace

from repro.check import (
    check_bounded_wal,
    check_config_safety,
    check_decodability,
    check_store_agreement,
    check_unique_choice,
)
from repro.core import QuorumSystem, UnsafeProtocolConfig, classic_paxos, rs_paxos
from repro.core.value import value_digest
from repro.erasure import CodingConfig
from repro.kvstore.messages import Command
from repro.storage import LocalStore

CODING = CodingConfig(3, 5)
PUT = Command("put", "k")


def share(index, value_id="v1", coding=CODING):
    return SimpleNamespace(value_id=value_id, index=index, config=coding,
                           meta=PUT, corrupt=False)


def rec(value_id="v1", value=None, share=None):
    return SimpleNamespace(value_id=value_id, value=value, share=share)


def full_value(value_id="v1"):
    return SimpleNamespace(value_id=value_id, meta=PUT)


def server(name, chosen, accepted=None, up=True, retired=None):
    """A one-group fake; ``retired`` maps instance to the value id of a
    retired learner record, of which the node keeps the digest."""
    accepted = accepted or {}
    acceptor = SimpleNamespace(accepted_share=lambda inst: accepted.get(inst))
    retired = retired or {}
    digests = [value_digest(retired[i]) if i in retired else 0
               for i in range(max(retired, default=-1) + 1)]
    node = SimpleNamespace(chosen=chosen, acceptor=acceptor,
                           retired_below=0, retired_digests=digests)
    return SimpleNamespace(name=name, up=up, groups=[node], store=LocalStore())


class TestConfigSafety:
    def test_safe_configs_pass(self):
        assert check_config_safety(rs_paxos(5, 1)) == []
        assert check_config_safety(classic_paxos(5)) == []

    def test_weakened_quorums_caught(self):
        # Q1 + Q2 = 7 < N + k = 8: overlap 2 cannot carry X=3 shares.
        cfg = UnsafeProtocolConfig(QuorumSystem(5, 3, 4), CodingConfig(3, 5))
        violations = check_config_safety(cfg)
        assert [v.kind for v in violations] == ["config"]


class TestUniqueChoice:
    def test_agreement_passes(self):
        servers = [
            server("S0", {7: rec("v1")}),
            server("S1", {7: rec("v1"), 8: rec("v2")}),
        ]
        assert check_unique_choice(servers) == []

    def test_divergent_choice_caught(self):
        servers = [
            server("S0", {7: rec("v1")}),
            server("S1", {7: rec("OTHER")}),
        ]
        violations = check_unique_choice(servers)
        assert [v.kind for v in violations] == ["unique-choice"]
        assert "instance 7" in violations[0].detail

    def test_retired_instance_still_compared(self):
        """S0 retired instance 7's records and kept only its value id;
        S1 learned something else there, and S2 retired it too."""
        agree = [
            server("S0", {}, retired={7: "v1"}),
            server("S1", {7: rec("v1")}),
            server("S2", {8: rec("v2")}, retired={5: "v0", 7: "v1"}),
        ]
        assert check_unique_choice(agree) == []
        for other in (server("S1", {7: rec("OTHER")}),
                      server("S1", {}, retired={7: "OTHER"})):
            violations = check_unique_choice([agree[0], other])
            assert [v.kind for v in violations] == ["unique-choice"]
            assert "instance 7" in violations[0].detail
            assert "retired value" in violations[0].detail


class TestDecodability:
    def test_enough_shares_decodable(self):
        servers = [
            server(f"S{i}", {3: rec(share=share(i))}) for i in range(3)
        ]
        assert check_decodability(servers) == []

    def test_full_copy_suffices(self):
        servers = [
            server("S0", {3: rec(value=full_value())}),
            server("S1", {}),
        ]
        assert check_decodability(servers) == []

    def test_accepted_but_unchosen_shares_count(self):
        # Only S0 learned the choice; S1/S2 still hold accepted shares.
        servers = [
            server("S0", {3: rec(share=share(0))}),
            server("S1", {}, accepted={3: share(1)}),
            server("S2", {}, accepted={3: share(2)}),
        ]
        assert check_decodability(servers) == []

    def test_too_few_shares_caught(self):
        servers = [
            server("S0", {3: rec(share=share(0))}),
            server("S1", {3: rec(share=share(1))}),
        ]
        violations = check_decodability(servers)
        assert [v.kind for v in violations] == ["decodability"]

    def test_down_servers_do_not_count(self):
        servers = [
            server(f"S{i}", {3: rec(share=share(i))}, up=(i < 2))
            for i in range(3)
        ]
        violations = check_decodability(servers)
        assert [v.kind for v in violations] == ["decodability"]

    def test_duplicate_share_indices_do_not_count_twice(self):
        servers = [
            server("S0", {3: rec(share=share(0))}),
            server("S1", {3: rec(share=share(0))}),
            server("S2", {3: rec(share=share(0))}),
        ]
        assert len(check_decodability(servers)) == 1


def wal_server(
    name="S0", durable_lsns=(), next_lsn=0, floor=0, interval=1.0,
    last_ckpt=None, now=10.0, up=True,
):
    wal = SimpleNamespace(
        durable=[SimpleNamespace(lsn=lsn) for lsn in durable_lsns],
        next_lsn=next_lsn, compaction_floor=floor,
    )
    return SimpleNamespace(
        name=name, up=up, wal=wal,
        cfg=SimpleNamespace(checkpoint_interval=interval),
        checkpointer=SimpleNamespace(last_at=last_ckpt),
        sim=SimpleNamespace(now=now),
    )


class TestBoundedWal:
    def test_healthy_server_passes(self):
        srv = wal_server(durable_lsns=(5, 6), next_lsn=7, floor=5,
                         last_ckpt=9.5)
        assert check_bounded_wal([srv]) == []

    def test_record_below_floor_caught(self):
        srv = wal_server(durable_lsns=(2, 5, 6), next_lsn=8, floor=5,
                         last_ckpt=9.5)
        violations = check_bounded_wal([srv])
        assert [v.kind for v in violations] == ["bounded-wal"]
        assert "below its" in violations[0].detail

    def test_log_larger_than_lsn_span_caught(self):
        srv = wal_server(durable_lsns=(5, 5, 6), next_lsn=7, floor=5,
                         last_ckpt=9.5)
        violations = check_bounded_wal([srv])
        assert [v.kind for v in violations] == ["bounded-wal"]

    def test_never_checkpointed_caught(self):
        srv = wal_server(next_lsn=3, last_ckpt=None, now=10.0)
        violations = check_bounded_wal([srv])
        assert [v.kind for v in violations] == ["bounded-wal"]
        assert "never completed" in violations[0].detail

    def test_stale_checkpoint_caught(self):
        srv = wal_server(next_lsn=3, floor=3, last_ckpt=1.0, now=10.0)
        violations = check_bounded_wal([srv])
        assert [v.kind for v in violations] == ["bounded-wal"]
        assert "stale" in violations[0].detail

    def test_young_server_gets_slack(self):
        # Within 4 intervals of start, no cadence complaint yet.
        srv = wal_server(next_lsn=3, last_ckpt=None, now=3.0)
        assert check_bounded_wal([srv]) == []

    def test_down_or_unconfigured_servers_skipped(self):
        down = wal_server(last_ckpt=None, up=False)
        no_ckpt = wal_server(interval=0.0, last_ckpt=None)
        assert check_bounded_wal([down, no_ckpt]) == []


def store_server(name, cursors, entries, up=True, rebuilding=False):
    """A replica for ``check_store_agreement``: ``cursors`` per group,
    ``entries`` as key -> (version, tombstone, group); untagged entries
    (group -1) route by key to group 0."""
    store = LocalStore(name)
    for key, (version, tombstone, group) in entries.items():
        store.put(key, None, 0, version, tombstone=tombstone, group=group)
    return SimpleNamespace(
        name=name, up=up, rebuilding=rebuilding, store=store,
        groups=[SimpleNamespace(apply_cursor=c) for c in cursors],
        shard_map=SimpleNamespace(group_of=lambda key: 0),
    )


class TestStoreAgreement:
    """The rules; the teeth are the wipe/rejoin-under-load run in
    ``tests/kvstore/test_rebuild.py``, which fails without the fix."""

    def test_equal_stores_at_equal_cursors_pass(self):
        held = {"a": (3, False, -1), "b": (5, True, -1)}
        servers = [store_server(n, [6], held) for n in ("S0", "S1", "S2")]
        assert check_store_agreement(servers) == []

    def test_stale_and_absent_keys_at_the_same_cursor_are_caught(self):
        servers = [
            store_server("S0", [6], {"a": (3, False, -1), "b": (5, False, -1)}),
            store_server("S1", [6], {"a": (2, False, -1)}),
        ]
        got = check_store_agreement(servers)
        assert [v.kind for v in got] == ["store-agreement"] * 2
        assert "'a'" in got[0].detail and "absent" in got[1].detail

    def test_tombstone_versus_live_entry_is_caught(self):
        servers = [store_server("S0", [6], {"a": (3, False, -1)}),
                   store_server("S1", [6], {"a": (3, True, -1)})]
        assert len(check_store_agreement(servers)) == 1

    def test_replicas_behind_down_or_rebuilding_are_not_compared(self):
        good = {"a": (3, False, -1)}
        servers = [
            store_server("S0", [6], good),
            store_server("S1", [4], {}),                    # still behind
            store_server("S2", [6], {}, up=False),
            store_server("S3", [6], {}, rebuilding=True),
        ]
        assert check_store_agreement(servers) == []

    def test_key_owned_by_another_group_on_one_side_is_judged_there(self):
        # S1 is further ahead in group 1, whose later-era copy of "a"
        # already replaced group 0's entry there.
        servers = [
            store_server("S0", [6, 2], {"a": (3, False, 0)}),
            store_server("S1", [6, 4], {"a": ((1 << 48) | 3, False, 1)}),
        ]
        assert check_store_agreement(servers) == []
