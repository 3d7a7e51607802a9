"""Ablation: view-change cost and the §4.6 re-coding optimizations.

Measures (a) the modeled migration cost of the three §4.6 strategies,
(b) the wall-clock/wire cost of a *runtime* view change in the KV
store, and (c) that the optimization-2 confirmation kept old data
readable without re-spreading it.
"""

import pytest

from repro.core import (
    MigrationKind,
    View,
    classify_migration,
    migration_bytes,
    rs_paxos,
    rs_paxos_custom,
)
from repro.kvstore import build_cluster

MB = 1024 * 1024


def test_migration_cost_model(benchmark):
    old = View(0, tuple(range(5)), rs_paxos(5, 1))
    shrink = old.successor(tuple(range(4)), rs_paxos_custom(4, 3, 3, x=2))
    grow = old.successor(tuple(range(6)), rs_paxos_custom(6, 5, 5, x=4))

    def costs():
        return {
            "shrink/placed": migration_bytes(
                old, shrink, 3 * MB,
                classify_migration(old, shrink, all_shares_placed=True)),
            "shrink/unplaced": migration_bytes(
                old, shrink, 3 * MB,
                classify_migration(old, shrink, all_shares_placed=False)),
            "grow": migration_bytes(
                old, grow, 3 * MB,
                classify_migration(old, grow, all_shares_placed=True)),
        }

    out = benchmark(costs)
    assert out["shrink/placed"] == 0  # optimization 2
    assert out["shrink/unplaced"] > 0
    assert out["grow"] > 0
    print()
    print(f"  per-3MB-value migration bytes: {out}")


def _run_view_change(num_values, value_size, seed=0):
    cluster = build_cluster(
        rs_paxos(5, 1), num_clients=1, num_groups=2, seed=seed,
        rpc_timeout=30.0, client_timeout=60.0,
    )
    cluster.start()
    cluster.run(until=1.0)
    client = cluster.clients[0]
    done = {"n": 0}

    def write(i=0):
        if i >= num_values:
            return
        client.put(f"vc-{i}", value_size,
                   on_done=lambda ok: (done.__setitem__("n", done["n"] + 1),
                                       write(i + 1)))

    write()
    cluster.run(until=cluster.sim.now + 60.0)
    assert done["n"] == num_values
    cluster.crash_server(4)
    cluster.run(until=cluster.sim.now + 1.0)
    bytes_before = cluster.net.total_bytes_sent()
    t0 = cluster.sim.now
    leader = cluster.leader()
    leader.reconfigure_remove(4)
    cluster.run(until=cluster.sim.now + 10.0)
    assert leader.reconfig.view_changes_completed == 1
    return {
        "wire_bytes": cluster.net.total_bytes_sent() - bytes_before,
        "sim_seconds": cluster.sim.now - t0 - 10.0 + 10.0,
        "cluster": cluster,
    }


def test_runtime_view_change_is_metadata_cheap(once, benchmark):
    """With all shares placed (chosen + spread), the §4.6 confirmation
    moves no value data: the wire cost of the change is a tiny fraction
    of the stored payload."""

    def experiment():
        return _run_view_change(num_values=10, value_size=1 * MB)

    out = once(benchmark, experiment)
    payload = 10 * 1 * MB
    assert out["wire_bytes"] < payload * 0.05, out["wire_bytes"]
    print()
    print(f"  view-change wire bytes: {out['wire_bytes']} "
          f"({out['wire_bytes'] / payload * 100:.2f}% of stored payload)")


def test_old_data_survives_view_change(once, benchmark):
    def experiment():
        out = _run_view_change(num_values=5, value_size=256 * 1024)
        cluster = out["cluster"]
        got = []
        for i in range(5):
            cluster.clients[0].get(
                f"vc-{i}", on_done=lambda ok, size, i=i: got.append((i, ok, size))
            )
        cluster.run(until=cluster.sim.now + 20.0)
        return got

    got = once(benchmark, experiment)
    assert sorted(got) == [(i, True, 256 * 1024) for i in range(5)]
