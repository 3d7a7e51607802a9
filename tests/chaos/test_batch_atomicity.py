"""Batch atomicity under faults.

A closed batch is one Paxos value: either the instance is chosen and
every command in the frame applies (and is acked), or the instance
never forms and *no* command is acked. The sharpest window is between
batch close and the Accept fan-out — the batch exists on the leader
only. Crashing there must lose the whole batch, never a prefix.
"""

from __future__ import annotations

from dataclasses import replace

from repro.chaos import EPISODE_SERVER, ChaosRunner, ChaosSpec
from repro.chaos.schedule import ScheduleSpec
from repro.check import check_durable_integrity
from repro.core import classic_paxos, rs_paxos
from repro.kvstore import build_cluster

#: Short episodes, as in test_chaos.py, plus batching turned on.
BATCH_SPEC = ChaosSpec(
    schedule=ScheduleSpec(fault_window=4.0, mean_gap=0.8),
    settle=3.0,
    num_clients=2,
    num_keys=4,
    server=replace(EPISODE_SERVER, batch_max_commands=4, batch_linger=0.0005),
)


def _crash_between_close_and_accept(config, seed: int):
    """Build a cluster where the leader crashes the moment the first
    batch tries to send its Accepts (i.e. after batch close + encode,
    before any Accept leaves the host)."""
    c = build_cluster(
        config,
        num_clients=4,
        num_groups=1,
        seed=seed,
        batch_max_commands=4,
        batch_linger=0.0005,
        client_timeout=0.25,
    )
    c.start()
    c.run(until=1.0)
    leader = c.leader()
    assert leader is not None
    node = leader.groups[0]
    fired = {"n": 0}

    def boom(instance, ballot, value) -> None:
        fired["n"] += 1
        leader.crash()  # nothing durable, nothing on the wire

    node._send_accepts = boom
    return c, leader, fired


def test_leader_crash_between_batch_close_and_accept_loses_whole_batch():
    c, crashed, fired = _crash_between_close_and_accept(rs_paxos(5, 1), 13)
    results: list[bool] = []
    for i, cl in enumerate(c.clients):
        cl.max_attempts = 1  # no retries: an ack means THIS attempt won
        cl.put(f"atom-{i}", 64 + i, on_done=results.append)
    c.run(until=c.sim.now + 3.0)

    assert fired["n"] == 1, "the batch closed into exactly one proposal"
    # Atomicity, failure half: no command of the doomed batch was acked.
    assert results == [False, False, False, False]
    # ... and no replica holds any of its keys, not even partially.
    for s in c.servers:
        for i in range(4):
            assert s.store.get_entry(f"atom-{i}") is None
    # The cluster failed over and its durable state is still coherent.
    assert c.leader() is not None and c.leader() is not crashed
    assert check_durable_integrity(c.servers) == []


def test_reissue_after_crashed_batch_commits_all_or_nothing():
    """Same crash; the clients' ops all fail (the batch died whole),
    then reissuing them against the new leader commits them all —
    acks and state agree exactly, before and after."""
    c, crashed, fired = _crash_between_close_and_accept(rs_paxos(5, 1), 17)
    first: list[bool] = []
    for i, cl in enumerate(c.clients):
        cl.max_attempts = 1
        cl.put(f"retry-{i}", 64 + i, on_done=first.append)
    c.run(until=c.sim.now + 4.0)  # failover window
    assert fired["n"] == 1
    assert first == [False, False, False, False]
    assert c.leader() is not None and c.leader() is not crashed

    second: list[bool] = []
    for i, cl in enumerate(c.clients):
        cl.max_attempts = 6
        cl.put(f"retry-{i}", 64 + i, on_done=second.append)
    c.run(until=c.sim.now + 3.0)
    assert second == [True, True, True, True]
    leader = c.leader()
    for i in range(4):
        assert leader.store.get(f"retry-{i}").size == 64 + i
    assert check_durable_integrity(c.servers) == []


def test_chaos_episodes_with_batching_rs_paxos():
    runner = ChaosRunner(protocol="rs-paxos", spec=BATCH_SPEC,
                         bundle_dir=None)
    for seed in (0, 1):
        result, _ = runner.run_episode(seed)
        assert result.ok, (seed, result.violations, result.lin_failures)
        assert result.ops_completed > 0


def test_chaos_episode_with_batching_classic():
    runner = ChaosRunner(config=classic_paxos(5), protocol="classic",
                         spec=BATCH_SPEC, bundle_dir=None)
    result, _ = runner.run_episode(0)
    assert result.ok, (result.violations, result.lin_failures)
