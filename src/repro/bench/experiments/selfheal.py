"""Self-healing membership gate: auto-eviction + auto-replacement.

Not a paper figure — the robustness gate for the accrual failure
detector and the leader's repair controller. Two phases, both against
the paper's headline RS-Paxos setup (N=5, F=1, θ(3,5)):

1. **Sequential permanent-failure ladder**: more than F members die
   for good, one after another (one of them the sitting leader), and
   for each a fresh spare is provisioned 9 s later. With
   ``auto_reconfigure`` + ``auto_heal`` on, the cluster must evict
   each dead slot, rebuild the spare via snapshot transfer, re-admit
   it, and return to the full 5-member θ(3,5) view — without operator
   intervention. Per-cycle *time to full redundancy* (kill -> every
   server up, rebuilt, and converged on one 5-member view) is
   measured; its median must stay under ``TTR_BOUND``. Writes must
   keep committing between cycles, and the final state must pass
   every invariant probe (incl. view convergence).

2. **False-eviction ladder**: a seed ladder of *benign* chaos — gray
   slow-nodes plus partial / asymmetric / flapping partitions; no host
   ever actually goes down — with the same auto-heal knobs on. Any
   eviction here is a detector false positive; the gate requires
   **zero** across every seed, and every episode must stay
   linearizable with all invariants intact.

Any violated bound exits non-zero::

    python -m repro.bench selfheal [--full]
"""

from __future__ import annotations

import statistics
from dataclasses import replace

from ...chaos import EPISODE_SERVER, ChaosRunner, ChaosSpec, ScheduleSpec
from ...check import (
    HistoryRecorder, check_cluster, check_history, committed_value_bytes,
)
from ...core import rs_paxos
from ...kvstore import build_cluster
from ...net import LAN
from .chaos import per_value_byte

#: Median time from a permanent kill to full redundancy (all servers
#: up, rebuilt, converged on the full 5-member view). Budget: ~3 s of
#: accrual suspicion + 2 s evict grace + 9 s provisioning delay +
#: rebuild, probe and re-admission latency.
TTR_BOUND = 15.0
#: Kill times for the >F sequential permanent failures. Spacing must
#: exceed TTR_BOUND so each cycle completes before the next begins.
KILL_TIMES = (3.0, 19.0, 35.0)
#: The spare arrives *after* the worst-case detection window (successor
#: leader election + detector re-seed + suspicion + evict grace), so
#: every cycle — including the leader-kill one — must evict before it
#: can re-admit. A shorter delay lets the spare's rejoin race (and win
#: against) the eviction, healing via plain rebuild instead.
PROVISION_DELAY = 9.0


def _run_workload(cluster, recorder, stop_at: float, write_times: list):
    """Closed-loop put/get clients; successful put completion times
    land in ``write_times``."""
    sim = cluster.sim
    seq = {"n": 0}

    def one_op(client, rng, on_done) -> None:
        key = f"k{int(rng.integers(6))}"
        if float(rng.random()) < 0.6:
            seq["n"] += 1

            def done(ok: bool) -> None:
                if ok:
                    write_times.append(sim.now)
                on_done()

            client.put(key, 64 + seq["n"], on_done=done)
        else:
            client.get(key, mode="fast", on_done=lambda ok, size: on_done())

    for client in cluster.clients:
        client.history = recorder
        rng = sim.rng.stream(f"selfheal.workload.{client.name}")

        def loop(client=client, rng=rng) -> None:
            if sim.now >= stop_at:
                return
            one_op(client, rng, lambda: sim.call_after(0.02, loop))

        sim.call_soon(loop)


def _fully_redundant(cluster) -> bool:
    """Every server up, rebuilt, and converged on one full-size view."""
    views = set()
    for s in cluster.servers:
        if not s.up or s.rebuilding:
            return False
        views.add((s.view_epoch, tuple(sorted(s.member_ids))))
    if len(views) != 1:
        return False
    _, members = next(iter(views))
    return len(members) == len(cluster.servers)


def _permanent_failure_ladder() -> tuple[list[str], list[float]]:
    """Phase 1: >F sequential perma-kills, each auto-replaced."""
    problems: list[str] = []
    config = rs_paxos(5, 1)
    cluster = build_cluster(
        config, num_clients=2, num_groups=2, link=LAN, seed=11,
        client_timeout=0.25,
        auto_reconfigure=True, auto_heal=True,
        checkpoint_interval=1.0,
    )
    sim = cluster.sim
    horizon = KILL_TIMES[-1] + TTR_BOUND + 6.0
    recorder = HistoryRecorder()
    write_times: list[float] = []
    _run_workload(cluster, recorder, stop_at=horizon - 1.0,
                  write_times=write_times)

    # In-sim redundancy probe: records, per cycle, the first instant
    # the cluster is back at full strength after the kill.
    cycle = {"kill_t": None, "restored_at": None}

    def probe() -> None:
        if (cycle["kill_t"] is not None and cycle["restored_at"] is None
                and _fully_redundant(cluster)):
            cycle["restored_at"] = sim.now
        if sim.now < horizon:
            sim.call_after(0.25, probe)

    sim.call_soon(probe)
    cluster.start()

    ttrs: list[float] = []
    killed: list[int] = []
    for i, kill_t in enumerate(KILL_TIMES):
        sim.run(until=kill_t)
        # Kill the sitting leader on the middle cycle, a follower on
        # the others — the controller must survive losing the node
        # that runs it (the successor resumes from the chosen views).
        leader = cluster.leader()
        if i == 1 and leader is not None:
            victim, role = cluster.servers.index(leader), "leader"
        else:
            victim, role = next(
                j for j in range(len(cluster.servers) - 1, -1, -1)
                if cluster.servers[j].up
                and cluster.servers[j] is not leader
                and j not in killed
            ), "follower"
        killed.append(victim)
        cycle["kill_t"], cycle["restored_at"] = kill_t, None
        cluster.wipe_server(victim)
        sim.call_after(PROVISION_DELAY,
                       lambda v=victim: cluster.recover_server(v))
        deadline = (KILL_TIMES[i + 1] if i + 1 < len(KILL_TIMES)
                    else horizon)
        sim.run(until=deadline)
        restored = cycle["restored_at"]
        if restored is None:
            problems.append(
                f"cycle {i}: killed {cluster.servers[victim].name} "
                f"({role}) at t={kill_t:.0f}s and never returned to "
                f"full redundancy by t={deadline:.0f}s")
            print(f"   cycle {i}: {cluster.servers[victim].name} "
                  f"({role}) killed at t={kill_t:.0f}s -> NOT restored")
            continue
        ttr = restored - kill_t
        ttrs.append(ttr)
        in_window = [t for t in write_times if restored <= t <= deadline]
        if not in_window:
            problems.append(
                f"cycle {i}: no writes committed between restoration "
                f"(t={restored:.1f}s) and the next cycle")
        print(f"   cycle {i}: {cluster.servers[victim].name} ({role}) "
              f"killed at t={kill_t:.0f}s -> full redundancy in "
              f"{ttr:.1f}s, {len(in_window)} writes after restore")

    sim.run(until=horizon)
    evictions = sum(len(s.repair.eviction_events) for s in cluster.servers)
    replacements = sum(len(s.repair.replacement_events) for s in cluster.servers)
    if evictions < len(KILL_TIMES):
        problems.append(
            f"only {evictions} evictions for {len(KILL_TIMES)} "
            f"permanent kills (controller missed a dead member)")
    if replacements < len(KILL_TIMES):
        problems.append(
            f"only {replacements} re-admissions for {len(KILL_TIMES)} "
            f"provisioned spares (controller missed a rebuilt spare)")
    for r in check_history(recorder):
        problems.append(f"non-linearizable history for key {r.key!r}")
    for v in check_cluster(cluster.servers, config):
        problems.append(f"invariant violation: {v.kind}: {v.detail}")
    med = statistics.median(ttrs) if ttrs else None
    if med is None or med > TTR_BOUND:
        problems.append(
            f"median time-to-full-redundancy "
            f"{'unavailable' if med is None else f'{med:.1f}s'} exceeds "
            f"{TTR_BOUND:.0f}s")
    print(f"   {evictions} evictions, {replacements} re-admissions; "
          f"median time-to-full-redundancy = "
          f"{med:.1f}s (bound {TTR_BOUND:.0f}s)"
          if med is not None else
          f"   {evictions} evictions, {replacements} re-admissions; "
          f"no redundancy restorations")
    fp = [s.durable_footprint() for s in cluster.servers]
    written = sum(f["checkpoint_bytes_written"] for f in fp)
    print("   rebuild/footprint: final durable state "
          f"{sum(f['wal_bytes'] for f in fp)} B WAL + "
          f"{sum(f['checkpoint_bytes'] for f in fp)} B checkpoints "
          f"({written} B written, "
          f"{per_value_byte(written, committed_value_bytes(recorder), config)})")
    return problems, ttrs


def _benign_spec(fault_window: float) -> ChaosSpec:
    """Gray failures + messy links only: no host ever goes down."""
    return ChaosSpec(
        schedule=ScheduleSpec(
            fault_window=fault_window,
            mean_gap=1.5,
            weights=(0.0, 2.0, 0.0, 0.0),
            storage_weights=(0.0, 0.0, 0.0),
            wipe_weight=0.0,
            overload_weight=0.0,
            slow_node_weight=2.0,
            partition_mix_weights=(3.0, 3.0, 2.0),
        ),
        settle=6.0,
        server=replace(EPISODE_SERVER, auto_reconfigure=True, auto_heal=True),
    )


def _false_eviction_ladder(seeds: int, fault_window: float) -> list[str]:
    """Phase 2: benign chaos must never cost a member its seat."""
    problems: list[str] = []
    runner = ChaosRunner(
        protocol="rs-paxos", spec=_benign_spec(fault_window),
        bundle_dir=None,
    )
    for seed in range(seeds):
        result, _ = runner.run_episode(seed)
        status = "ok" if result.ok and result.evictions == 0 else "FAIL"
        print(f"  seed {seed:3d}: {status}  {result.evictions} evictions, "
              f"{len(result.schedule)} fault events, "
              f"{result.ops_completed}/{result.ops_total} ops")
        if result.evictions:
            problems.append(
                f"seed {seed}: {result.evictions} eviction(s) under "
                f"benign faults (all false by construction)")
        if not result.ok:
            problems.append(
                f"seed {seed}: {len(result.violations)} violation(s), "
                f"{len(result.lin_failures)} non-linearizable key(s)")
    return problems


def main(quick: bool = True) -> int:
    failures: list[str] = []

    print(f"-- phase 1: {len(KILL_TIMES)} sequential permanent "
          f"failures (> F={1}), auto-evict + auto-replace")
    problems, _ = _permanent_failure_ladder()
    failures += problems

    seeds = 10 if quick else 15
    fault_window = 8.0 if quick else 12.0
    print(f"-- phase 2: false-eviction ladder, {seeds} seeds of benign "
          f"chaos (gray nodes + partial/asym/flap cuts, window "
          f"{fault_window:.0f}s)")
    failures += _false_eviction_ladder(seeds, fault_window)

    if failures:
        print(f"FAIL: {len(failures)} self-healing violation(s)")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("selfheal gate: every permanent failure auto-replaced within "
          "bound, zero false evictions under benign chaos, "
          "view convergence + linearizability hold")
    return 0
