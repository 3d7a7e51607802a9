"""Chaos sweep: randomized faults + linearizability + invariants.

Not a paper figure — a correctness gate. Runs N seeded chaos episodes
(crashes, partitions — symmetric, partial, asymmetric, flapping —
loss/dup bursts, slow disks, torn WAL writes, bit-rot on stored coded
shares, client overload bursts, gray slow nodes) against both the
paper's headline
RS-Paxos setup (N=5, F=1, θ(3,5)) and classic Paxos at N=5, checking
every episode's client history for per-key linearizability and the
final replicated state for the paper's safety invariants (unique
choice, decodability, Q1 + Q2 >= N + k, checksum-clean durable state).
Per-protocol repair-traffic totals (shares rotted/repaired, bytes
fetched for repair, WAL records lost to torn tails) are printed so
regressions in the scrub path are visible even when every episode
stays green.

Any failing seed writes a repro bundle under ``chaos-repros/`` and the
run exits non-zero, which is what makes this usable as a CI gate::

    python -m repro.bench chaos

``--wipe-heavy`` biases the fault mix toward disk wipes + rejoins so
the checkpoint / snapshot-rebuild path dominates the episode — the CI
gate for the replica-rebuild machinery. ``--seed K`` runs exactly
episode ``K`` (both protocols, same spec flags, exit code and bundle).
"""

from __future__ import annotations

from dataclasses import replace

from ...chaos import SHORT_SPEC, ChaosRunner, ChaosSpec


def per_value_byte(written: int, committed: int, config) -> str:
    """Checkpoint bytes written per committed value byte, beside the
    N/X bytes per value byte the paper's storage claim promises."""
    ratio = f"{written / committed:.2f}" if committed else "n/a"
    return (f"{ratio} B per committed value byte, "
            f"N/X = {config.n / config.x:.2f}")


def _wipe_heavy_spec(short: bool) -> ChaosSpec:
    """A schedule dominated by wipe/rejoin pairs (plus a little of
    everything else so rebuilds race ordinary faults)."""
    base = SHORT_SPEC if short else ChaosSpec()
    return replace(
        base,
        schedule=replace(
            base.schedule,
            weights=(1.0, 1.0, 1.0, 1.0),
            storage_weights=(0.5, 0.5, 0.5),
            wipe_weight=6.0,
        ),
    )


def main(
    seeds: int = 25,
    short: bool = False,
    wipe_heavy: bool = False,
    quick: bool | None = None,
    seed: int | None = None,
) -> int:
    if wipe_heavy:
        spec = _wipe_heavy_spec(short)
    else:
        spec = SHORT_SPEC if short else None
    total_failures = 0
    for protocol in ("rs-paxos", "classic"):
        runner = ChaosRunner(protocol=protocol, spec=spec)
        mode = "short" if short else "full"
        if wipe_heavy:
            mode += ", wipe-heavy"
        if seed is None:
            print(f"-- {protocol}: {seeds} seeded episodes ({mode} spec)")
            results, failures = runner.run(seeds, verbose=True)
        else:
            print(f"-- {protocol}: episode {seed} ({mode} spec)")
            results, failures = runner.run(1, start_seed=seed, verbose=True)
        ops = sum(r.ops_total for r in results)
        print(f"   {len(results) - len(failures)}/{len(results)} clean, "
              f"{ops} client ops checked")
        rotted = sum(r.rot_injected for r in results)
        repaired = sum(r.shares_repaired for r in results)
        repair_bytes = sum(r.repair_bytes for r in results)
        discarded = sum(r.wal_discarded for r in results)
        print(f"   storage faults: {rotted} shares rotted, "
              f"{repaired} repaired ({repair_bytes} B repair traffic), "
              f"{discarded} WAL records lost to torn tails")
        transfers = sum(r.snapshot_transfers for r in results)
        rebuild_bytes = sum(r.rebuild_bytes for r in results)
        wal_bytes = sum(r.wal_bytes for r in results)
        ckpt_bytes = sum(r.checkpoint_bytes for r in results)
        ckpt_written = sum(r.checkpoint_bytes_written for r in results)
        compacted = sum(r.records_compacted for r in results)
        committed = sum(r.value_bytes_committed for r in results)
        print(f"   rebuild/footprint: {transfers} snapshot transfers "
              f"({rebuild_bytes} B rebuild traffic); final durable state "
              f"{wal_bytes} B WAL + {ckpt_bytes} B checkpoints "
              f"({ckpt_written} B written, "
              f"{per_value_byte(ckpt_written, committed, runner.config)}), "
              f"{compacted} records compacted")
        shed = sum(r.requests_shed for r in results)
        hedges = sum(r.hedges_issued for r in results)
        hedge_wins = sum(r.hedge_wins for r in results)
        adaptations = sum(r.timeout_adaptations for r in results)
        print(f"   overload/gray: {shed} requests shed, "
              f"{hedges} hedged fetches ({hedge_wins} won), "
              f"{adaptations} retransmit-timeout adaptations")
        elections = sum(r.elections_started for r in results)
        changes = sum(r.leader_changes for r in results)
        downs = sum(r.step_downs for r in results)
        print(f"   election churn: {elections} elections started, "
              f"{changes} leader changes, {downs} step-downs "
              f"(incl. 1 bootstrap election per episode)")
        evictions = sum(r.evictions for r in results)
        false_ev = sum(r.false_evictions for r in results)
        replacements = sum(r.replacements for r in results)
        ttrs = sorted(t for r in results for t in r.time_to_restore)
        ttr_str = (
            f"{ttrs[len(ttrs) // 2]:.1f}s median time-to-restore"
            if ttrs else "n/a"
        )
        print(f"   membership: {evictions} evictions "
              f"({false_ev} false), {replacements} replacements, "
              f"{ttr_str}")
        reads = sum(r.reads_attempted for r in results)
        reads_ok = sum(r.reads_ok for r in results)
        follower = sum(r.follower_reads for r in results)
        ri_rounds = sum(r.read_index_rounds for r in results)
        degraded = sum(r.degraded_reads for r in results)
        avail = (reads_ok / reads) if reads else 1.0
        causes: dict[str, int] = {}
        for r in results:
            for cause, n in r.read_retry_causes.items():
                causes[cause] = causes.get(cause, 0) + n
        cause_str = ", ".join(
            f"{k}={v}" for k, v in sorted(causes.items())
        ) or "none"
        print(f"   read path: {reads_ok}/{reads} reads ok "
              f"({avail:.4%} availability), {follower} follower reads "
              f"({ri_rounds} read-index rounds), {degraded} degraded "
              f"decodes; retry causes: {cause_str}")
        if results:
            last = results[-1]
            for host, table in sorted(last.rtt_estimates.items()):
                row = ", ".join(
                    f"{dst}={ewma * 1e3:.3f}ms"
                    for dst, ewma in table.items()
                )
                print(f"   rpc.rtt.{host}: {row or 'no samples'}")
        total_failures += len(failures)
    if total_failures:
        print(f"FAIL: {total_failures} episode(s) violated "
              f"linearizability or protocol invariants")
    else:
        print("all episodes linearizable, all invariants hold")
    return 1 if total_failures else 0
