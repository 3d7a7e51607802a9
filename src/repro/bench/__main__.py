"""Command-line entry: regenerate paper tables/figures.

Usage::

    python -m repro.bench list
    python -m repro.bench table1
    python -m repro.bench fig5 [--full]
    python -m repro.bench all  [--full]
    python -m repro.bench chaos [--seeds N | --seed K] [--short] [--wipe-heavy]
    python -m repro.bench overload [--full]
    python -m repro.bench batching [--full]
    python -m repro.bench ycsb [--full]
    python -m repro.bench partitions [--full]
    python -m repro.bench readpath [--full]
    python -m repro.bench selfheal [--full]
    python -m repro.bench shards [--full]

``chaos`` is the correctness gate rather than a paper figure: it runs
seeded fault-injection episodes and fails (exit 1, repro bundle on
disk) if any history is non-linearizable or any protocol invariant
breaks; ``--seed K`` runs exactly episode ``K`` of that sweep (its
line, its bundle, the same exit code) instead of the first ``N``.
``overload`` is the robustness gate: it drives the cluster
past saturation and fails (exit 1) if admission control cannot hold
goodput at 2x offered load (>= 70 % of its peak; the uncontrolled
curve is printed alongside). ``batching`` is the throughput gate: at
64 B values ``batch_max_commands=32`` must yield >= 2x the goodput of
1, with RS encode calls per op dropping proportionally. ``ycsb`` is
the isolation gate: a noisy Zipfian tenant floods a shared cluster and
the well-behaved uniform tenant's p99/goodput must hold (exit 1
otherwise). ``partitions`` is the partition-recovery gate:
partial/asymmetric/flapping cuts must not depose a healthy leader
(pre-vote) and recovery after the final heal must be prompt (exit 1
otherwise). ``readpath`` is the availability
gate: degraded reads must succeed (bounded latency) while shares are
rotten, read availability must hold through bit-rot + gray-failure
chaos, and RTT-aware repair-source selection must beat random (exit 1
otherwise). ``selfheal`` is the membership gate: sequential permanent
failures (> F) must be auto-evicted and auto-replaced within a bounded
time-to-full-redundancy, and benign chaos (gray nodes, partial cuts)
must cause zero false evictions (exit 1 otherwise). ``shards`` is the
dynamic-sharding gate: a hot key range auto-split across spare groups
must recover most of the balanced cluster's goodput, and chaos-seeded
migrations must complete without losing or duplicating a key (exit 1
otherwise).

Every gate builds its clusters with ``build_cluster`` / ``make_cluster``;
what it varies are fields of ``repro.kvstore.ServerConfig`` (README
"Tuning knobs"), passed as keyword arguments or, for chaos-seeded
episodes, as ``ChaosSpec.server``.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    batching, chaos, cpu_cost, fig5, fig6, fig7, fig8, overload,
    partitions, readpath, selfheal, shards, table1, ycsb,
)

EXPERIMENTS = {
    "table1": ("Table 1: quorum configurations at N=7", table1),
    "fig5": ("Figure 5: write latency vs size", fig5),
    "fig6": ("Figure 6: write throughput vs size", fig6),
    "fig7": ("Figure 7: COSBench-style macro workloads", fig7),
    "fig8": ("Figure 8: failover timelines", fig8),
    "cpu": ("§6.2.3: CPU cost of coding", cpu_cost),
    "chaos": ("Chaos sweep: linearizability + invariants under faults", chaos),
    "overload": ("Overload: goodput vs offered load, admission on/off",
                 overload),
    "batching": ("Batching: small-write goodput vs batch size",
                 batching),
    "ycsb": ("YCSB: two-tenant fair-queueing isolation ladder", ycsb),
    "partitions": ("Partitions: pre-vote stability + recovery (MTTR) gate",
                   partitions),
    "readpath": ("Read path: degraded reads + read-index availability gate",
                 readpath),
    "selfheal": ("Self-heal: accrual eviction + replica-replacement gate",
                 selfheal),
    "shards": ("Shards: hot-shard auto-split goodput + migration safety gate",
               shards),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=list(EXPERIMENTS) + ["all", "list"],
        help="which experiment to run",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_experiments",
        help="enumerate all registered experiments and exit",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="full sweeps/durations instead of the quick defaults",
    )
    parser.add_argument(
        "--seeds", type=int, default=25,
        help="chaos only: number of seeded episodes per protocol",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="chaos only: run exactly this one episode instead of --seeds",
    )
    parser.add_argument(
        "--short", action="store_true",
        help="chaos only: shorter episodes (quick smoke)",
    )
    parser.add_argument(
        "--wipe-heavy", action="store_true",
        help="chaos only: bias the fault mix toward disk wipes + rejoins "
             "to exercise checkpoint/snapshot rebuild",
    )
    args = parser.parse_args(argv)

    if args.list_experiments or args.experiment == "list":
        for name, (desc, _) in EXPERIMENTS.items():
            print(f"  {name:<8} {desc}")
        return 0
    if args.experiment is None:
        parser.error("an experiment name (or --list) is required")

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    status = 0
    for name in names:
        desc, module = EXPERIMENTS[name]
        print(f"\n###### {desc} ######")
        if name == "table1":
            module.main()
        elif name == "chaos":
            status |= module.main(seeds=args.seeds, short=args.short,
                                  wipe_heavy=args.wipe_heavy, seed=args.seed)
        elif name in ("overload", "batching", "ycsb", "partitions",
                      "readpath", "selfheal", "shards"):
            status |= module.main(quick=not args.full)
        else:
            module.main(quick=not args.full)
    return status


if __name__ == "__main__":
    sys.exit(main())
