"""Dynamic sharding gate: hot-shard split/merge under skewed load.

Not a paper figure — the robustness gate for the versioned range map
and the leader's load-driven rebalancer.  The paper statically
configures its shards (§4.2); this gate checks the dynamic extension
both for *performance* (a hot range split across spare groups recovers
most of the balanced cluster's goodput) and for *safety* (migrations
under chaos never lose or duplicate a key).

Setup: every point runs range-mode sharding on a 4-group pool with a
small per-group admission pipeline (``max_group_pipeline``), so one
group owning the whole keyspace is genuinely capacity-bound and
spreading ranges across groups genuinely helps.  Closed-loop writers
drive 1 KB updates through a key chooser:

1. **uniform/pre-split** — uniform keys on an evenly pre-cut map,
   rebalancer off: the balanced reference goodput;
2. **hotspot/static** — hotspot keys (80% of draws on 20% of keys) on
   a frozen single-range map: the static-map baseline, every write
   lands in one group;
3. **hotspot/auto** — same skew, rebalancer on: the splitter must
   carve the hot range into the spare groups mid-run;
4. **zipfian/auto** — Zipfian(0.99) skew with the rebalancer on
   (reported, not gated — the heaviest key cannot be split away).

Gates:

- **goodput**: hotspot/auto ≥ ``GOODPUT_FLOOR`` (75%) of
  uniform/pre-split, and at least one split actually happened;
- **safety**: chaos-seeded episodes (split/merge/crash-mid-migration
  faults on top of the regular palette) accumulate ≥
  ``MIN_MIGRATIONS`` completed migrations with every linearizability,
  shard-coverage, and invariant probe clean — zero lost or duplicated
  keys.
"""

from __future__ import annotations

import dataclasses

from ...chaos import SHORT_SPEC, ChaosRunner
from ...check import check_cluster, check_shard_coverage
from ...core import rs_paxos
from ...kvstore import build_cluster
from ...net import LAN
from ...workload import (
    ClosedLoopDriver,
    OpMix,
    SizeRange,
    WorkloadSpec,
    hotspot,
    uniform,
    zipfian,
)
from ..report import table

#: Gate: hotspot goodput after auto-split vs the balanced reference.
GOODPUT_FLOOR = 0.75

#: Gate: chaos-seeded migrations that must complete cleanly.
MIN_MIGRATIONS = 10

VALUE_SIZE = 1024
NUM_KEYS = 64
NUM_GROUPS = 4
NUM_CLIENTS = 8

#: Small per-group admission pipeline: the knob that makes a single
#: hot group capacity-bound (8 closed-loop writers vs 2 slots).
GROUP_PIPELINE = 2

REBALANCE_INTERVAL = 0.4
CONFIG = rs_paxos(5, 1)


def _spec(keys) -> WorkloadSpec:
    return WorkloadSpec(
        "shards", 0.0, SizeRange(VALUE_SIZE, VALUE_SIZE),
        num_keys=NUM_KEYS, keys=keys, mix=OpMix(update=1.0),
    )


def _even_boundaries() -> tuple[str, ...]:
    """Cut the lexicographically sorted key population into
    ``NUM_GROUPS`` even ranges."""
    spec = _spec(uniform())
    names = sorted(spec.key_name(i) for i in range(NUM_KEYS))
    step = len(names) // NUM_GROUPS
    return tuple(names[step * g] for g in range(1, NUM_GROUPS))


def run_point(
    label: str,
    keys,
    *,
    pre_split: bool,
    rebalance: bool,
    seed: int = 0,
    warm: float = 3.0,
    duration: float = 3.0,
) -> dict:
    """One closed-loop point: ``warm`` seconds for elections and (when
    enabled) the rebalancer's splits, then a ``duration``-second
    measurement window."""
    cluster = build_cluster(
        CONFIG,
        num_clients=NUM_CLIENTS,
        num_groups=NUM_GROUPS,
        link=LAN,
        seed=seed,
        dynamic_shards=True,
        shard_ranges=_even_boundaries() if pre_split else None,
        max_group_pipeline=GROUP_PIPELINE,
        rebalance_interval=REBALANCE_INTERVAL if rebalance else 0.0,
    )
    cluster.start()
    sim = cluster.sim
    cluster.run(until=0.5)

    spec = _spec(keys)
    drivers = [
        ClosedLoopDriver(sim, c, spec, stream=f"shards.{i}")
        for i, c in enumerate(cluster.clients)
    ]
    for d in drivers:
        d.start()
    cluster.run(until=0.5 + warm)
    ok0 = sum(c.ops_ok for c in cluster.clients)
    cluster.run(until=0.5 + warm + duration)
    ok1 = sum(c.ops_ok for c in cluster.clients)
    for d in drivers:
        d.stop()
    cluster.run(until=sim.now + 1.0)  # drain in-flight ops

    ldr = cluster.leader()
    violations = [
        v.to_jsonable() if hasattr(v, "to_jsonable") else repr(v)
        for v in (
            check_shard_coverage(cluster.servers)
            + check_cluster(cluster.servers, CONFIG)
        )
    ]
    return {
        "label": label,
        "goodput": (ok1 - ok0) / duration,
        "splits": sum(s.splits_started for s in cluster.servers),
        "merges": sum(s.merges_started for s in cluster.servers),
        "migrations": max(
            s.reconfig.migrations_completed for s in cluster.servers),
        "active_groups": (
            len(ldr.shard_map.active_groups()) if ldr else 0
        ),
        "map_version": ldr.shard_map.version if ldr else 0,
        "busy": sum(c.busy_count for c in cluster.clients),
        "wrong_shard": sum(
            s.wrong_shard_replies for s in cluster.servers
        ),
        "violations": violations,
    }


#: The short chaos palette plus split / merge / crash-mid-migration
#: faults, on a cluster with dynamic shards and the rebalancer on.
SAFETY_SPEC = dataclasses.replace(
    SHORT_SPEC,
    schedule=dataclasses.replace(
        SHORT_SPEC.schedule, shard_weights=(1.0, 0.6, 1.0), shard_gap=1.5),
    server=dataclasses.replace(
        SHORT_SPEC.server, dynamic_shards=True, rebalance_interval=0.5),
)


def run_safety(min_migrations: int = MIN_MIGRATIONS, max_seeds: int = 16):
    """Chaos-seeded migration safety: accumulate ``min_migrations``
    completed migrations across seeded episodes; every episode must
    pass linearizability and all invariant probes (including shard
    coverage), which together forbid lost or duplicated keys."""
    runner = ChaosRunner(spec=SAFETY_SPEC, bundle_dir=None)
    episodes = []
    migrations = 0
    for seed in range(max_seeds):
        res, _ = runner.run_episode(seed=seed)
        episodes.append({
            "seed": seed,
            "ok": res.ok,
            "migrations": res.migrations_completed,
            "splits": res.shard_splits,
            "merges": res.shard_merges,
            "copies": res.copies_proposed,
            "fences": res.fence_writes,
            "violations": res.violations,
        })
        migrations += res.migrations_completed
        if migrations >= min_migrations:
            break
    return {
        "episodes": episodes,
        "migrations": migrations,
        "all_ok": all(e["ok"] for e in episodes),
    }


def run(quick: bool = True) -> dict:
    warm = 3.0 if quick else 6.0
    duration = 3.0 if quick else 8.0

    points = [
        run_point("uniform/pre-split", uniform(),
                  pre_split=True, rebalance=False,
                  warm=warm, duration=duration),
        run_point("hotspot/static", hotspot(0.2, 0.9),
                  pre_split=False, rebalance=False,
                  warm=warm, duration=duration),
        run_point("hotspot/auto", hotspot(0.2, 0.9),
                  pre_split=False, rebalance=True,
                  warm=warm, duration=duration),
        run_point("zipfian/auto", zipfian(theta=0.99),
                  pre_split=False, rebalance=True,
                  warm=warm, duration=duration),
    ]
    safety = run_safety(
        min_migrations=MIN_MIGRATIONS, max_seeds=16 if quick else 32,
    )
    return {"points": points, "safety": safety}


def render(results: dict) -> str:
    rows = [
        [
            p["label"],
            f"{p['goodput']:.0f}",
            f"{p['splits']}/{p['merges']}",
            f"{p['migrations']}",
            f"{p['active_groups']}",
            f"v{p['map_version']}",
            f"{p['busy']}",
            "clean" if not p["violations"] else "VIOLATION",
        ]
        for p in results["points"]
    ]
    blocks = [table(
        "closed-loop goodput by key skew and shard layout "
        f"({NUM_CLIENTS} writers, {NUM_GROUPS}-group pool, "
        f"group pipeline {GROUP_PIPELINE})",
        ["point", "good/s", "split/merge", "migr", "groups",
         "mapv", "busy", "probes"],
        rows,
    )]
    s = results["safety"]
    blocks.append(table(
        "chaos-seeded migration safety",
        ["seed", "ok", "migr", "splits", "merges", "copies", "fences"],
        [
            [str(e["seed"]), "yes" if e["ok"] else "NO",
             str(e["migrations"]), str(e["splits"]), str(e["merges"]),
             str(e["copies"]), str(e["fences"])]
            for e in s["episodes"]
        ],
    ))
    return "\n\n".join(blocks)


def main(quick: bool = True) -> int:
    results = run(quick)
    print(render(results))
    by = {p["label"]: p for p in results["points"]}
    ref = by["uniform/pre-split"]["goodput"]
    auto = by["hotspot/auto"]
    floor = GOODPUT_FLOOR * ref
    goodput_ok = auto["goodput"] >= floor and auto["splits"] >= 1
    probes_ok = not any(p["violations"] for p in results["points"])
    s = results["safety"]
    safety_ok = s["all_ok"] and s["migrations"] >= MIN_MIGRATIONS
    print(
        f"\ngate: hotspot/auto goodput {auto['goodput']:.0f}/s vs floor "
        f"{floor:.0f}/s ({GOODPUT_FLOOR * 100:.0f}% of uniform "
        f"{ref:.0f}/s), splits {auto['splits']} -> "
        f"{'OK' if goodput_ok else 'FAIL'}; probes -> "
        f"{'OK' if probes_ok else 'FAIL'}; safety: "
        f"{s['migrations']} migrations across {len(s['episodes'])} "
        f"episodes, all clean -> {'OK' if safety_ok else 'FAIL'}"
    )
    return 0 if (goodput_ok and probes_ok and safety_ok) else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
