"""Read-path availability gate: degraded reads, read-index, selection.

Not a paper figure — the availability gate for the degraded-mode read
path. Three phases:

1. **Degraded-read latency**: against the paper's headline RS-Paxos
   setup (N=5, F=1, θ(3,5)), rot *every* share on the serving follower
   plus one more follower (two of five shares per instance gone) and
   compare follower read-index reads before and after: the degraded
   reads must all succeed by inline-fetching X clean shares and
   RS-decoding, with p99 ≤ 3× the clean-read p99. The whole history —
   leader lease reads, follower read-index reads, degraded reads —
   must stay linearizable.

2. **Availability under chaos**: seeded episodes whose fault mix is
   bit-rot + gray slow-nodes (plus loss bursts and slow disks) with a
   follower-read-heavy op mix. Every episode must be linearizable and
   aggregate read availability must stay ≥ 99%.

3. **Repair-optimal selection**: on a skewed-RTT topology (N=7, four
   peers NIC-slowed ×20..×200), drive repeated scrub repairs with
   RTT-aware source selection vs the seeded-random baseline
   (``rtt_select=False``). The RTT-aware median repair-fetch latency
   must beat random's.

Any violated bound exits non-zero::

    python -m repro.bench readpath [--full]
"""

from __future__ import annotations

from ...chaos import ChaosRunner, ChaosSpec, ScheduleSpec
from ...check import HistoryRecorder, check_history
from ...core import rs_paxos
from ...kvstore import build_cluster
from ...net import LAN

#: Degraded reads may pay extra fetch round-trips, but not more than
#: this multiple of the clean follower-read p99.
DEGRADED_P99_FACTOR = 3.0
#: Aggregate read availability floor across the chaos episodes.
AVAILABILITY_FLOOR = 0.99

#: Phase 3 topology: NIC slowdown factors per peer as seen by the
#: repairing follower P2 (unlisted peers stay at LAN speed).
SKEWED_NICS = {"P4": 20.0, "P5": 50.0, "P6": 100.0, "P7": 200.0}


def _p99(samples: list[float]) -> float:
    if not samples:
        return float("nan")
    s = sorted(samples)
    idx = min(len(s) - 1, max(0, int(round(0.99 * len(s))) - 1))
    return s[idx]


def _median(samples) -> float:
    s = sorted(samples)
    if not s:
        return float("nan")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def _write_keys(cluster, client, keys: list[str], base: int) -> list[str]:
    """Sequentially write each key with a unique size; returns keys
    whose write failed (should be none on a healthy cluster)."""
    sim = cluster.sim
    failed: list[str] = []
    state = {"i": 0}

    def next_write() -> None:
        if state["i"] >= len(keys):
            return
        key = keys[state["i"]]
        size = base + state["i"]
        state["i"] += 1

        def done(ok: bool, key=key) -> None:
            if not ok:
                failed.append(key)
            next_write()

        client.put(key, size, on_done=done)

    next_write()
    sim.run(until=sim.now + 30.0)
    if state["i"] < len(keys):
        failed.extend(keys[state["i"]:])
    return failed


def _read_keys(
    cluster, client, keys: list[str], mode: str, server: str | None,
    latencies: list[float],
) -> list[str]:
    """Sequentially read each key once; latencies of successful reads
    land in ``latencies``; returns keys whose read failed."""
    sim = cluster.sim
    failed: list[str] = []
    state = {"i": 0}

    def next_read() -> None:
        if state["i"] >= len(keys):
            return
        key = keys[state["i"]]
        state["i"] += 1
        t0 = sim.now

        def done(ok: bool, _size: int, key=key, t0=t0) -> None:
            if ok:
                latencies.append(sim.now - t0)
            else:
                failed.append(key)
            next_read()

        client.get(key, mode=mode, server=server, on_done=done)

    next_read()
    sim.run(until=sim.now + 30.0)
    if state["i"] < len(keys):
        failed.extend(keys[state["i"]:])
    return failed


def _degraded_latency_phase(quick: bool) -> list[str]:
    """Phase 1: follower reads before vs after rotting 2/5 shares."""
    problems: list[str] = []
    per_set = 20 if quick else 40
    cluster = build_cluster(
        rs_paxos(5, 1), num_clients=1, num_groups=4, link=LAN, seed=11,
        scrub_interval=0.0,  # no background repair: rot must persist
    )
    sim = cluster.sim
    client = cluster.clients[0]
    recorder = HistoryRecorder()
    client.history = recorder
    cluster.start()
    sim.run(until=1.0)

    clean_keys = [f"rc{i}" for i in range(per_set)]
    rot_keys = [f"rd{i}" for i in range(per_set)]
    if _write_keys(cluster, client, clean_keys + rot_keys, base=64):
        problems.append("phase1: writes failed on a healthy cluster")

    # Leader lease fast reads over the working set (the checker must
    # see all three read flavours in one history).
    lease_lat: list[float] = []
    for key in clean_keys:
        if _read_keys(cluster, client, [key], "fast", None, lease_lat):
            problems.append(f"phase1: lease fast read of {key!r} failed")

    clean_lat: list[float] = []
    for key in _read_keys(cluster, client, clean_keys, "follower", "P2",
                          clean_lat):
        problems.append(f"phase1: clean follower read of {key!r} failed")

    # Two of five shares gone: rot everything on the serving follower
    # P2 *and* on P3, leaving exactly X=3 clean copies (P1, P4, P5).
    rot_rng = sim.rng.stream("readpath.rot")
    for srv in (cluster.servers[1], cluster.servers[2]):
        while srv.scrubber.rot(rot_rng):
            pass

    degraded_before = cluster.servers[1].reads.degraded_reads
    degraded_lat: list[float] = []
    for key in _read_keys(cluster, client, rot_keys, "follower", "P2",
                          degraded_lat):
        problems.append(f"phase1: degraded read of {key!r} failed")
    degraded_served = cluster.servers[1].reads.degraded_reads - degraded_before
    if degraded_served < per_set:
        problems.append(
            f"phase1: only {degraded_served}/{per_set} reads took the "
            f"degraded decode path (rotten share must not be served)")

    for r in check_history(recorder):
        problems.append(
            f"phase1: non-linearizable history for key {r.key!r}")

    clean_p99, degraded_p99 = _p99(clean_lat), _p99(degraded_lat)
    print(f"   clean follower reads: {len(clean_lat)} ok, "
          f"p99 {clean_p99 * 1000:.3f} ms; degraded (2/5 shares rotten): "
          f"{len(degraded_lat)} ok, p99 {degraded_p99 * 1000:.3f} ms "
          f"({degraded_served} degraded decodes)")
    if not (degraded_p99 <= DEGRADED_P99_FACTOR * clean_p99):
        problems.append(
            f"phase1: degraded p99 {degraded_p99 * 1000:.3f} ms exceeds "
            f"{DEGRADED_P99_FACTOR}x clean p99 {clean_p99 * 1000:.3f} ms")
    return problems


def _chaos_availability_phase(quick: bool) -> list[str]:
    """Phase 2: bit-rot + gray-failure episodes, availability floor."""
    problems: list[str] = []
    seeds = 3 if quick else 8
    spec = ChaosSpec(
        schedule=ScheduleSpec(
            fault_window=6.0 if quick else 12.0,
            mean_gap=0.7,
            weights=(0.0, 0.0, 1.0, 1.0),       # loss bursts, slow disks
            storage_weights=(0.0, 4.0, 1.5),    # bit-rot + scrubs, no tears
            rot_gap=1.0,
            wipe_weight=0.0,
            overload_weight=0.0,
            slow_node_weight=4.0,               # gray failure
            partition_mix_weights=(0.0, 0.0, 0.0),
        ),
        settle=4.0,
        p_write=0.35,
        p_fast_read=0.20,
        p_consistent_read=0.10,
        p_follower_read=0.25,
    )
    runner = ChaosRunner(protocol="rs-paxos", spec=spec)
    results, failures = runner.run(seeds, verbose=True)
    for r in failures:
        problems.append(
            f"phase2: seed {r.seed} violated linearizability or "
            f"invariants ({r.bundle_path})")
    reads = sum(r.reads_attempted for r in results)
    reads_ok = sum(r.reads_ok for r in results)
    avail = (reads_ok / reads) if reads else 1.0
    follower = sum(r.follower_reads for r in results)
    degraded = sum(r.degraded_reads for r in results)
    rotted = sum(r.rot_injected for r in results)
    print(f"   {reads_ok}/{reads} reads ok ({avail:.4%} availability), "
          f"{follower} follower reads, {degraded} degraded decodes, "
          f"{rotted} shares rotted")
    if avail < AVAILABILITY_FLOOR:
        problems.append(
            f"phase2: read availability {avail:.4%} below "
            f"{AVAILABILITY_FLOOR:.0%}")
    return problems


def _run_repair_ladder(rtt_select: bool, rounds: int) -> list[float]:
    """Drive ``rounds`` rot->scrub repairs on follower P2 against the
    skewed-RTT topology; returns the measured repair-fetch latencies."""
    warmup = 5
    cluster = build_cluster(
        rs_paxos(7, 2), num_clients=1, num_groups=2, link=LAN, seed=23,
        scrub_interval=0.0,
    )
    for srv in cluster.servers:
        srv.fetch.hedge, srv.fetch.rtt_select = False, rtt_select
    sim = cluster.sim
    cluster.start()
    sim.run(until=1.0)
    keys = [f"s{i}" for i in range(warmup + rounds + 10)]
    # Large values: a share's wire serialization (~size/X bytes) is what
    # the NIC slowdown scales, so big shares make the RTT skew real.
    _write_keys(cluster, cluster.clients[0], keys, base=64_000)
    for host, factor in SKEWED_NICS.items():
        cluster.net.set_nic_slowdown(host, factor)
    sim.run(until=sim.now + 1.0)

    srv = cluster.servers[1]  # P2: fast peers P1/P3, slow P4..P7
    rot_rng = sim.rng.stream("readpath.select.rot")
    # Per-repair gather latency, not per-fetch: a straggler that times
    # out never records a fetch sample, but the repair still waited out
    # its RTO before widening — the whole-gather histogram charges it.
    hist = cluster.metrics.histogram("scrub.repair_latency")

    def repair_round() -> None:
        if not srv.scrubber.rot(rot_rng):
            return
        srv.scrubber.scrub()
        sim.run(until=sim.now + 0.5)

    for _ in range(warmup):
        repair_round()
    n0 = len(hist)
    for _ in range(rounds):
        repair_round()
    return [float(v) for v in hist.samples[n0:]]


def _selection_phase(quick: bool) -> list[str]:
    """Phase 3: RTT-aware vs random repair-source selection."""
    problems: list[str] = []
    rounds = 15 if quick else 30
    rtt = _run_repair_ladder(rtt_select=True, rounds=rounds)
    rnd = _run_repair_ladder(rtt_select=False, rounds=rounds)
    if not rtt or not rnd:
        return ["phase3: repair ladder produced no repair samples"]
    med_rtt, med_rnd = _median(rtt), _median(rnd)
    print(f"   repair share-fetch latency over {rounds} rot->repair "
          f"rounds: rtt-aware median {med_rtt * 1000:.3f} ms "
          f"({len(rtt)} repairs) vs random {med_rnd * 1000:.3f} ms "
          f"({len(rnd)} repairs)")
    if not (med_rtt < med_rnd):
        problems.append(
            f"phase3: rtt-aware median {med_rtt * 1000:.3f} ms does not "
            f"beat random {med_rnd * 1000:.3f} ms")
    return problems


def main(quick: bool = True) -> int:
    failures: list[str] = []

    print("-- phase 1: degraded follower reads, 2/5 shares rotten "
          "(rs-paxos N=5 F=1)")
    failures += _degraded_latency_phase(quick)

    print("-- phase 2: bit-rot + gray-failure chaos, availability floor "
          f"{AVAILABILITY_FLOOR:.0%}")
    failures += _chaos_availability_phase(quick)

    print("-- phase 3: repair-source selection on a skewed-RTT topology "
          "(rs-paxos N=7 F=2)")
    failures += _selection_phase(quick)

    if failures:
        print(f"FAIL: {len(failures)} read-path violation(s)")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("readpath gate: degraded reads within bounds, availability "
          "held, histories linearizable, rtt-aware selection wins")
    return 0
