"""Seeded chaos episodes against a live KV cluster.

One *episode* = build a cluster from a seed, run a randomized
client workload while a randomized fault schedule (crashes, partitions
— symmetric, partial, asymmetric and flapping — loss/dup bursts, slow
disks, client overload bursts, gray slow-nodes) plays out, heal
everything, then check

1. the client-observed history for per-key linearizability
   (:mod:`repro.check.linearize`), and
2. the replicated state for protocol invariants
   (:mod:`repro.check.invariants`).

Everything — schedule, workload, network coin flips, clock drift —
derives from the one seed through the simulator's named RNG substreams,
so a failing seed replays exactly. On failure the runner emits a
**repro bundle**: a JSON file with the seed, the generated schedule,
the violations, the full operation history and the tail of the event
trace from a traced re-run of the same seed.

The register trick that makes histories checkable: each write to a key
uses a fresh, never-repeated payload size, and ``GetOk`` carries the
size back — so every read names exactly the write it observed.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

from ..check import (
    HistoryRecorder, check_cluster, check_history, check_single_lease,
    committed_value_bytes, read_availability,
)
from ..core import ConsistencyViolation, classic_paxos, rs_paxos
from ..kvstore import ServerConfig, build_cluster
from ..net import LAN
from .schedule import ChaosEvent, ScheduleSpec, arm_schedule, generate_schedule


#: What a chaos episode changes of the server defaults: a scrub cadence
#: small relative to the settle window, so rotten shares injected late
#: in the fault window still get several repair attempts before the
#: integrity probe; and a checkpoint + WAL-compaction cadence small
#: relative to the fault window, so wiped servers rebuild from a real
#: checkpoint (not an empty one) and the bounded-WAL probe exercises
#: several compactions per episode.
EPISODE_SERVER = ServerConfig(scrub_interval=0.75, checkpoint_interval=1.0)


@dataclass(frozen=True, slots=True)
class ChaosSpec:
    """Everything one episode needs besides the seed."""

    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)
    settle: float = 6.0          # heal-to-check gap (elections, catch-up)
    num_clients: int = 3
    num_keys: int = 8
    num_groups: int = 4
    think_time: float = 0.02
    client_timeout: float = 0.25
    client_max_attempts: int = 6
    # Op mix (cumulative): write / fast read / consistent read /
    # follower read-index read / delete (the remainder). Follower reads
    # rotate across all replicas, so every episode exercises the
    # read-index handshake and the degraded decode path behind it.
    p_write: float = 0.40
    p_fast_read: float = 0.25
    p_consistent_read: float = 0.15
    p_follower_read: float = 0.10
    # Multi-tenant QoS: when non-empty, clients are tagged round-robin
    # from this tuple (the leader's DRR weights are
    # ``server.tenant_weights``). The default () keeps every op
    # untagged — byte-for-byte the single-queue pre-QoS episodes.
    tenants: tuple[str, ...] = ()
    # Bootstrap range boundaries under ``server.dynamic_shards`` (empty
    # = one range owning everything).
    shard_ranges: tuple[str, ...] = ()
    # Server policy. Every optional subsystem (batching, self-healing
    # membership, dynamic sharding) is off by default — byte-for-byte
    # the plain episodes — except the two cadences in EPISODE_SERVER.
    server: ServerConfig = EPISODE_SERVER

    @property
    def horizon(self) -> float:
        return self.schedule.end + self.settle

    def to_jsonable(self) -> dict:
        """Every field, nested specs included — complete by
        construction, so a bundle records exactly the episode it ran."""
        return json.loads(json.dumps(asdict(self)))  # tuples -> lists


#: Fault kinds that take a host down / bring it back. Used to replay
#: the fired-fault timeline when attributing evictions: an eviction of
#: a host with no outstanding down event is a detector false positive.
_DOWN_KINDS = ("crash", "wipe", "torn-write", "perma-crash")
_UP_KINDS = ("recover", "rejoin", "provision-spare")


def _count_false_evictions(servers, fired) -> int:
    """Count evictions of hosts that were *up* at eviction time.

    Replays the fault schedule's fired ``(t, kind, arg)`` records up to
    each eviction's timestamp to decide whether the evicted node's host
    was down when the leader evicted it. Gray failures (slow-node),
    partitions and flaps never take a host down, so any eviction they
    provoke counts as false — exactly what the selfheal gate forbids.
    """
    false = 0
    for srv in servers:
        for t, nid in srv.repair.eviction_events:
            host = servers[nid].name
            down = False
            for ft, kind, arg in fired:
                if ft > t:
                    break
                if kind in _DOWN_KINDS:
                    h = arg[0] if isinstance(arg, tuple) else arg
                    if h == host:
                        down = True
                elif kind in _UP_KINDS and arg == host:
                    down = False
            if not down:
                false += 1
    return false


#: A shorter episode for CI smoke runs (``--short``).
SHORT_SPEC = ChaosSpec(
    schedule=ScheduleSpec(fault_window=6.0, mean_gap=1.0),
    settle=4.0,
)


@dataclass(slots=True)
class EpisodeResult:
    seed: int
    ok: bool
    ops_total: int
    ops_completed: int
    violations: list[dict]       # invariant breaches (+ live exceptions)
    lin_failures: list[dict]     # per-key non-linearizable histories
    schedule: list[ChaosEvent]
    # Durable-integrity accounting (Rashmi et al.: repair traffic is
    # the dominant operational cost of EC storage — make it visible).
    rot_injected: int = 0
    shares_repaired: int = 0
    repair_bytes: int = 0
    wal_discarded: int = 0       # records lost to torn-tail truncation
    # Rebuild + durable-footprint accounting (checkpointing PR): how
    # much the episode's wipes cost to repair, and what checkpoints +
    # compaction left on disk at the end.
    snapshot_transfers: int = 0
    rebuild_bytes: int = 0       # snapshot pages + rebuild catch-up traffic
    wal_bytes: int = 0           # final durable WAL bytes, all servers
    checkpoint_bytes: int = 0    # final checkpoint bytes, all servers
    checkpoint_bytes_written: int = 0  # cumulative, ÷ stored = write amp.
    value_bytes_committed: int = 0  # acknowledged puts' value bytes
    records_compacted: int = 0   # WAL records dropped by truncation
    # Overload / gray-failure accounting (admission control + hedging
    # PR): how often leaders shed load, how often hedged share fetches
    # fired and paid off, and how often the adaptive RTT estimators
    # materially re-tuned a retransmit timeout.
    requests_shed: int = 0
    hedges_issued: int = 0
    hedge_wins: int = 0
    timeout_adaptations: int = 0
    # Multi-tenant QoS accounting (workload/QoS PR): which tenant the
    # leader shed, and how much Busy backoff each tenant's clients ate.
    shed_by_tenant: dict = field(default_factory=dict)
    busy_by_tenant: dict = field(default_factory=dict)
    # Election-churn accounting (partition-tolerance PR): real
    # ballot-bump elections started, leadership acquisitions, and
    # demotions across all servers — the liveness cost of the episode's
    # fault mix, visible in every gate.
    elections_started: int = 0
    leader_changes: int = 0
    step_downs: int = 0
    # Read-availability accounting (degraded-reads PR): did reads keep
    # observing the register through rot, gray failure and rebuild —
    # and by which path (leader lease, follower read-index, degraded
    # decode)? ``read_retry_causes`` aggregates the clients' per-cause
    # counters; ``rtt_estimates`` snapshots each server endpoint's
    # Jacobson per-peer RTT table so share-selection decisions are
    # observable rather than inferred.
    reads_attempted: int = 0
    reads_ok: int = 0
    follower_reads: int = 0
    read_index_rounds: int = 0
    degraded_reads: int = 0
    read_retry_causes: dict = field(default_factory=dict)
    rtt_estimates: dict = field(default_factory=dict)
    # Self-healing membership accounting (accrual detector + repair
    # controller PR): how many members leaders evicted, how many of
    # those evictions hit a host that was actually *up* (detector false
    # positives — the selfheal gate requires zero), how many evicted
    # slots were re-filled by a rebuilt spare, and how long each
    # eviction-to-re-admission cycle took.
    evictions: int = 0
    false_evictions: int = 0
    replacements: int = 0
    time_to_restore: list = field(default_factory=list)
    # Dynamic-sharding accounting (hot-shard split/merge PR): map
    # mutations the episode's leaders started and completed, the copy /
    # dual-write-fence traffic the cutovers cost, how often stale
    # routing was caught (WrongShard), and the final map version.
    shard_splits: int = 0
    shard_merges: int = 0
    migrations_completed: int = 0
    copies_proposed: int = 0
    fence_writes: int = 0
    wrong_shard_replies: int = 0
    map_version: int = 0
    bundle_path: str | None = None

    @property
    def read_availability(self) -> float:
        """Fraction of reads that observed the register (1.0 if none)."""
        if not self.reads_attempted:
            return 1.0
        return self.reads_ok / self.reads_attempted

    def to_jsonable(self) -> dict:
        return {
            "seed": self.seed, "ok": self.ok,
            "ops_total": self.ops_total,
            "ops_completed": self.ops_completed,
            "violations": self.violations,
            "lin_failures": self.lin_failures,
            "rot_injected": self.rot_injected,
            "shares_repaired": self.shares_repaired,
            "repair_bytes": self.repair_bytes,
            "wal_discarded": self.wal_discarded,
            "snapshot_transfers": self.snapshot_transfers,
            "rebuild_bytes": self.rebuild_bytes,
            "wal_bytes": self.wal_bytes,
            "checkpoint_bytes": self.checkpoint_bytes,
            "checkpoint_bytes_written": self.checkpoint_bytes_written,
            "value_bytes_committed": self.value_bytes_committed,
            "records_compacted": self.records_compacted,
            "requests_shed": self.requests_shed,
            "shed_by_tenant": self.shed_by_tenant,
            "busy_by_tenant": self.busy_by_tenant,
            "hedges_issued": self.hedges_issued,
            "hedge_wins": self.hedge_wins,
            "timeout_adaptations": self.timeout_adaptations,
            "elections_started": self.elections_started,
            "leader_changes": self.leader_changes,
            "step_downs": self.step_downs,
            "reads_attempted": self.reads_attempted,
            "reads_ok": self.reads_ok,
            "read_availability": round(self.read_availability, 6),
            "follower_reads": self.follower_reads,
            "read_index_rounds": self.read_index_rounds,
            "degraded_reads": self.degraded_reads,
            "read_retry_causes": self.read_retry_causes,
            "rtt_estimates": self.rtt_estimates,
            "evictions": self.evictions,
            "false_evictions": self.false_evictions,
            "replacements": self.replacements,
            "time_to_restore": self.time_to_restore,
            "shard_splits": self.shard_splits,
            "shard_merges": self.shard_merges,
            "migrations_completed": self.migrations_completed,
            "copies_proposed": self.copies_proposed,
            "fence_writes": self.fence_writes,
            "wrong_shard_replies": self.wrong_shard_replies,
            "map_version": self.map_version,
            "schedule": [e.to_jsonable() for e in self.schedule],
        }


class ChaosRunner:
    """Run N seeded chaos episodes against one protocol config."""

    def __init__(
        self,
        config=None,
        protocol: str = "rs-paxos",
        n: int = 5,
        f: int = 1,
        spec: ChaosSpec | None = None,
        bundle_dir: str | None = "chaos-repros",
    ):
        if config is None:
            if protocol == "rs-paxos":
                config = rs_paxos(n, f)
            elif protocol == "classic":
                config = classic_paxos(n)
            else:
                raise ValueError(f"unknown protocol {protocol!r}")
        self.config = config
        self.protocol = protocol
        self.spec = spec or ChaosSpec()
        self.bundle_dir = bundle_dir

    # -- one episode ------------------------------------------------------

    def run_episode(self, seed: int, trace: bool = False):
        """Run one seeded episode; returns (EpisodeResult, trace_tail)."""
        spec = self.spec
        tenants = [
            spec.tenants[i % len(spec.tenants)]
            for i in range(spec.num_clients)
        ] if spec.tenants else None
        cluster = build_cluster(
            self.config,
            num_clients=spec.num_clients,
            num_groups=spec.num_groups,
            link=LAN,
            seed=seed,
            client_timeout=spec.client_timeout,
            client_tenants=tenants,
            shard_ranges=spec.shard_ranges or None,
            server=spec.server,
            trace=trace,
        )
        sim = cluster.sim
        by_host = {srv.name: srv for srv in cluster.servers}
        rot_rng = sim.rng.stream("chaos.bitrot")
        # Filled by _start_workload: lets the "overload" fault reach
        # into the workload and open its loop for a burst.
        workload_ctl: dict = {}

        def shard_op(op: str, attempts: int = 10) -> None:
            # Split/merge requests are opportunistic: leadership may be
            # mid-transition or a migration already in flight when the
            # event fires, so retry briefly and then drop it.
            ldr = cluster.leader()
            if ldr is not None and getattr(ldr, op)():
                return
            if attempts > 0:
                sim.call_after(0.25, lambda: shard_op(op, attempts - 1))

        def arm_migration_crash(dur: float) -> None:
            # Crash whichever server leads the moment a migration is
            # next observed in flight — inside the copy / dual-write
            # fence window — then recover it after ``dur``. If no
            # migration starts before the fault window closes, the
            # event lapses.
            def watch() -> None:
                if sim.now >= spec.schedule.end:
                    return
                ldr = cluster.leader()
                if (
                    ldr is not None
                    and getattr(ldr.shard_map, "migrating", None) is not None
                ):
                    ldr.crash()
                    sim.call_after(
                        dur, lambda: ldr.recover() if not ldr.up else None
                    )
                    return
                sim.call_after(0.05, watch)

            sim.call_soon(watch)

        def on_fault(kind: str, arg) -> None:
            if kind in ("crash", "recover") and arg in by_host:
                srv = by_host[arg]
                srv.crash() if kind == "crash" else srv.recover()
            elif kind == "wipe":
                srv = by_host[arg]
                if srv.up:
                    srv.wipe()
            elif kind == "rejoin":
                srv = by_host[arg]
                if not srv.up:
                    srv.recover()
            elif kind == "slow-disk":
                host, factor = arg
                by_host[host].disk.slowdown = factor
            elif kind == "fix-disk":
                by_host[arg].disk.slowdown = 1.0
            elif kind == "torn-write":
                # A crash that lands mid-flush: the in-flight WAL batch
                # persists only up to a random byte fraction.
                host, frac = arg
                by_host[host].wal.arm_torn_write(frac)
                by_host[host].crash()
            elif kind == "bit-rot":
                by_host[arg].scrubber.rot(rot_rng)
            elif kind == "scrub":
                by_host[arg].scrubber.scrub()
            elif kind == "overload":
                d, factor = arg
                workload_ctl["burst"](d, factor)
            elif kind == "slow-node":
                # Gray failure: the whole node slows — disk AND NIC —
                # but stays up and keeps answering (late).
                host, factor = arg
                by_host[host].disk.slowdown = factor
                cluster.net.set_nic_slowdown(host, factor)
            elif kind == "fix-node":
                by_host[arg].disk.slowdown = 1.0
                cluster.net.set_nic_slowdown(arg, 1.0)
            elif kind == "perma-crash":
                # Permanent death: crash + total disk loss. No recover
                # is scheduled — the paired provision-spare event later
                # lands a *fresh* node at the same address.
                srv = by_host[arg]
                if srv.up:
                    srv.wipe()
            elif kind == "provision-spare":
                srv = by_host[arg]
                if not srv.up:
                    srv.recover()
            elif kind == "shard-split":
                shard_op("force_split")
            elif kind == "shard-merge":
                shard_op("force_merge")
            elif kind == "crash-migration":
                arm_migration_crash(float(arg))

        cluster.faults.on_fault(on_fault)

        schedule = generate_schedule(
            sim.rng.stream("chaos.schedule"),
            spec.schedule,
            [srv.name for srv in cluster.servers],
            max_crashed=max(1, self.config.f),
        )
        arm_schedule(cluster.faults, schedule)

        recorder = HistoryRecorder()
        self._start_workload(cluster, recorder, workload_ctl)

        # Single-lease probe: instantaneous by nature, so sample it
        # throughout the episode — dueling leaders mid-partition are
        # exactly the transient an end-of-episode sweep would miss.
        lease_violations: list[dict] = []

        def lease_probe() -> None:
            for v in check_single_lease(cluster.servers):
                lease_violations.append(
                    {**v.to_jsonable(), "t": round(sim.now, 4)})
            if sim.now < spec.horizon:
                sim.call_after(0.25, lease_probe)

        sim.call_soon(lease_probe)

        violations: list[dict] = []
        try:
            cluster.start()
            sim.run(until=spec.horizon)
        except ConsistencyViolation as exc:
            violations.append({"kind": "unique-choice", "detail": str(exc)})

        if not violations:
            violations = [
                v.to_jsonable()
                for v in check_cluster(cluster.servers, self.config)
            ]
        violations.extend(lease_violations)
        lin_failures = [
            {"key": r.key, "ops": r.failure_ops}
            for r in check_history(recorder)
        ]

        shed_by_tenant: dict[str, int] = {}
        for srv in cluster.servers:
            for t, n in srv.requests_shed_by_tenant.items():
                shed_by_tenant[t] = shed_by_tenant.get(t, 0) + n
        busy_by_tenant: dict[str, dict] = {}
        for cli in cluster.clients:
            st = cli.backoff_stats()
            agg = busy_by_tenant.setdefault(
                st["tenant"],
                {"busy_count": 0, "busy_wait_total": 0.0,
                 "busy_wait_max": 0.0},
            )
            agg["busy_count"] += st["busy_count"]
            agg["busy_wait_total"] = round(
                agg["busy_wait_total"] + st["busy_wait_total"], 6
            )
            agg["busy_wait_max"] = max(
                agg["busy_wait_max"], st["busy_wait_max"]
            )

        reads_attempted, reads_ok = read_availability(recorder)
        read_retry_causes: dict[str, int] = {}
        for cli in cluster.clients:
            for cause, n in cli.backoff_stats()["read_retries"].items():
                read_retry_causes[cause] = (
                    read_retry_causes.get(cause, 0) + n
                )
        rtt_estimates = {
            srv.name: {
                dst: round(ewma, 6)
                for dst, ewma in srv.endpoint.rtt_table().items()
            }
            for srv in cluster.servers
        }
        replacement_events = [
            e for srv in cluster.servers for e in srv.repair.replacement_events
        ]

        result = EpisodeResult(
            seed=seed,
            ok=not violations and not lin_failures,
            ops_total=len(recorder.ops),
            ops_completed=sum(1 for op in recorder.ops if op.completed),
            violations=violations,
            lin_failures=lin_failures,
            schedule=schedule,
            rot_injected=int(cluster.metrics.counter("scrub.rot_injected").value),
            shares_repaired=int(cluster.metrics.counter("scrub.repaired").value),
            repair_bytes=int(cluster.metrics.counter("scrub.repair_bytes").value),
            wal_discarded=sum(s.wal.discarded_total for s in cluster.servers),
            snapshot_transfers=int(
                cluster.metrics.counter("rebuild.snapshot_transfers").value
            ),
            rebuild_bytes=int(
                cluster.metrics.counter("rebuild.snapshot_bytes").value
                + cluster.metrics.counter("rebuild.catchup_bytes").value
            ),
            wal_bytes=sum(
                s.durable_footprint()["wal_bytes"] for s in cluster.servers
            ),
            checkpoint_bytes=sum(
                s.durable_footprint()["checkpoint_bytes"]
                for s in cluster.servers
            ),
            checkpoint_bytes_written=sum(
                s.durable_footprint()["checkpoint_bytes_written"]
                for s in cluster.servers
            ),
            value_bytes_committed=committed_value_bytes(recorder),
            records_compacted=sum(
                s.durable_footprint()["records_compacted"]
                for s in cluster.servers
            ),
            requests_shed=sum(s.requests_shed for s in cluster.servers),
            shed_by_tenant=shed_by_tenant,
            busy_by_tenant=busy_by_tenant,
            hedges_issued=sum(s.fetch.hedges_issued for s in cluster.servers),
            hedge_wins=sum(s.fetch.hedge_wins for s in cluster.servers),
            timeout_adaptations=sum(
                s.endpoint.timeouts_adapted for s in cluster.servers
            ),
            elections_started=sum(
                s.elections_started for s in cluster.servers
            ),
            leader_changes=sum(s.leader_changes for s in cluster.servers),
            step_downs=sum(s.step_downs for s in cluster.servers),
            reads_attempted=reads_attempted,
            reads_ok=reads_ok,
            follower_reads=sum(s.reads.follower_reads for s in cluster.servers),
            read_index_rounds=sum(
                s.reads.read_index_rounds for s in cluster.servers
            ),
            degraded_reads=sum(s.reads.degraded_reads for s in cluster.servers),
            read_retry_causes=read_retry_causes,
            rtt_estimates=rtt_estimates,
            evictions=sum(
                len(s.repair.eviction_events) for s in cluster.servers
            ),
            false_evictions=_count_false_evictions(
                cluster.servers, cluster.faults.fired
            ),
            replacements=len(replacement_events),
            time_to_restore=sorted(
                round(ttr, 4) for _, _, ttr in replacement_events
            ),
            shard_splits=sum(s.splits_started for s in cluster.servers),
            shard_merges=sum(s.merges_started for s in cluster.servers),
            migrations_completed=max(
                s.reconfig.migrations_completed for s in cluster.servers
            ),
            copies_proposed=sum(
                s.reconfig.copies_proposed for s in cluster.servers),
            fence_writes=sum(s.fence_writes for s in cluster.servers),
            wrong_shard_replies=sum(
                s.wrong_shard_replies for s in cluster.servers
            ),
            map_version=max(s.shard_map.version for s in cluster.servers),
        )
        trace_tail = (
            [str(r) for r in cluster.tracer.records[-400:]] if trace else []
        )
        return result, trace_tail

    def _start_workload(
        self, cluster, recorder: HistoryRecorder, ctl: dict | None = None,
    ) -> None:
        """Closed-loop clients with unique write sizes per key.

        ``ctl`` (when given) receives a ``"burst"`` callable: the
        "overload" chaos event opens the loop for a window — each
        client temporarily runs ``factor - 1`` extra concurrent op
        chains, multiplying the offered load without changing the
        steady-state workload's RNG draws.
        """
        spec = self.spec
        sim = cluster.sim
        stop_at = spec.schedule.end
        write_seq: dict[str, int] = {}

        def one_op(client, rng, on_done) -> None:
            key = f"k{int(rng.integers(spec.num_keys))}"
            x = float(rng.random())
            if x < spec.p_write:
                seq = write_seq.get(key, 0) + 1
                write_seq[key] = seq
                # Never-repeated size = distinguishable register value.
                client.put(key, 64 + seq, on_done=on_done)
            elif x < spec.p_write + spec.p_fast_read:
                client.get(key, mode="fast", on_done=on_done)
            elif x < spec.p_write + spec.p_fast_read + spec.p_consistent_read:
                client.get(key, mode="consistent", on_done=on_done)
            elif x < (spec.p_write + spec.p_fast_read
                      + spec.p_consistent_read + spec.p_follower_read):
                client.get(key, mode="follower", on_done=on_done)
            else:
                client.delete(key, on_done=on_done)

        for client in cluster.clients:
            client.history = recorder
            client.max_attempts = spec.client_max_attempts
            rng = sim.rng.stream(f"chaos.workload.{client.name}")

            def loop(client=client, rng=rng) -> None:
                if sim.now >= stop_at:
                    return

                def again(*_ignored) -> None:
                    sim.call_after(spec.think_time, loop)

                one_op(client, rng, again)

            sim.call_soon(loop)

        def spawn_chain(client, rng, until: float) -> None:
            def chain(*_ignored) -> None:
                if sim.now >= until or sim.now >= stop_at:
                    return
                one_op(
                    client, rng,
                    lambda *_: sim.call_after(spec.think_time, chain),
                )

            sim.call_soon(chain)

        def burst(duration: float, factor: float) -> None:
            until = min(sim.now + duration, stop_at)
            extra = max(1, int(round(factor)) - 1)
            for client in cluster.clients:
                # Separate substream per client: burst draws must not
                # perturb the steady workload's sequence.
                brng = sim.rng.stream(f"chaos.overload.{client.name}")
                for _ in range(extra):
                    spawn_chain(client, brng, until)

        if ctl is not None:
            ctl["burst"] = burst

    # -- batches ----------------------------------------------------------

    def run(self, seeds: int, start_seed: int = 0, verbose: bool = False):
        """Run ``seeds`` episodes; returns (results, failures)."""
        results: list[EpisodeResult] = []
        failures: list[EpisodeResult] = []
        for seed in range(start_seed, start_seed + seeds):
            result, _ = self.run_episode(seed)
            if not result.ok and self.bundle_dir is not None:
                result.bundle_path = self._write_bundle(result)
            results.append(result)
            if not result.ok:
                failures.append(result)
            if verbose:
                status = "ok" if result.ok else "FAIL"
                extra = (
                    f" -> {result.bundle_path}" if result.bundle_path else ""
                )
                print(
                    f"  seed {seed:4d}: {status}  "
                    f"({result.ops_completed}/{result.ops_total} ops, "
                    f"{len(result.schedule)} fault events){extra}"
                )
        return results, failures

    def _write_bundle(self, result: EpisodeResult) -> str:
        """Re-run the failing seed with tracing and dump a repro bundle."""
        replay, trace_tail = self.run_episode(result.seed, trace=True)
        bundle = {
            "paper": "RS-Paxos (HPDC 2014) reproduction",
            "protocol": self.protocol,
            "config": {
                "n": self.config.n, "q_r": self.config.q_r,
                "q_w": self.config.q_w, "x": self.config.x,
            },
            "spec": self.spec.to_jsonable(),
            # Evaluable as written after ``from repro.chaos import *``:
            # the spec is frozen dataclasses all the way down.
            "replay": (
                f"ChaosRunner(protocol={self.protocol!r}, "
                f"spec={self.spec!r}).run_episode({result.seed})"
            ),
            **replay.to_jsonable(),
            "trace_tail": trace_tail,
        }
        os.makedirs(self.bundle_dir, exist_ok=True)
        path = os.path.join(
            self.bundle_dir, f"{self.protocol}-seed{result.seed}.json"
        )
        with open(path, "w") as fh:
            json.dump(bundle, fh, indent=2, default=str)
        return path
