"""The four workloads, as they run inside one child process.

Each workload is a function ``(Run) -> None`` that builds a cluster
through the repo's public API, generates its inputs from the seed (via
the simulator's named RNG substreams), drives the phases

    set-up -> untimed warm-up slice -> measured phase (sliced) -> drain

and leaves its checks' verdicts on the :class:`Run`. The program under
test (``src/repro``) only ever sees generated inputs — cluster knobs,
``put``/``get`` calls, crash/recover calls — never a workload name.

All four run N=5 RS-Paxos θ(3,5), LAN, SSD, 4 Paxos groups. Every
simulated duration and key count is the issue's reference size times
``SCALE``, one common factor chosen so that one repetition measures
≈2–3 host seconds and the driver's 92 runs fit its time cap (README.md
has the arithmetic).

Run as a script this file is the child entry point:
``workloads.py <workload> <seed> <trace 0|1> <checks 0|1> <spawn time>``
prints one JSON object, the repetition's raw result.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import os
import resource
import sys
import time
from typing import Callable

import numpy as np

from repro import check
from repro.bench import Setup, make_cluster
from repro.check import HistoryRecorder
from repro.core import LeaseConfig
from repro.kvstore import GetOk
from repro.workload import (
    ClosedLoopDriver,
    OpenLoopDriver,
    PoissonArrivals,
    SizeRange,
    fixed_size_writes,
    prepopulate,
    ycsb_a,
)

#: Common factor applied to the issue's simulated durations / key counts.
SCALE = 0.25

#: The measured phase runs in slices of this many simulated seconds;
#: between slices the workload script advances (crash the leader once the
#: writes are done, ...) and the host's speed is calibrated.
SLICE_SIM_S = 0.02

#: The paper's configuration: N=5, F=1 gives θ(X=3, N=5).
N, X = 5, 3


class DataRecorder(HistoryRecorder):
    """History hook that also fingerprints the bytes reads return."""

    def __init__(self) -> None:
        super().__init__()
        self.read_hash: dict[int, bytes] = {}

    def complete(self, hid: int, ok: bool, reply, t: float) -> None:
        super().complete(hid, ok, reply, t)
        if isinstance(reply, GetOk) and reply.data is not None:
            self.read_hash[hid] = hashlib.blake2b(
                reply.data, digest_size=16
            ).digest()


def calibrate() -> float:
    """Host seconds for a fixed piece of the interpreter work the
    simulator is made of (heap of tuples, dict churn, closures, calls):
    the yardstick for how fast this host is running right now. Best of
    three, since interference only ever adds time."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        heap: list = []
        table: dict = {}
        for i in range(1000):
            heapq.heappush(heap, ((i * 7919) % 101, i, lambda: i))
            table[i] = (i, str(i))
        while heap:
            _, i, fn = heapq.heappop(heap)
            table.pop(fn(), None)
        best = min(best, time.perf_counter() - t)
    return best


#: Host seconds of measured work between two calibrations.
CALIBRATE_EVERY_S = 0.1


class GcTimer:
    """``gc.callbacks`` hook timing every collection. On the message
    workloads a fifth of the measured phase is the cyclic collector, and
    it runs inside whichever call happened to trip the threshold — so the
    traced run takes the pauses out of the spans (``on_pause``) and the
    harness reports them as ``host.gc_s`` instead."""

    def __init__(self, on_pause: Callable[[float], None] | None = None):
        self.total_s = 0.0
        self.collections = 0
        self.on_pause = on_pause
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
            return
        pause = time.perf_counter() - self._start
        self.total_s += pause
        self.collections += 1
        if self.on_pause is not None:
            self.on_pause(pause)


def _pct(samples: list[float], q: float) -> float:
    return float(np.percentile(samples, q)) * 1e3 if samples else 0.0


class Run:
    """One repetition: phase bookkeeping shared by the four workloads."""

    def __init__(self, seed: int, t_spawn: float, tracer=None,
                 checks: bool = True):
        self.seed = seed
        self.t_spawn = t_spawn
        self.tracer = tracer
        self.checks = checks
        self.gc = GcTimer(tracer.pause if tracer is not None else None)
        gc.callbacks.append(self.gc)
        self.cluster = None
        self.history: HistoryRecorder | None = None
        self.drivers: list = []
        self.dropped: Callable[[], int] = lambda: 0
        self.host: dict = {}             # host-clock facts of this child
        self.t0 = self.t1 = 0.0          # measured window, sim clock
        self.before: dict = {}
        self.after: dict = {}
        self.cost_end: tuple[float, dict] | None = None
        self.dropped_before = 0
        self.catchup_sim_s = 0.0
        self.expect_paper_cost = False   # check wire/disk ratios vs N/X
        self.problems: list[str] = []    # failed correctness checks
        self.checked = {"check.history_wall_s": 0.0,
                        "check.cluster_wall_s": 0.0,
                        "check.ops_checked": 0}

    # -- set-up ---------------------------------------------------------

    def build(self, num_clients: int, recorder: HistoryRecorder | None = None,
              **kw) -> None:
        self.cluster = make_cluster(
            Setup(protocol="rs-paxos", env="lan", disk="ssd", n=N, f=1,
                  num_groups=4, num_clients=num_clients, seed=self.seed),
            **kw,
        )
        self.history = recorder or HistoryRecorder()
        for cl in self.cluster.clients:
            cl.history = self.history

    # -- counters -------------------------------------------------------

    def counters(self) -> dict:
        """Every public counter the per-layer metrics are built from."""
        c = self.cluster
        now = c.sim.now
        nodes = [n for s in c.servers for n in s.groups]
        endpoints = [s.endpoint for s in c.servers] + [
            cl.endpoint for cl in c.clients
        ]
        out = {
            "sim.events": c.sim.events_processed,
            "net.msgs": c.net.messages_sent,
            "net.bytes": c.net.total_bytes_sent(),
            "rpc.requests": sum(e.requests_sent for e in endpoints),
            "rpc.timeouts": sum(e.requests_timed_out for e in endpoints),
            "core.proposals": sum(n.stats.proposals for n in nodes),
            "core.commits": sum(n.stats.chosen for n in nodes),
            "core.preempts": sum(n.stats.preemptions for n in nodes),
            "core.encode_value_calls": sum(n.stats.encode_ops for n in nodes),
            "core.decode_value_calls": sum(n.stats.decode_ops for n in nodes),
            "kvstore.shed": sum(s.requests_shed for s in c.servers),
            "kvstore.batches": sum(s.batches_proposed for s in c.servers),
            "kvstore.elections": sum(s.elections_started for s in c.servers),
            "storage.wal_flushes": sum(s.wal.flushes for s in c.servers),
            "storage.disk_bytes": sum(s.disk.bytes_written for s in c.servers),
            "storage.ckpt_saves": sum(
                s.checkpoint_store.saves for s in c.servers),
            "storage.records_compacted": sum(
                s.wal.records_compacted for s in c.servers),
            "batch_cmds": float(np.sum(
                c.metrics.histogram("batch.commands").samples)),
            # FifoResource.utilization(0) * now == busy seconds so far.
            "disk_busy_s": [
                s.disk.utilization(0.0) * now for s in c.servers],
            "egress_busy_s": [
                c.net.hosts[s.name].egress.utilization(0.0) * now
                for s in c.servers],
        }
        for name in ("fast_reads", "consistent_reads", "recovery_reads",
                     "degraded_reads", "leader_changes"):
            out[f"kvstore.{name}"] = sum(getattr(s, name) for s in c.servers)
        return out

    # -- phases ---------------------------------------------------------

    def warm_up(self, sim_s: float) -> None:
        """The untimed slice before the measured phase."""
        sim = self.cluster.sim
        sim.run(until=sim.now + sim_s)

    def measure(self, done: Callable[[], bool],
                on_slice: Callable[[], None] | None = None) -> None:
        """Run slices of ``SLICE_SIM_S`` until ``done()``, timing the
        slices (not the calibration between them)."""
        sim = self.cluster.sim
        if self.tracer is not None:
            self.tracer.reset()
        self.before = self.counters()
        self.dropped_before = self.dropped()
        gc_s, gc0 = 0.0, self.gc.collections
        self.t0 = sim.now
        measured_s = 0.0
        setup_s = time.perf_counter() - self.t_spawn
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        k = 0
        calib: list[float] = []
        since_calib = CALIBRATE_EVERY_S
        while not done():
            if since_calib >= CALIBRATE_EVERY_S:
                calib.append(calibrate())
                since_calib = 0.0
            k += 1
            g = self.gc.total_s
            t = time.perf_counter()
            sim.run(until=self.t0 + k * SLICE_SIM_S)
            dt = time.perf_counter() - t
            gc_s += self.gc.total_s - g
            measured_s += dt
            since_calib += dt
            if on_slice is not None:
                on_slice()
        wall_s = time.perf_counter() - wall0
        cpu_s = time.process_time() - cpu0
        self.t1 = sim.now
        self.after = self.counters()
        if self.tracer is not None:
            self.tracer.freeze(measured_s)
        self.host = {
            "setup_s": setup_s, "measured_s": measured_s,
            "wall_s": wall_s, "cpu_s": cpu_s, "calib": calib,
            "gc_s": gc_s,
            "gc_collections": self.gc.collections - gc0,
        }

    def until(self, sim_s: float) -> Callable[[], bool]:
        """``done`` predicate for a fixed-length measured phase."""
        sim = self.cluster.sim
        end = sim.now + sim_s
        return lambda: sim.now >= end - 1e-9

    def mark_cost_window_end(self) -> None:
        """End the window the wire/disk cost ratios are taken over: the
        write part of the measured phase (default: all of it)."""
        self.cost_end = (self.cluster.sim.now, self.counters())

    def drain(self, sim_s: float) -> None:
        for d in self.drivers:
            d.stop()
        sim = self.cluster.sim
        sim.run(until=sim.now + sim_s)
        # Peak memory of the program under test, before the checkers
        # (whose search state would otherwise dominate it) run.
        self.host["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- checks ---------------------------------------------------------

    def check_consistency(self) -> None:
        """Linearizability of the recorded history + replicated-state
        probes; outside the measured phase, cost reported on its own.
        Same seed, same history (the harness compares digests), so one
        repetition per run pays for the search."""
        if not self.checks:
            return
        t = time.perf_counter()
        bad = check.check_history(self.history)
        self.checked["check.history_wall_s"] = time.perf_counter() - t
        self.checked["check.ops_checked"] = len(self.history.ops)
        if bad:
            self.problems.append(
                f"history not linearizable on {len(bad)} key(s), "
                f"first {bad[0].key!r}")
        t = time.perf_counter()
        violations = check.check_cluster(
            self.cluster.servers, self.cluster.servers[0].config)
        self.checked["check.cluster_wall_s"] = time.perf_counter() - t
        if violations:
            self.problems.append(
                f"{len(violations)} cluster invariant violation(s), "
                f"first {violations[0]}")

    # -- result ---------------------------------------------------------

    def result(self) -> dict:
        """Everything one repetition knows. ``sim`` holds only
        simulated-clock numbers: it must be identical, to the last
        digit, in every repetition of the same seed."""
        gc.callbacks.remove(self.gc)
        t0, t1 = self.t0, self.t1
        recs = self.history.ops
        ok = sorted(
            (r for r in recs
             if r.ok and r.response is not None and t0 <= r.response <= t1),
            key=lambda r: r.response)
        invoked = [r for r in recs if t0 <= r.invoke < t1]
        dropped = self.dropped() - self.dropped_before
        attempted = len(invoked) + dropped
        failed = sum(1 for r in invoked if not r.ok) + dropped
        lat = {"put": [], "get": []}
        for r in ok:
            lat[r.op].append(r.response - r.invoke)
        both = lat["put"] + lat["get"]
        edges = [t0] + [r.response for r in ok] + [t1]
        max_gap = max(b - a for a, b in zip(edges, edges[1:]))

        delta = {
            k: self.after[k] - self.before[k]
            for k in self.after if not isinstance(self.after[k], list)
        }
        window = t1 - t0
        busy = {
            k: [a - b for a, b in zip(self.after[k], self.before[k])]
            for k in ("disk_busy_s", "egress_busy_s")
        }
        cost_t1, cost_after = self.cost_end or (t1, self.after)
        written = sum(
            r.value for r in ok if r.op == "put" and r.response <= cost_t1)
        cost = {k: cost_after[k] - self.before[k]
                for k in ("net.bytes", "storage.disk_bytes")}

        digest = hashlib.blake2b(digest_size=16)
        for r in recs:
            digest.update(repr((r.client, r.op, r.key, r.value, r.invoke,
                                r.response, r.ok, r.output)).encode())
        sim = {
            "ops_ok": len(ok),
            "failed": failed,
            # Rate between the first and the last completion rather than
            # count / window: a closed loop completes in lockstep, so the
            # count in a fixed window is the same integer for most seeds.
            "sim_ops_per_s": (len(ok) - 1) / (ok[-1].response - ok[0].response),
            "sim_lat_p50_ms": _pct(both, 50),
            "sim_lat_p99_ms": _pct(both, 99),
            "sim_max_gap_ms": max_gap * 1e3,
            "wire_bytes_per_value_byte": cost["net.bytes"] / written,
            "disk_bytes_per_value_byte": cost["storage.disk_bytes"] / written,
            "ok_ratio": 1.0 - failed / attempted,
            "lat_samples": len(both),
            "workload.ops_attempted": attempted,
            "workload.ops_dropped": dropped,
            "workload.put_p50_ms": _pct(lat["put"], 50),
            "workload.put_p99_ms": _pct(lat["put"], 99),
            "workload.get_p50_ms": _pct(lat["get"], 50),
            "workload.get_p99_ms": _pct(lat["get"], 99),
            "kvstore.catchup_sim_s": self.catchup_sim_s,
            "net.leader_egress_util": max(busy["egress_busy_s"]) / window,
            "storage.disk_util": sum(busy["disk_busy_s"]) / (
                window * len(busy["disk_busy_s"])),
            "history_digest": digest.hexdigest(),
            "op_digests": [
                [getattr(d, "name", d.client.name), d.op_digest]
                for d in self.drivers],
            **delta,
        }
        if self.expect_paper_cost:
            # The paper's claim: a write moves 1 + (N-1)/X of the value
            # over the wire and stores N/X of it.
            for name, want in (("wire_bytes_per_value_byte", 1 + (N - 1) / X),
                               ("disk_bytes_per_value_byte", N / X)):
                if abs(sim[name] / want - 1.0) > 0.03:
                    self.problems.append(
                        f"{name} = {sim[name]:.4f}, expected {want:.4f} ± 3 %")
        return {
            "seed": self.seed,
            "host": self.host,
            "sim": sim,
            "check": self.checked,
            "problems": self.problems,
            "trace": self.tracer.report() if self.tracer else None,
        }


# ----------------------------------------------------------------------
# small_write — the ROADMAP's reference run: per-message machinery.
# ----------------------------------------------------------------------

def small_write(run: Run) -> None:
    run.build(num_clients=8)
    spec = fixed_size_writes(4096, num_keys=200)
    _closed_loop(run, spec, warm=0.5 * SCALE, measured=4.0 * SCALE)


# ----------------------------------------------------------------------
# tiny_batched — batching amortises messages; kvstore becomes the cost.
# ----------------------------------------------------------------------

def tiny_batched(run: Run) -> None:
    run.build(num_clients=64, batch_max_commands=32)
    spec = fixed_size_writes(64, num_keys=200)
    _closed_loop(run, spec, warm=0.3 * SCALE, measured=2.0 * SCALE)


def _closed_loop(run: Run, spec, warm: float, measured: float) -> None:
    sim = run.cluster.sim
    run.drivers = [
        ClosedLoopDriver(sim, cl, spec) for cl in run.cluster.clients
    ]
    for d in run.drivers:
        d.start()
    run.warm_up(warm)
    run.measure(run.until(measured))
    run.drain(0.1)


# ----------------------------------------------------------------------
# Failover timing shared by the two workloads that crash the leader:
# the default lease (Δ=2 s, δ=50 ms, heartbeat 0.5 s) and client/RPC
# timeouts, scaled like every other simulated duration.
# ----------------------------------------------------------------------

def _failover_knobs() -> dict:
    return dict(
        lease_config=LeaseConfig(duration=2.0 * SCALE,
                                 max_drift=0.05 * SCALE,
                                 heartbeat_interval=0.5 * SCALE),
        client_timeout=2.0 * SCALE,
        rpc_timeout=0.25 * SCALE,
    )


# ----------------------------------------------------------------------
# coded_large — concrete mode: the only workload where real bytes and
# the RS codec run. Write every key, crash the leader, read every key
# back through the successor (which must fetch X shares and decode).
# ----------------------------------------------------------------------

VALUE_BYTES = 128 * 1024
NUM_BLOBS = 8


class KeyWalker:
    """Closed-loop client walking its share of the keys once."""

    def __init__(self, name: str, client, keys: list[str], issue) -> None:
        self.name = name
        self.client = client
        self.keys = keys
        self.issue = issue      # (client, key, on_done) -> None
        self.next = 0
        self.busy = False
        self._digest = hashlib.blake2b(digest_size=16)

    @property
    def op_digest(self) -> str:
        return self._digest.hexdigest()

    @property
    def finished(self) -> bool:
        return self.next >= len(self.keys) and not self.busy

    def start(self) -> None:
        self._step()

    def stop(self) -> None:
        self.next = len(self.keys)

    def _step(self, *_result) -> None:
        if self.next >= len(self.keys):
            self.busy = False
            return
        key = self.keys[self.next]
        self.next += 1
        self.busy = True
        self._digest.update(key.encode())
        self.issue(self.client, key, self._step)


def coded_large(run: Run) -> None:
    num_keys = max(500, int(1024 * SCALE))  # ≥1 000 ops: write + read each
    recorder = DataRecorder()
    run.build(num_clients=4, recorder=recorder, **_failover_knobs())
    cluster, sim = run.cluster, run.cluster.sim
    clients = cluster.clients
    rng = sim.rng.stream("bench.blobs")
    blobs = [rng.bytes(VALUE_BYTES) for _ in range(NUM_BLOBS)]
    blob_hash = [hashlib.blake2b(b, digest_size=16).digest() for b in blobs]
    keys = [f"blob/key-{int(i)}" for i in rng.permutation(num_keys)]
    warm_keys = [f"blob/warm-{i}" for i in range(2 * len(clients))]
    blob_of = {k: int(rng.integers(NUM_BLOBS)) for k in keys + warm_keys}

    def put(client, key, on_done):
        client.put(key, VALUE_BYTES, data=blobs[blob_of[key]], on_done=on_done)

    def get(client, key, on_done):
        client.get(key, mode="consistent", on_done=on_done)

    def walkers(issue, ks, tag):
        return [KeyWalker(f"{cl.name}.{tag}", cl, ks[i::len(clients)], issue)
                for i, cl in enumerate(clients)]

    warm = walkers(put, warm_keys, "warm")
    for w in warm:
        w.start()
    while not all(w.finished for w in warm):
        run.warm_up(SLICE_SIM_S)

    writers = walkers(put, keys, "write")
    readers = walkers(get, keys, "read")
    run.drivers = writers + readers
    phase = {"name": "write"}
    old_leader = cluster.leader()

    def advance() -> None:
        if phase["name"] == "write" and all(w.finished for w in writers):
            run.mark_cost_window_end()
            old_leader.crash()
            phase["name"] = "failover"
        if phase["name"] == "failover" and cluster.leader() is not None:
            phase["name"] = "read"
            for r in readers:
                r.start()

    for w in writers:
        w.start()
    run.measure(
        lambda: phase["name"] == "read" and all(r.finished for r in readers),
        on_slice=advance,
    )
    run.drain(0.1)

    # Every key read back once, and the bytes are the bytes written.
    reads = [r for r in recorder.ops if r.op == "get"]
    wrong = [
        r.key for r in reads
        if recorder.read_hash.get(r.hid) != blob_hash[blob_of[r.key]]
    ]
    if len(reads) != num_keys or wrong:
        run.problems.append(
            f"read-back: {len(reads)}/{num_keys} reads, "
            f"{len(wrong)} with wrong bytes")
    run.expect_paper_cost = True


# ----------------------------------------------------------------------
# mixed_failover — open-loop YCSB-A through a leader crash + recovery.
# ----------------------------------------------------------------------

def mixed_failover(run: Run) -> None:
    run.build(num_clients=8, checkpoint_interval=2.0 * SCALE,
              **_failover_knobs())
    cluster, sim = run.cluster, run.cluster.sim
    spec = ycsb_a(num_keys=int(500 * SCALE), sizes=SizeRange(1024, 1024))
    prepopulate(sim, cluster.clients[0], spec, deadline=30.0)
    # The outstanding budget is sized so that a healthy failover never
    # exhausts it: arrivals due while no leader exists wait (and count in
    # the latency tail and the service gap) instead of being dropped.
    run.drivers = [
        OpenLoopDriver(sim, cl, spec, PoissonArrivals(187.5),
                       max_outstanding=256)
        for cl in cluster.clients
    ]
    run.dropped = lambda: sum(d.ops_dropped for d in run.drivers)
    for d in run.drivers:
        d.start()
    run.warm_up(0.5 * SCALE)

    total, crash_at, recover_at = 20.0 * SCALE, 6.0 * SCALE, 12.0 * SCALE
    start = sim.now
    victim = cluster.leader()
    target: list[int] = []

    def level() -> None:
        """Poll until the recovered replica's apply cursors reach where
        the rest of the cluster stood when it came back."""
        if all(n.apply_cursor >= t for n, t in zip(victim.groups, target)):
            run.catchup_sim_s = sim.now - (start + recover_at)
        else:
            sim.call_after(0.002, level)

    def recover() -> None:
        victim.recover()
        target.extend(
            max(s.groups[g].apply_cursor for s in cluster.servers if s.up)
            for g in range(len(victim.groups)))
        level()

    sim.call_at(start + crash_at, victim.crash)
    sim.call_at(start + recover_at, recover)
    run.measure(run.until(total))
    run.drain(2.0 * SCALE)
    if run.catchup_sim_s <= 0.0:
        run.problems.append("recovered replica never caught up")
    run.check_consistency()


WORKLOADS: dict[str, Callable[[Run], None]] = {
    "small_write": small_write,
    "tiny_batched": tiny_batched,
    "coded_large": coded_large,
    "mixed_failover": mixed_failover,
}


def run_one(name: str, seed: int, t_spawn: float | None = None,
            tracer=None, checks: bool = True) -> dict:
    """Run one repetition of workload ``name`` in this process."""
    run = Run(seed, t_spawn if t_spawn is not None else time.perf_counter(),
              tracer, checks)
    WORKLOADS[name](run)
    return run.result()


def main(argv: list[str]) -> int:
    name, seed = argv[0], int(argv[1])
    trace, checks, t_spawn = argv[2] == "1", argv[3] == "1", float(argv[4])
    tracer = None
    if trace:
        from trace import Tracer
        tracer = Tracer()
        tracer.install()
    result = run_one(name, seed, t_spawn, tracer, checks)
    if tracer is not None:
        tracer.uninstall()
        raw = result["trace"].pop("raw")
        out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, f"trace_{name}.json"), "w") as f:
            json.dump({"workload": name, "seed": seed,
                       "fields": ["id", "parent", "layer", "name", "start",
                                  "end", "op"],
                       "spans": raw}, f)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
