#!/usr/bin/env python3
"""The repo's performance benchmark: wall-clock + simulated cost, four
workloads, layer-attributed. README.md explains every metric.

Three ways to call it, all from the repo root (or any checkout root):

``run.py --workload W --seed S --seconds T --trace 0|1``
    One workload, the driver's contract: prints every metric of the
    chosen half (``--trace 0`` end-to-end, ``--trace 1`` per-layer) by
    name with its unit, then one JSON line.

``run.py [--seed S] [--workload W] [--seconds T] [--out FILE]``
    All four workloads (or one), both halves, one JSON result file —
    the input of ``compare``.

``run.py compare A.json B.json`` / ``run.py --selftest``

Every repetition is a fresh child process; children run strictly one
after another. Names, units and regression bounds come from
``BENCHMARK.json`` at the repo root, the single place they are fixed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: End-to-end metrics on the host clock (noisy; estimated over the
#: repetitions). Every other end-to-end metric is on the simulated clock
#: and must be identical in every repetition of a seed.
HOST_CLOCK = ("setup_s", "ops_per_wall_s", "peak_rss_mb")

MIN_REPS = 3
#: A repetition whose wall time exceeds its CPU time by more than this
#: was descheduled while measuring; it is re-run once.
PREEMPTED = 1.10
#: Stop adding repetitions when a run has used this much wall time (the
#: driver kills a run at 180 s).
RUN_CAP_S = 120.0


def load_spec() -> dict:
    with open(SPEC_PATH) as f:
        return json.load(f)


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------

def spawn(workload: str, seed: int, trace: bool, checks: bool) -> dict:
    """One repetition in a fresh interpreter; returns its raw result.
    ``checks``: also run the history/invariant checkers afterwards."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'} "
                         "is missing")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), workload, str(seed),
         str(int(trace)), str(int(checks)), repr(time.perf_counter())],
        env=env, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise SystemExit(f"child for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def timed_reps(workload: str, seed: int, seconds: float) -> list[dict]:
    """Untraced repetitions, one after another, until they have measured
    for ``seconds`` in total (at least ``MIN_REPS``)."""
    reps: list[dict] = []
    started = time.perf_counter()
    while True:
        checks = not reps  # same seed, same history: check it once
        rep = spawn(workload, seed, False, checks)
        host = rep["host"]
        rep["rerun"] = False
        if host["wall_s"] > PREEMPTED * host["cpu_s"]:
            rep = spawn(workload, seed, False, checks)
            rep["rerun"] = True
        reps.append(rep)
        measured = sum(r["host"]["measured_s"] for r in reps)
        if len(reps) >= MIN_REPS and (
                measured >= seconds
                or time.perf_counter() - started > RUN_CAP_S):
            return reps


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

#: Host seconds the calibration kernel (``workloads.calibrate``) takes on
#: the reference host — this repo's sandbox on a quiet minute. Only the
#: ratio to it is used.
REFERENCE_KERNEL_S = 0.85e-3


def host_speed(rep: dict) -> float:
    """How much slower (>1) or faster (<1) than the reference host this
    repetition's host ran, by the calibration kernel interleaved with
    the measured phase."""
    return statistics.median(rep["host"]["calib"]) / REFERENCE_KERNEL_S


def reference_s(rep: dict) -> float:
    """The measured phase in seconds of the reference host. The sandbox
    shares its CPU: its speed drifts by ±10 % over minutes and more in
    bursts, which swamps any bound worth having on raw wall time. The
    kernel is timed every 0.1 s beside the work and tracks that drift
    (r ≈ 0.9), so dividing it out leaves a number two runs of the same
    commit agree on."""
    return rep["host"]["measured_s"] / host_speed(rep)


def end_to_end(reps: list[dict]) -> tuple[dict, dict]:
    """Metric values, and the per-repetition samples of the host-clock
    ones (for quartiles in ``compare``)."""
    sim = reps[0]["sim"]
    samples = {
        "setup_s": [r["host"]["setup_s"] for r in reps],
        "peak_rss_mb": [r["host"]["peak_rss_mb"] for r in reps],
        "ops_per_wall_s": [sim["ops_ok"] / reference_s(r) for r in reps],
    }
    values = {name: statistics.median(xs) for name, xs in samples.items()}
    for name in ("sim_ops_per_s", "sim_lat_p50_ms", "sim_lat_p99_ms",
                 "sim_max_gap_ms", "wire_bytes_per_value_byte",
                 "disk_bytes_per_value_byte", "ok_ratio"):
        values[name] = sim[name]
    return values, samples


#: Per-layer metrics that are a counter of the program (or a simulated
#: quantity the child worked out), reported as they are.
FROM_SIM = (
    "sim.events", "net.msgs", "net.bytes", "net.leader_egress_util",
    "rpc.requests", "rpc.timeouts",
    "core.proposals", "core.commits", "core.preempts",
    "core.encode_value_calls", "core.decode_value_calls",
    "kvstore.shed", "kvstore.batches", "kvstore.fast_reads",
    "kvstore.consistent_reads", "kvstore.recovery_reads",
    "kvstore.degraded_reads", "kvstore.elections", "kvstore.leader_changes",
    "kvstore.catchup_sim_s",
    "storage.wal_flushes", "storage.disk_bytes", "storage.disk_util",
    "storage.ckpt_saves", "storage.records_compacted",
    "workload.ops_attempted", "workload.ops_dropped",
    "workload.put_p50_ms", "workload.put_p99_ms",
    "workload.get_p50_ms", "workload.get_p99_ms",
)


def per_layer(reps: list[dict], traced: dict) -> dict:
    """Layer metrics: counts from the program's public counters (read
    after an untraced repetition) wherever one exists, otherwise from the
    traced run's boundary counts; self times from the traced run."""
    sim, trace = reps[0]["sim"], traced["trace"]
    self_s, cells = trace["self_s"], trace["cells"]
    # Shares are of the traced run's time outside the garbage collector
    # (tracing allocates, so it collects more than an untraced run).
    traced_own = trace["wall_s"] - trace["gc_s"]
    ops = sim["ops_ok"]
    walls = [r["host"]["measured_s"] for r in reps]
    wall = statistics.median(walls)
    ref_wall = statistics.median(reference_s(r) for r in reps)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def count(name: str) -> int:
        return trace["counts"].get(name, 0)

    def calls(*spans: str) -> int:
        return sum(cells.get(s, (0, 0.0))[0] for s in spans)

    def mb_per_s(nbytes: int, spans: tuple[str, ...]) -> float:
        return ratio(nbytes / 1e6, sum(cells.get(s, (0, 0.0))[1]
                                       for s in spans))

    enc = ("erasure|RSCodec.encode", "erasure|RSCodec.encode_share")
    dec = ("erasure|RSCodec.decode",)
    appends = calls("storage|WriteAheadLog.append")
    out = {name: sim[name] for name in FROM_SIM}
    out.update(reps[0]["check"])
    out.update({
        "sim.events_per_op": ratio(sim["sim.events"], ops),
        "sim.events_per_wall_s": ratio(sim["sim.events"], ref_wall),
        "sim.heap_peak": count("sim.heap_peak"),
        "sim.cancelled_share": ratio(count("sim.cancels"),
                                     count("sim.call_at")),
        "net.msgs_per_op": ratio(sim["net.msgs"], ops),
        "net.bytes_per_op": ratio(sim["net.bytes"], ops),
        # A loopback delivery is one net event and no wire message.
        "net.events_per_msg": ratio(
            count("events.net") - count("net.loopbacks"), sim["net.msgs"]),
        "rpc.sends": calls("rpc|RpcEndpoint.send"),
        "rpc.bodies_per_net_msg": ratio(count("net.bodies"), sim["net.msgs"]),
        "rpc.retransmits": count("rpc.request_transmits")
        - sim["rpc.requests"],
        "kvstore.admitted": calls(
            "kvstore|KVServer._on_put", "kvstore|KVServer._on_get",
            "kvstore|KVServer._on_delete") - sim["kvstore.shed"],
        "kvstore.cmds_per_batch": ratio(sim["batch_cmds"],
                                        sim["kvstore.batches"]) or 1.0,
        "erasure.encode_calls": calls(*enc),
        "erasure.decode_calls": calls(*dec),
        "erasure.encode_bytes": count("erasure.encode_bytes"),
        "erasure.decode_bytes": count("erasure.decode_bytes"),
        "erasure.encode_mb_per_wall_s": mb_per_s(
            count("erasure.encode_bytes"), enc),
        "erasure.decode_mb_per_wall_s": mb_per_s(
            count("erasure.decode_bytes"), dec),
        "storage.wal_appends": appends,
        "storage.appends_per_flush": ratio(appends,
                                           sim["storage.wal_flushes"]),
        "storage.flushes_per_op": ratio(sim["storage.wal_flushes"], ops),
        "storage.recover_records": count("storage.recover_records"),
        "workload.self_s": self_s["workload"],
        "host.wall_s": wall,
        "host.cpu_s": statistics.median(r["host"]["cpu_s"] for r in reps),
        "host.wall_over_cpu": statistics.median(
            r["host"]["wall_s"] / r["host"]["cpu_s"] for r in reps),
        "host.speed": statistics.median(host_speed(r) for r in reps),
        "host.gc_collections": reps[0]["host"]["gc_collections"],
        "host.gc_s": statistics.median(r["host"]["gc_s"] for r in reps),
        "host.gc_share": statistics.median(
            r["host"]["gc_s"] / r["host"]["measured_s"] for r in reps),
        "host.trace_overhead_ratio": ratio(reference_s(traced), ref_wall),
        "host.reps": len(reps),
        "host.rep_spread": ratio(max(walls) - min(walls), wall),
    })
    for layer in ("sim", "net", "rpc", "core", "kvstore", "erasure",
                  "storage"):
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.self_share"] = ratio(self_s[layer], traced_own)
    return out


def verify(workload: str, reps: list[dict], traced: dict | None) -> list[str]:
    """Correctness checks; an empty list means the run is correct."""
    problems: list[str] = []
    for i, rep in enumerate(reps + ([traced] if traced else [])):
        who = "traced run" if rep is traced else f"repetition {i}"
        problems += [f"{who}: {p}" for p in rep["problems"]]
        if rep["sim"] != reps[0]["sim"]:
            diff = sorted(k for k in rep["sim"]
                          if rep["sim"][k] != reps[0]["sim"].get(k))
            problems.append(
                f"{who} disagrees with repetition 0 on simulated-clock "
                f"values {diff}: the simulation is not deterministic"
                + (" under tracing" if rep is traced else ""))
    if traced is not None:
        trace = traced["trace"]
        cells = trace["cells"]
        coded = any(cells.get(f"erasure|RSCodec.{m}", [0])[0]
                    for m in ("encode", "encode_share", "decode"))
        if coded != (workload == "coded_large"):
            problems.append(
                "the RS codec ran on a modeled workload" if coded
                else "the RS codec never ran on the concrete workload")
        attributed = (sum(trace["self_s"].values()) + trace["gc_s"]) \
            / trace["wall_s"]
        if attributed < 0.95:
            problems.append(
                f"trace attributes only {attributed:.1%} of the measured "
                "phase to layers and the garbage collector")
    return problems


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Timed repetitions, then (``trace``) one traced run of the same
    seed. Returns metrics, samples, digests and the checks' verdict."""
    reps = timed_reps(workload, seed, seconds)
    traced = spawn(workload, seed, True, True) if trace else None
    values, samples = end_to_end(reps)
    sim = reps[0]["sim"]
    out = {
        "end_to_end": values,
        "samples": samples,
        "lat_samples": sim["lat_samples"],
        "attempted": sim["workload.ops_attempted"],
        "failed": sim["failed"],
        "op_digests": sim["op_digests"],
        "history_digest": sim["history_digest"],
        "reruns": sum(r["rerun"] for r in reps),
        "problems": verify(workload, reps, traced),
    }
    if traced is not None:
        out["per_layer"] = per_layer(reps, traced)
        out["top_spans"] = dict(list(traced["trace"]["cells"].items())[:25])
    return out


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------

def units_of(spec: dict, half: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[half]}


def emit(workload: str, result: dict, spec: dict, halves: list[str]) -> None:
    """Every metric by name with its unit, in ``BENCHMARK.json`` order
    (the self-test checks that the harness emits exactly those names)."""
    notes = {"sim_lat_p99_ms": f"  ({result['lat_samples']} samples)"}
    for half in halves:
        units = units_of(spec, half)
        width = max(len(n) for n in units)
        for name, unit in units.items():
            value = result[half][name]
            text = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"{workload:15s} {name:{width}s} {text:>14s} {unit:7s}"
                  f"{notes.get(name, '')}")
    for p in result["problems"]:
        print(f"{workload:15s} CHECK FAILED: {p}")


def driver_mode(args, spec: dict) -> int:
    half = "per_layer" if args.trace == 1 else "end_to_end"
    # The traced run is about as long as the untraced repetitions of half
    # the budget, so either half measures for about --seconds.
    result = run_workload(
        args.workload, args.seed,
        args.seconds / 2 if args.trace == 1 else args.seconds,
        trace=args.trace == 1)
    emit(args.workload, result, spec, [half])
    units = units_of(spec, half)
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in result[half].items()},
    }))
    return 0 if correct else 1


def git_head() -> str | None:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def full_mode(args, spec: dict) -> int:
    import numpy

    names = [args.workload] if args.workload else [
        w["name"] for w in spec["workloads"]]
    doc = {
        "meta": {
            "seed": args.seed,
            "seconds": args.seconds,
            "git_head": git_head(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
        },
        "workloads": {},
    }
    for name in names:
        result = run_workload(name, args.seed, args.seconds, trace=True)
        emit(name, result, spec, ["end_to_end", "per_layer"])
        doc["workloads"][name] = result
    out = Path(args.out) if args.out else HERE / "out" / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump(doc, f, indent=1)
    print(f"wrote {out}")
    return 1 if any(r["problems"] for r in doc["workloads"].values()) else 0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return (xs[0], xs[0])
    q = statistics.quantiles(xs, n=4)
    return (q[0], q[2])


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """One row per (workload, end-to-end metric): A, B, delta (positive:
    B is better), bound, verdict. ``regressed``: B is worse than A by
    more than the bound.
    ``unresolved``: it is not, but the repetitions of one side spread
    wider than the bound, so "no regression" is not shown either."""
    with open(path_a) as f:
        a = json.load(f)["workloads"]
    with open(path_b) as f:
        b = json.load(f)["workloads"]
    regressed = 0
    print(f"{'workload':15s} {'metric':26s} {'A':>12s} {'B':>12s} "
          f"{'delta':>8s} {'bound':>6s}  verdict   A q1..q3 | B q1..q3")
    for w in spec["workloads"]:
        name = w["name"]
        if name not in a or name not in b:
            continue
        for m in spec["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            va = a[name]["end_to_end"][metric]
            vb = b[name]["end_to_end"][metric]
            worse = (va - vb if m["better"] == "higher" else vb - va) / va
            verdict, spread_note = "ok", ""
            if worse > bound:
                verdict = "regressed"
                regressed += 1
            elif metric in HOST_CLOCK:
                qa = quartiles(a[name]["samples"][metric])
                qb = quartiles(b[name]["samples"][metric])
                spread_note = (f"{qa[0]:.4g}..{qa[1]:.4g} | "
                               f"{qb[0]:.4g}..{qb[1]:.4g}")
                if max((qa[1] - qa[0]) / va, (qb[1] - qb[0]) / vb) > bound:
                    verdict = "unresolved"
            gain = -worse or 0.0  # no "-0.00%"
            print(f"{name:15s} {metric:26s} {va:12.6g} {vb:12.6g} "
                  f"{gain:+8.2%} {bound:6.1%}  {verdict:9s} {spread_note}")
    return 1 if regressed else 0


# ----------------------------------------------------------------------

def main(argv: list[str]) -> int:
    spec = load_spec()
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2], spec)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--out")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if args.selftest:
        import selftest
        return selftest.main()
    if args.trace is not None:
        if not args.workload:
            ap.error("--trace needs --workload")
        return driver_mode(args, spec)
    return full_mode(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
