"""Self-test of the benchmark's own machinery (``run.py --selftest``).

Checks, in well under 20 s and without touching ``src/``:

1. self-time arithmetic on synthetic nested and sibling spans, for the
   reference function and for the live tracer driven by a fake clock;
2. ``Tracer.uninstall()`` restores every attribute it replaced;
3. a 0.2 sim-s ``small_write`` gives identical simulated-clock values
   and digests traced and untraced;
4. every metric and workload name is made of ``[A-Za-z0-9_.-]``;
5. the names the harness emits are exactly the names ``BENCHMARK.json``
   declares.

Not collected by the tier-1 test run (``testpaths = tests``).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent.parent / "src")]

import run as harness  # noqa: E402
import trace as perf_trace  # noqa: E402
import workloads  # noqa: E402


def check_self_time_arithmetic() -> None:
    # root a:[0,10] { b:[1,4], c:[5,7] { b:[5.5,6.5] } }, sibling a:[10,12]
    spans = [
        (1, 0, "b", "f", 1.0, 4.0, None),
        (3, 2, "b", "f", 5.5, 6.5, None),
        (2, 0, "c", "g", 5.0, 7.0, None),
        (0, -1, "a", "root", 0.0, 10.0, None),
        (4, -1, "a", "root", 10.0, 12.0, None),
    ]
    got = perf_trace.self_times(spans)
    assert got == {"a": 5.0 + 2.0, "b": 3.0 + 1.0, "c": 1.0}, got

    # The live tracer on the same shape, with a clock that only moves
    # when the traced functions say so.
    clock = [0.0]
    real = perf_trace.perf_counter
    perf_trace.perf_counter = lambda: clock[0]
    try:
        tracer = perf_trace.Tracer()

        def spend(dt):
            clock[0] += dt

        b = tracer.wrap(lambda dt: spend(dt), key=("b", "f"))

        def c_body():
            spend(0.5); b(1.0); spend(0.5)

        c = tracer.wrap(c_body, key=("c", "g"))

        def root_body(long):
            if long:
                spend(1.0); b(3.0); spend(1.0); c(); spend(3.0)
            else:
                spend(2.0)

        root = tracer.wrap(root_body, key=("a", "root"))
        root(True)
        root(False)
        tracer.freeze(clock[0])
        report = tracer.report()
    finally:
        perf_trace.perf_counter = real
    live = {k: v for k, v in report["self_s"].items() if v}
    assert live == {"a": 7.0, "b": 4.0, "c": 1.0}, live
    assert perf_trace.self_times(report["raw"]) == live
    assert report["cells"]["b|f"] == [2, 4.0]
    assert sum(live.values()) == report["wall_s"] == 12.0


def check_install_restores() -> None:
    import repro.check.invariants
    import repro.check.linearize
    import repro.core.node
    import repro.core.value
    import repro.kvstore.server
    from repro.core import PaxosNode
    from repro.erasure.rs import RSCodec
    from repro.kvstore import KVClient, KVServer
    from repro.net import Network
    from repro.rpc import Channel, RpcEndpoint
    from repro.sim import FifoResource, Simulator
    from repro.sim.loop import Event
    from repro.storage import CheckpointStore, Disk, WalView, WriteAheadLog

    owners = [Simulator, FifoResource, Event, Network, RpcEndpoint, Channel,
              WriteAheadLog, WalView, Disk, CheckpointStore, RSCodec,
              PaxosNode, KVClient, KVServer, repro.core.value,
              repro.core.node, repro.kvstore.server, repro.check,
              repro.check.linearize, repro.check.invariants]
    before = [dict(vars(o)) for o in owners]
    tracer = perf_trace.Tracer()
    tracer.install()
    changed = sum(dict(vars(o)) != b for o, b in zip(owners, before))
    assert changed >= 14, f"install() patched only {changed} owners"
    tracer.uninstall()
    for owner, b in zip(owners, before):
        assert dict(vars(owner)) == b, f"{owner} not restored"


def check_traced_equals_untraced() -> tuple[dict, dict]:
    scale = workloads.SCALE
    workloads.SCALE = 0.05  # 4.0 sim-s * 0.05 = 0.2 sim-s measured
    try:
        plain = workloads.run_one("small_write", seed=0)
        tracer = perf_trace.Tracer()
        tracer.install()
        try:
            traced = workloads.run_one("small_write", seed=0, tracer=tracer)
        finally:
            tracer.uninstall()
    finally:
        workloads.SCALE = scale
    assert plain["sim"]["sim.events"] == traced["sim"]["sim.events"]
    assert plain["sim"]["op_digests"] == traced["sim"]["op_digests"]
    assert plain["sim"] == traced["sim"], "tracing changed the simulation"
    assert traced["trace"]["spans"] > 1000
    return plain, traced


def check_names(plain: dict, traced: dict) -> None:
    spec = harness.load_spec()
    ok = re.compile(r"[A-Za-z0-9_.-]+")
    declared = {"end_to_end": [m["name"] for m in spec["end_to_end"]],
                "per_layer": [m["name"] for m in spec["per_layer"]]}
    names = declared["end_to_end"] + declared["per_layer"] + [
        w["name"] for w in spec["workloads"]]
    for name in names:
        assert ok.fullmatch(name) and len(name) <= 64, name
    assert len(set(names)) == len(names), "a name is declared twice"
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert "setup_s" in declared["end_to_end"]

    plain["rerun"] = False
    emitted = {"end_to_end": harness.end_to_end([plain])[0],
               "per_layer": harness.per_layer([plain], traced)}
    for half, metrics in emitted.items():
        extra = set(metrics) - set(declared[half])
        missing = set(declared[half]) - set(metrics)
        assert not extra and not missing, (
            f"{half}: emitted but undeclared {sorted(extra)}, "
            f"declared but not emitted {sorted(missing)}")
        for name, value in metrics.items():
            assert isinstance(value, (int, float)), (name, value)
    assert set(harness.HOST_CLOCK) <= set(declared["end_to_end"])


def main() -> int:
    check_self_time_arithmetic()
    print("selftest: self-time arithmetic ok")
    check_install_restores()
    print("selftest: wrappers restore every attribute ok")
    plain, traced = check_traced_equals_untraced()
    print("selftest: traced == untraced on a 0.2 sim-s small_write ok")
    check_names(plain, traced)
    print("selftest: names match BENCHMARK.json ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
