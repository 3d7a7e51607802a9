"""Chaos explorer tests: schedule generation, episodes, and teeth.

The teeth test is the important one: a checker that never fires is
worthless, so we verify a deliberately weakened quorum config
(Q1 + Q2 = N + k - 1) *is* caught.
"""

import json
from dataclasses import replace

import pytest

import repro.chaos
from repro.chaos import (
    EPISODE_SERVER,
    SHORT_SPEC,
    ChaosRunner,
    ChaosSpec,
    ScheduleSpec,
    generate_schedule,
)
from repro.core import QuorumSystem, UnsafeProtocolConfig
from repro.erasure import CodingConfig
from repro.kvstore import KVServer
from repro.sim import Simulator

SERVERS = [f"S{i}" for i in range(5)]

#: Even shorter than SHORT_SPEC: unit-test scale (~0.5 s wall clock).
TINY_SPEC = ChaosSpec(
    schedule=ScheduleSpec(fault_window=4.0, mean_gap=0.8),
    settle=3.0,
    num_clients=2,
    num_keys=4,
)


def gen(seed=0, spec=None, max_crashed=1):
    sim = Simulator(seed=seed)
    return generate_schedule(
        sim.rng.stream("chaos.schedule"),
        spec or ScheduleSpec(),
        SERVERS,
        max_crashed=max_crashed,
    )


class TestScheduleGenerator:
    def test_deterministic_per_seed(self):
        assert gen(seed=3) == gen(seed=3)
        assert gen(seed=3) != gen(seed=4)

    def test_sorted_and_inside_window(self):
        spec = ScheduleSpec()
        events = gen(seed=1, spec=spec)
        assert events == sorted(events, key=lambda e: (e.t, e.kind))
        assert all(spec.warmup <= e.t <= spec.end for e in events)

    def test_every_fault_is_paired_with_repair(self):
        # torn-write is a crash variant, so it shares the recover pool;
        # a wipe pairs with its rejoin; bit-rot and scrub are unpaired
        # by design (the background scrubber is bit-rot's repair path).
        for seed in range(10):
            events = gen(seed=seed)
            counts = {}
            for e in events:
                counts[e.kind] = counts.get(e.kind, 0) + 1
            down = counts.get("crash", 0) + counts.get("torn-write", 0)
            assert down == counts.get("recover", 0)
            assert counts.get("wipe", 0) == counts.get("rejoin", 0)
            # Every partition-ish episode pairs with a scoped heal;
            # flaps carry their final heal inside the one event.
            cuts = (
                counts.get("partition", 0)
                + counts.get("partial-partition", 0)
                + counts.get("asym-partition", 0)
            )
            assert cuts == counts.get("heal", 0)
            assert counts.get("slow-disk", 0) == counts.get("fix-disk", 0)
            assert counts.get("slow-node", 0) == counts.get("fix-node", 0)

    def test_respects_max_crashed(self):
        for seed in range(10):
            events = gen(seed=seed, max_crashed=2)
            down = set()
            order = sorted(
                events, key=lambda e: (e.t, e.kind not in ("recover", "rejoin"))
            )
            for e in order:
                if e.kind in ("crash", "wipe"):
                    down.add(e.arg)
                    assert len(down) <= 2
                elif e.kind == "torn-write":
                    host, frac = e.arg
                    down.add(host)
                    assert len(down) <= 2
                    assert 0.0 <= frac <= 1.0
                elif e.kind in ("recover", "rejoin"):
                    down.discard(e.arg)

    def test_storage_kinds_appear(self):
        kinds = set()
        for seed in range(10):
            kinds |= {e.kind for e in gen(seed=seed)}
        assert {"torn-write", "bit-rot", "scrub"} <= kinds

    def test_storage_weights_zero_disables(self):
        spec = ScheduleSpec(storage_weights=(0.0, 0.0, 0.0))
        for seed in range(5):
            kinds = {e.kind for e in gen(seed=seed, spec=spec)}
            assert not kinds & {"torn-write", "bit-rot", "scrub"}

    def test_wipe_kind_appears(self):
        kinds = set()
        for seed in range(10):
            kinds |= {e.kind for e in gen(seed=seed)}
        assert {"wipe", "rejoin"} <= kinds

    def test_wipe_weight_zero_disables(self):
        spec = ScheduleSpec(wipe_weight=0.0)
        for seed in range(5):
            kinds = {e.kind for e in gen(seed=seed, spec=spec)}
            assert not kinds & {"wipe", "rejoin"}

    def test_overload_and_slow_node_kinds_appear(self):
        kinds = set()
        for seed in range(10):
            kinds |= {e.kind for e in gen(seed=seed)}
        assert {"overload", "slow-node", "fix-node"} <= kinds

    def test_overload_weight_zero_disables(self):
        spec = ScheduleSpec(overload_weight=0.0)
        for seed in range(5):
            kinds = {e.kind for e in gen(seed=seed, spec=spec)}
            assert "overload" not in kinds

    def test_slow_node_weight_zero_disables(self):
        spec = ScheduleSpec(slow_node_weight=0.0)
        for seed in range(5):
            kinds = {e.kind for e in gen(seed=seed, spec=spec)}
            assert not kinds & {"slow-node", "fix-node"}

    def test_zero_weight_new_kinds_preserve_rng_draws(self):
        # A zero-weighted kind must consume *no* RNG: with the weight
        # at zero, every other parameter of the disabled kind is inert
        # and the rest of the schedule's draws line up event-for-event.
        baseline = ScheduleSpec(overload_weight=0.0, slow_node_weight=0.0)
        perturbed = ScheduleSpec(
            overload_weight=0.0, slow_node_weight=0.0,
            overload_dur=(9.0, 9.0), overload_factor=(99.0, 99.0),
            node_slow_factor=(99.0, 99.0), node_slow_dur=(9.0, 9.0),
        )
        for seed in range(5):
            assert gen(seed=seed, spec=baseline) == \
                gen(seed=seed, spec=perturbed)

    def test_slow_node_never_stacks_on_slow_disk_or_itself(self):
        # At most one gray episode per host at a time, and never on a
        # host whose disk is already slowed — overlapping slowdowns
        # would repair each other on fix.
        for seed in range(10):
            events = sorted(gen(seed=seed), key=lambda e: e.t)
            slowed = set()
            gray = set()
            for e in events:
                if e.kind == "slow-disk":
                    host, _ = e.arg
                    assert host not in gray
                    slowed.add(host)
                elif e.kind == "fix-disk":
                    slowed.discard(e.arg)
                elif e.kind == "slow-node":
                    host, factor = e.arg
                    assert host not in gray and host not in slowed
                    assert factor >= 1.0
                    gray.add(host)
                elif e.kind == "fix-node":
                    assert e.arg in gray
                    gray.discard(e.arg)


class TestEpisodes:
    @pytest.mark.parametrize("protocol", ["rs-paxos", "classic"])
    def test_clean_episode(self, protocol):
        runner = ChaosRunner(protocol=protocol, spec=TINY_SPEC,
                             bundle_dir=None)
        result, _ = runner.run_episode(0)
        assert result.ok, (result.violations, result.lin_failures)
        assert result.ops_total > 0
        assert result.ops_completed == result.ops_total
        assert result.schedule  # faults actually happened

    def test_episode_is_reproducible(self):
        runner = ChaosRunner(protocol="rs-paxos", spec=TINY_SPEC,
                             bundle_dir=None)
        a, _ = runner.run_episode(1)
        b, _ = runner.run_episode(1)
        assert a.to_jsonable() == b.to_jsonable()

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            ChaosRunner(protocol="raft")

    def test_tenant_tagged_episode(self):
        # Tenant tags + DRR weights must survive a faulty episode and
        # surface per-tenant shed/backoff accounting in the result.
        spec = ChaosSpec(
            schedule=ScheduleSpec(fault_window=4.0, mean_gap=0.8),
            settle=3.0, num_clients=2, num_keys=4,
            tenants=("gold", "bronze"),
            server=replace(EPISODE_SERVER,
                           tenant_weights={"gold": 3.0, "bronze": 1.0}),
        )
        runner = ChaosRunner(protocol="rs-paxos", spec=spec,
                             bundle_dir=None)
        result, _ = runner.run_episode(0)
        assert result.ok, (result.violations, result.lin_failures)
        assert set(result.busy_by_tenant) == {"gold", "bronze"}
        for agg in result.busy_by_tenant.values():
            assert agg["busy_count"] >= 0
        js = result.to_jsonable()
        assert js["shed_by_tenant"] == result.shed_by_tenant
        assert js["busy_by_tenant"] == result.busy_by_tenant
        # Round-robin tag assignment is part of the episode's identity.
        again, _ = runner.run_episode(0)
        assert again.to_jsonable() == js

    def test_wipe_episode_rebuilds_clean(self):
        # A schedule biased hard toward wipes: the wiped server must
        # rebuild (snapshot + tail) and the episode still come out
        # linearizable with every invariant — including bounded-wal —
        # intact.
        spec = ChaosSpec(
            schedule=ScheduleSpec(
                fault_window=5.0, mean_gap=0.8,
                weights=(1.0, 1.0, 1.0, 1.0),
                storage_weights=(0.5, 0.5, 0.5),
                wipe_weight=8.0,
            ),
            settle=4.0, num_clients=2, num_keys=4,
        )
        runner = ChaosRunner(protocol="rs-paxos", spec=spec, bundle_dir=None)
        saw_wipe = False
        for seed in range(6):
            result, _ = runner.run_episode(seed)
            assert result.ok, (result.violations, result.lin_failures)
            if any(e.kind == "wipe" for e in result.schedule):
                saw_wipe = True
                assert result.rebuild_bytes > 0
                break
        assert saw_wipe, "no seed in range produced a wipe"


class TestTeeth:
    """A weakened config (Q1 + Q2 >= N + k - 1 only) must be caught."""

    UNSAFE = UnsafeProtocolConfig(QuorumSystem(5, 3, 4), CodingConfig(3, 5))

    def test_every_episode_flags_the_config(self):
        runner = ChaosRunner(config=self.UNSAFE, protocol="unsafe",
                             spec=TINY_SPEC, bundle_dir=None)
        result, _ = runner.run_episode(0)
        assert not result.ok
        assert any(v["kind"] == "config" for v in result.violations)

    def test_chaos_produces_a_live_violation(self):
        # Beyond the static probe: some seed makes the weakening bite
        # at runtime (split-brain chooses two values, or a chosen value
        # becomes undecodable). Deterministic sim => stable outcome.
        # Storage faults are disabled to keep the schedule crash- and
        # partition-dense — that is the mix the weakened quorums are
        # vulnerable to.
        spec = ChaosSpec(
            schedule=ScheduleSpec(
                fault_window=6.0, mean_gap=1.0,
                storage_weights=(0.0, 0.0, 0.0),
                overload_weight=0.0, slow_node_weight=0.0,
            ),
            settle=4.0,
        )
        runner = ChaosRunner(config=self.UNSAFE, protocol="unsafe",
                             spec=spec, bundle_dir=None)
        kinds = set()
        for seed in range(8):
            result, _ = runner.run_episode(seed)
            kinds |= {v["kind"] for v in result.violations}
            if kinds - {"config"}:
                break
        assert kinds - {"config"}, "weakened quorums never caused harm"


class TestOpenFreeChoice:
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1(a)")
    def test_forgotten_votes_seed_4(self, monkeypatch):
        """A new leader free-chooses over a value that may be chosen.

        With no decoded value kept on a chosen record (catch-up installs
        and snapshot serving stop caching too), the rs-paxos full-spec
        episode 4 decides instance 179 twice: a value, then
        ``noop.179``. (It was instance 150 until a missing-value poll
        stopped once the apply cursor passed its instance, which re-timed
        the episode.) The caches only hide the bug by re-timing the
        episode. An XPASS without a fix to the free choice means the
        reproducer was re-timed away: find a new seed under the same
        patch."""
        monkeypatch.setattr(KVServer, "_cache_decoded",
                            lambda self, node, instance, value: None)
        result, _ = ChaosRunner(protocol="rs-paxos",
                                bundle_dir=None).run_episode(4)
        assert result.ok, result.violations


class TestReproBundle:
    def test_failure_writes_bundle(self, tmp_path):
        runner = ChaosRunner(
            config=TestTeeth.UNSAFE, protocol="unsafe",
            spec=TINY_SPEC, bundle_dir=str(tmp_path),
        )
        results, failures = runner.run(1)
        assert len(failures) == 1
        path = failures[0].bundle_path
        assert path is not None
        with open(path) as fh:
            bundle = json.load(fh)
        assert bundle["seed"] == 0
        assert bundle["protocol"] == "unsafe"
        assert bundle["schedule"]
        assert "run_episode(0)" in bundle["replay"]
        assert bundle["config"] == {"n": 5, "q_r": 3, "q_w": 4, "x": 3}

    def test_bundle_replays_its_own_episode(self, tmp_path):
        """The ``replay`` line rebuilds the runner the bundle came from —
        spec included — so it reruns *that* episode, not the default
        one; and the recorded spec is complete."""
        spec = replace(SHORT_SPEC, num_keys=5, server=replace(
            SHORT_SPEC.server, batch_max_commands=4, batch_linger=0.0005,
            tenant_weights={"gold": 2.0}))
        runner = ChaosRunner(protocol="rs-paxos", spec=spec,
                             bundle_dir=str(tmp_path))
        result, _ = runner.run_episode(3)
        with open(runner._write_bundle(result)) as fh:
            bundle = json.load(fh)
        assert bundle["spec"]["server"]["batch_max_commands"] == 4
        assert bundle["spec"]["server"]["tenant_weights"] == [["gold", 2.0]]
        assert bundle["spec"]["schedule"]["fault_window"] == 6.0
        assert len(bundle["spec"]["schedule"]) > 20   # not a hand-picked few
        replayed, _ = eval(bundle["replay"], vars(repro.chaos))
        assert replayed.to_jsonable() == result.to_jsonable()
        default, _ = ChaosRunner(protocol="rs-paxos").run_episode(3)
        assert default.to_jsonable() != result.to_jsonable()
