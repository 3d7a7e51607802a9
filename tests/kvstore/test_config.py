"""``ServerConfig``: the one validation point, and the one knob list.

Also checks README "Tuning knobs" against ``dataclasses.fields`` — the
tables cannot drift from the config again.
"""

import inspect
import re
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import pytest

from repro.core import LeaseConfig, rs_paxos
from repro.kvstore import KVServer, ServerConfig, build_cluster


@pytest.mark.parametrize("knobs,named", [
    # silently ignored before
    ({"rebalance_interval": 0.5}, ("rebalance_interval", "dynamic_shards")),
    # clamped by max(...) before
    ({"batch_max_commands": 0}, ("batch_max_commands",)),
    ({"batch_linger": -0.001}, ("batch_linger",)),
    # a pipeline that can admit nothing
    ({"max_inflight_proposals": 0}, ("max_inflight_proposals",)),
    ({"max_queued_requests": -1}, ("max_queued_requests",)),
    ({"batch_max_bytes": 0}, ("batch_max_bytes",)),
    ({"max_group_pipeline": -1}, ("max_group_pipeline",)),
    ({"scrub_interval": -1.0}, ("scrub_interval",)),
    ({"checkpoint_interval": -1.0}, ("checkpoint_interval",)),
    ({"rebalance_interval": -1.0, "dynamic_shards": True},
     ("rebalance_interval",)),
    ({"group_commit_window": -0.002}, ("group_commit_window",)),
    ({"rpc_timeout": 0.0}, ("rpc_timeout",)),
    ({"tenant_weights": {"gold": 0.0}}, ("tenant_weights", "gold")),
    ({"tenant_weights": {"gold": -2.0}}, ("tenant_weights", "gold")),
])
def test_illegal_values_raise_naming_the_fields(knobs, named):
    with pytest.raises(ValueError) as exc:
        ServerConfig(**knobs)
    for name in named:
        assert name in str(exc.value)
    with pytest.raises(ValueError):     # the same check, through the builder
        build_cluster(rs_paxos(5, 1), **knobs)


def test_legal_combinations_still_build():
    ServerConfig(dynamic_shards=True, rebalance_interval=0.5,
                 max_group_pipeline=4)
    ServerConfig(batch_max_commands=32, batch_linger=0.0,
                 max_queued_requests=0)
    # The per-group cap is checked on every write, batched or not.
    ServerConfig(max_group_pipeline=4, batch_max_commands=8)


def test_shard_ranges_need_dynamic_shards():
    with pytest.raises(ValueError, match="shard_ranges.*dynamic_shards"):
        build_cluster(rs_paxos(5, 1), shard_ranges=("m",))
    build_cluster(rs_paxos(5, 1), shard_ranges=("m",), dynamic_shards=True)


def test_unknown_knob_is_a_type_error_naming_it():
    with pytest.raises(TypeError, match="batch_max_comands"):
        build_cluster(rs_paxos(5, 1), batch_max_comands=4)
    # The knobs this PR deleted are unknown now, not silently accepted.
    for gone in ("codec_bw", "initial_leader", "suspicion_threshold",
                 "evict_grace", "split_threshold", "merge_threshold",
                 "client_max_backoff"):
        with pytest.raises(TypeError, match=gone):
            build_cluster(rs_paxos(5, 1), **{gone: 1})


def test_frozen():
    cfg = ServerConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.batch_max_commands = 4
    with pytest.raises((AttributeError, TypeError)):
        cfg.brand_new = 1               # slotted: no stray attributes either
    assert hash(cfg) == hash(ServerConfig())


def test_tenant_weights_are_canonical():
    a = ServerConfig(tenant_weights={"b": 1.0, "a": 3.0})
    b = ServerConfig(tenant_weights=(("a", 3.0), ("b", 1.0)))
    assert a == b and a.tenant_weights == (("a", 3.0), ("b", 1.0))
    assert eval(repr(a)) == a


def test_flat_kwargs_and_server_object_build_equal_configs():
    flat = build_cluster(rs_paxos(5, 1), batch_max_commands=4)
    obj = build_cluster(rs_paxos(5, 1),
                        server=ServerConfig(batch_max_commands=4))
    both = build_cluster(rs_paxos(5, 1), server=ServerConfig(scrub_interval=1),
                         batch_max_commands=4)
    assert {s.cfg for s in flat.servers} == {s.cfg for s in obj.servers} \
        == {ServerConfig(batch_max_commands=4)}
    assert both.servers[0].cfg == ServerConfig(scrub_interval=1,
                                               batch_max_commands=4)
    # ... and the components were built from it.
    assert flat.servers[0].admission.budget == 32 * 4
    assert obj.servers[0].wal.group_commit_window == 0.002


def test_server_constructor_takes_the_config_not_the_knobs():
    params = inspect.signature(KVServer.__init__).parameters
    assert len(params) - 1 <= 12        # minus self; 36 before
    assert not set(params) & {f.name for f in fields(ServerConfig)}


# -- README "Tuning knobs" ---------------------------------------------------

#: Rows of the knob tables that are parameters of ``build_cluster``
#: itself (cluster shape, clients), not server policy.
CLUSTER_ROWS = {"client_tenants", "client_timeout", "shard_ranges"}


def readme_knob_rows() -> dict[str, str]:
    """knob -> default cell, from both tables of the section."""
    text = (Path(__file__).parents[2] / "README.md").read_text()
    section = text.split("## Tuning knobs")[1].split("\nReads are shaped")[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*?) \|", section, flags=re.M)
    assert len(rows) == len(dict(rows)), "duplicate knob row"
    return dict(rows)


def test_readme_has_one_row_per_field_and_no_others():
    rows = readme_knob_rows()
    names = {f.name for f in fields(ServerConfig)}
    assert names - set(rows) == set(), "ServerConfig field without a row"
    assert set(rows) - names - CLUSTER_ROWS == set(), "row for a deleted knob"
    assert CLUSTER_ROWS <= set(inspect.signature(build_cluster).parameters)


def test_readme_defaults_match():
    rows = readme_knob_rows()
    for f in fields(ServerConfig):
        shown = re.match(r"`([^`]*)`", rows[f.name]).group(1)
        assert eval(shown, {"LeaseConfig": LeaseConfig}) == f.default, f.name
