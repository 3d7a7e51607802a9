"""Server policy: every tunable of a :class:`~repro.kvstore.KVServer`.

One flat, frozen :class:`ServerConfig` is the only place a server knob
is spelled. ``build_cluster(..., knob=value)`` folds its keyword
arguments into one (``dataclasses.replace``), ``ChaosSpec.server``
carries one, and the server reads ``self.cfg.<field>`` — adding a knob
is one field here, its validation in ``__post_init__`` and one README
row (``tests/kvstore/test_config.py`` checks the table against
``dataclasses.fields``). Cluster shape (server/client/group counts,
link, disk, seed, bootstrap ranges) and client settings stay parameters
of ``build_cluster``: they describe the deployment, not a replica.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import LeaseConfig


@dataclass(frozen=True, slots=True)
class ServerConfig:
    """Validated, immutable replica policy. Defaults reproduce the
    paper's setup: every optional subsystem off, batching off."""

    # -- timing ----------------------------------------------------------
    lease_config: LeaseConfig = LeaseConfig()
    # Paxos phase RPC timeout, and how long a pre-vote round waits.
    rpc_timeout: float = 0.25
    # WAL group-commit flush window (0 = flush every append).
    group_commit_window: float = 0.002

    # -- admission (overload protection + tenant isolation) --------------
    # The leader bounds its proposal pipeline: up to
    # ``max_inflight_proposals`` Paxos instances in flight (× the batch
    # size in commands), waiting requests in per-tenant queues of at
    # most ``max_queued_requests`` drained by weighted deficit round
    # robin, anything beyond shed with Busy(retry_after). ``False`` is
    # the overload gate's unprotected baseline.
    admission_control: bool = True
    max_inflight_proposals: int = 32
    max_queued_requests: int = 128
    # DRR weight per tenant (a mapping, or its items); tenants not
    # listed — the untagged "" included — weigh 1.
    tenant_weights: tuple[tuple[str, float], ...] = ()

    # -- leader-side command batching -------------------------------------
    # Every admitted write and consistent-read marker is parked per group
    # in a batch that closes by count, framed bytes or the linger timer,
    # whichever first; one batch is ONE Paxos value, and a batch of one
    # is the plain command (no frame). At 1 each command closes alone.
    batch_max_commands: int = 1
    batch_max_bytes: int = 256 * 1024
    batch_linger: float = 0.001

    # -- background work (0 = off) ----------------------------------------
    # Re-verify WAL checksums and repair rotten shares from peers.
    scrub_interval: float = 0.0
    # Persist applied state + acceptor metadata, then truncate the WAL.
    checkpoint_interval: float = 0.0

    # -- self-healing membership (§4.6, §6.1) -----------------------------
    # Evict members the accrual detector holds suspect past the grace.
    auto_reconfigure: bool = False
    # Also probe evicted slots and re-admit rebuilt spares.
    auto_heal: bool = False

    # -- dynamic sharding --------------------------------------------------
    # Route by a versioned range map replicated through a config group
    # (live split/merge) instead of the static crc32 hash.
    dynamic_shards: bool = False
    # Per-group cap on in-flight proposals (0 = uncapped): a hot shard
    # sheds (Busy) instead of monopolizing the server. Checked on every
    # admitted write, batched or not.
    max_group_pipeline: int = 0
    # Cadence of the leader's load-driven splitter/merger (0 = off).
    rebalance_interval: float = 0.0

    def __post_init__(self) -> None:
        weights = tuple(sorted(dict(self.tenant_weights).items()))
        object.__setattr__(self, "tenant_weights", weights)
        for tenant, w in weights:
            if w <= 0:
                raise ValueError(
                    f"tenant_weights: weight must be > 0: {tenant!r}={w}")
        for name in ("batch_max_commands", "batch_max_bytes",
                     "max_inflight_proposals"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1: {getattr(self, name)}")
        for name in ("max_queued_requests", "max_group_pipeline",
                     "batch_linger", "group_commit_window", "scrub_interval",
                     "checkpoint_interval", "rebalance_interval"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0: {getattr(self, name)}")
        if self.rpc_timeout <= 0:
            raise ValueError(f"rpc_timeout must be > 0: {self.rpc_timeout}")
        if self.rebalance_interval > 0 and not self.dynamic_shards:
            raise ValueError(
                "rebalance_interval does nothing without dynamic_shards")
