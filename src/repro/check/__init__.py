"""Correctness tooling: history recording, linearizability, invariants.

The ``repro.check`` package validates what the benchmarks only measure:
that the erasure-coded replicated store actually behaves like a
linearizable KV register under faults, and that the replicated state
keeps the paper's safety invariants (unique choice per instance,
decodability of chosen values, Q1 + Q2 >= N + k).

Used standalone in tests and by :mod:`repro.chaos` for randomized
whole-system exploration.
"""

from .history import (
    HistoryRecorder,
    OpRecord,
    committed_value_bytes,
    read_availability,
)
from .invariants import (
    Violation,
    check_bounded_wal,
    check_cluster,
    check_config_safety,
    check_decodability,
    check_durable_integrity,
    check_no_starvation,
    check_shard_coverage,
    check_single_lease,
    check_store_agreement,
    check_unique_choice,
    check_view_convergence,
)
from .linearize import LinResult, check_history, check_key

__all__ = [
    "HistoryRecorder",
    "LinResult",
    "OpRecord",
    "Violation",
    "check_bounded_wal",
    "check_cluster",
    "check_config_safety",
    "check_decodability",
    "check_durable_integrity",
    "check_history",
    "check_key",
    "check_no_starvation",
    "check_shard_coverage",
    "check_single_lease",
    "check_store_agreement",
    "check_unique_choice",
    "check_view_convergence",
    "committed_value_bytes",
    "read_availability",
]
