"""Randomized fault exploration (Jepsen-style, fully deterministic).

``repro.chaos`` turns the deterministic simulator into a property-based
whole-system stress tool: every episode derives its fault schedule,
workload and network behaviour from a single seed, runs them against a
live KV cluster, and hands the observed history plus the final
replicated state to :mod:`repro.check`. A failing seed replays exactly
and ships as a JSON repro bundle.
"""

from ..core import LeaseConfig
from ..kvstore import ServerConfig
from .runner import (
    EPISODE_SERVER, SHORT_SPEC, ChaosRunner, ChaosSpec, EpisodeResult,
)
from .schedule import ChaosEvent, ScheduleSpec, arm_schedule, generate_schedule

# ServerConfig and LeaseConfig are re-exported so that the ``replay``
# line of a repro bundle evaluates after ``from repro.chaos import *``.
__all__ = [
    "EPISODE_SERVER",
    "SHORT_SPEC",
    "ChaosEvent",
    "ChaosRunner",
    "ChaosSpec",
    "EpisodeResult",
    "LeaseConfig",
    "ScheduleSpec",
    "ServerConfig",
    "arm_schedule",
    "generate_schedule",
]
