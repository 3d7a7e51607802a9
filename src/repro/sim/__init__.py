"""Deterministic discrete-event simulation kernel.

Public API:

- :class:`Simulator` — the event loop / virtual clock.
- :class:`Event` — cancellable handle returned by scheduling calls.
- :class:`FifoResource` — serialized rate-limited server (NIC, disk).
- :class:`RngRegistry` — named deterministic random substreams.
- :class:`MetricSet`, :class:`LatencyRecorder`, :class:`ThroughputMeter`,
  :class:`Counter`, :class:`Gauge`, :class:`Histogram` — measurement
  primitives.
- :class:`Tracer` — structured event trace for tests and debugging.
"""

from .loop import Event, SimulationError, Simulator
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    LatencyRecorder,
    MetricSet,
    ThroughputMeter,
)
from .resources import FifoResource
from .rng import RngRegistry
from .trace import NULL_TRACER, Tracer, TraceRecord

__all__ = [
    "Counter",
    "Gauge",
    "Event",
    "FifoResource",
    "Histogram",
    "LatencyRecorder",
    "MetricSet",
    "NULL_TRACER",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "ThroughputMeter",
    "Tracer",
    "TraceRecord",
]
