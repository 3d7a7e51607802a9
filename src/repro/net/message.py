"""Network message envelope.

The payload is an arbitrary protocol object; the envelope carries the
metadata the simulator needs (addresses and the *modeled* wire size).
Payload bytes are not serialized on the simulated wire — the size field
is what drives bandwidth and disk costs — so multi-megabyte experiments
do not allocate multi-megabyte buffers per message (DESIGN.md §4 rule 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: Fixed per-message header overhead charged on the wire, bytes.
#: Covers framing, addresses, ballot/instance metadata. The paper's RPC
#: is TCP-based; 64 bytes approximates header + protocol metadata.
HEADER_BYTES = 64


@dataclass(slots=True)
class Envelope:
    """One message in flight.

    Attributes
    ----------
    src, dst:
        Host names.
    payload:
        Opaque protocol object delivered to the destination handler.
    size:
        Modeled payload size in bytes (excluding :data:`HEADER_BYTES`).
    msg_id:
        Id unique within one Network (assigned at send), for tracing
        and duplicate bookkeeping; per-network numbering keeps traces
        reproducible across runs in the same process.
    dup:
        True if this delivery is a network-duplicated copy.
    """

    src: str
    dst: str
    payload: Any
    size: int
    msg_id: int = 0
    dup: bool = False
