"""Invocation/response history capture (Jepsen-style).

A :class:`HistoryRecorder` plugs into :class:`repro.kvstore.client.KVClient`
via its ``history`` attribute and records every client operation as an
invocation (when the client starts trying) and a response (when the
client gives up or gets an answer). The recorder is deliberately dumb —
all interpretation (register semantics, what a failed write means) lives
in :mod:`repro.check.linearize`.

The register model: the KV store maps each key to an opaque blob, of
which the simulation models only the *size*. A workload that writes a
unique size per (key, write) therefore produces a distinguishable
register value per write, and a read's returned size identifies exactly
which write it observed. ``NotFound`` reads observe ``None`` (the
initial/deleted state); deletes are writes of ``None`` (§4.4: "Delete =
write(key, NULL)").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..kvstore.messages import ClientGet, ClientPut, GetOk, NotFound


@dataclass(slots=True)
class OpRecord:
    """One client operation from invocation to response.

    ``output`` is the observed register value for completed reads (the
    returned size, or ``None`` for NotFound) and is meaningless for
    writes. ``ok=None`` (with ``response=None``) marks an operation
    still pending when the episode ended.
    """

    hid: int
    client: str
    op: str                 # "put" | "get" | "delete"
    key: str
    value: int | None       # register value written (puts; None = delete)
    mode: str | None        # read mode for gets, else None
    invoke: float
    response: float | None = None
    ok: bool | None = None
    output: int | None = None
    observed_nothing: bool = False  # completed read that saw NotFound

    @property
    def completed(self) -> bool:
        return self.ok is not None

    def to_jsonable(self) -> dict:
        return {
            "hid": self.hid, "client": self.client, "op": self.op,
            "key": self.key, "value": self.value, "mode": self.mode,
            "invoke": self.invoke, "response": self.response,
            "ok": self.ok, "output": self.output,
            "observed_nothing": self.observed_nothing,
        }


def read_availability(recorder: "HistoryRecorder") -> tuple[int, int]:
    """``(reads_attempted, reads_ok)`` over a recorded history.

    A read counts as *ok* when it observed the register — a value or a
    definite NotFound. Reads that exhausted their retry budget or were
    still pending at the end of the episode count against availability.
    """
    attempted = ok = 0
    for rec in recorder.ops:
        if rec.op != "get":
            continue
        attempted += 1
        if rec.ok:
            ok += 1
    return attempted, ok


def committed_value_bytes(recorder: "HistoryRecorder") -> int:
    """Value bytes of the puts a client saw acknowledged: what a
    storage cost per value byte divides by."""
    return sum(rec.value for rec in recorder.ops if rec.op == "put" and rec.ok)


class HistoryRecorder:
    """Collects :class:`OpRecord`s from any number of clients."""

    def __init__(self) -> None:
        self.ops: list[OpRecord] = []

    # -- KVClient hook protocol -----------------------------------------

    def invoke(self, client: str, op: str, msg, t: float) -> int:
        hid = len(self.ops)
        value = None
        mode = None
        if isinstance(msg, ClientPut):
            value = msg.size
        elif isinstance(msg, ClientGet):
            mode = msg.mode
        self.ops.append(
            OpRecord(hid=hid, client=client, op=op, key=msg.key,
                     value=value, mode=mode, invoke=t)
        )
        return hid

    def complete(self, hid: int, ok: bool, reply, t: float) -> None:
        rec = self.ops[hid]
        rec.response = t
        if rec.op == "get":
            if isinstance(reply, GetOk):
                rec.ok = True
                rec.output = reply.size
            elif isinstance(reply, NotFound):
                # Key absence is a successful read of the empty register
                # (KVClient reports it as ok=False for convenience, but
                # it is a real observation and must linearize).
                rec.ok = True
                rec.output = None
                rec.observed_nothing = True
            else:
                rec.ok = False  # timed out / retries exhausted
        else:
            rec.ok = ok

    # -- views -----------------------------------------------------------

    def per_key(self) -> dict[str, list[OpRecord]]:
        keys: dict[str, list[OpRecord]] = {}
        for rec in self.ops:
            keys.setdefault(rec.key, []).append(rec)
        return keys

    def to_jsonable(self) -> list[dict]:
        return [rec.to_jsonable() for rec in self.ops]
