"""Linearizability checking for per-key register histories.

Wing–Gong style search with memoization: try every order in which the
recorded operations could have taken effect atomically, subject to the
real-time constraint that an operation cannot linearize before its
invocation nor after another operation that responded before it was
invoked. The sharded KV store gives independent registers per key, so
the (NP-hard in general) check decomposes into many small per-key
searches — each key sees tens to a few hundred operations per chaos
episode. A search state is a bitmask over the key's ops in invoke order
plus the register value, so memoizing a state costs a few machine words,
not a set of op ids. A read that may go next and returns the current
value is linearized at once, without branching: it changes no state,
and removing it only lifts the real-time bound on the others, so it
cannot turn a legal history into an illegal one or back. Concurrent
reads of one value then cost one state, not one per subset of them.

Operation semantics (register model, §4.4):

- A **committed write** (put/delete acknowledged) must take effect
  exactly once, within its [invoke, response] window.
- A **failed or still-pending write** is a *maybe*: the request may
  have committed after the client gave up (a retry can land long after
  the last response the client saw), so it may take effect at any time
  ≥ its invocation — or never. Both branches are explored, except
  for a maybe-write whose value no completed read returned: it is
  dropped before the search. Had it taken effect, no read fell between
  it and the next write (that read would have returned its value), so
  removing it from a linearization leaves a linearization; and a
  linearization without it is one with it omitted. A maybe-delete
  (value ``None``) stays when some read returned ``None``.
- A **completed read** (fast or consistent) must observe, within its
  window, exactly the register value its reply carried (the returned
  size; ``None`` for NotFound).
- A **failed read** constrains nothing and is dropped.
- **Snapshot reads** are excluded by the caller: they are documented to
  serve possibly-stale local state and make no linearizability claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .history import HistoryRecorder, OpRecord

_INF = float("inf")


@dataclass(frozen=True, slots=True)
class LinOp:
    """One operation in checker form."""

    hid: int
    kind: str                # "write" | "read"
    value: int | None        # written value / observed value
    invoke: float
    response: float          # +inf for maybe-writes
    optional: bool           # may be skipped entirely (maybe-write)


@dataclass(slots=True)
class LinResult:
    ok: bool
    key: str
    checked_ops: int
    states_explored: int
    # On failure: the ops of the offending key, for the repro bundle.
    failure_ops: list[dict] = field(default_factory=list)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


def _to_lin_ops(records: Iterable[OpRecord]) -> list[LinOp] | None:
    """Translate raw records to checker ops; None if key is trivially OK
    (no completed reads and no committed writes — nothing observable)."""
    ops: list[LinOp] = []
    interesting = False
    for rec in records:
        if rec.op == "get":
            if rec.mode == "snapshot":
                continue
            if not rec.completed or not rec.ok:
                continue  # failed read: no constraint
            ops.append(LinOp(rec.hid, "read", rec.output, rec.invoke,
                             rec.response, optional=False))
            interesting = True
        else:
            value = rec.value if rec.op == "put" else None
            committed = rec.completed and rec.ok
            if committed:
                ops.append(LinOp(rec.hid, "write", value, rec.invoke,
                                 rec.response, optional=False))
                interesting = True
            else:
                # Failed or pending write: maybe took effect, any time
                # after invoke.
                ops.append(LinOp(rec.hid, "write", value, rec.invoke,
                                 _INF, optional=True))
    if not interesting:
        return None
    observed = {op.value for op in ops if op.kind == "read"}
    return [op for op in ops if not op.optional or op.value in observed]


def check_key(
    key: str,
    records: Iterable[OpRecord],
    initial: int | None = None,
    max_states: int = 2_000_000,
) -> LinResult:
    """Check one key's history against a linearizable register.

    Raises ``RuntimeError`` if the search exceeds ``max_states``
    (pathological histories; never observed at chaos-episode sizes).
    """
    records = list(records)
    lin_ops = _to_lin_ops(records)
    if lin_ops is None:
        return LinResult(ok=True, key=key, checked_ops=0, states_explored=0)
    n = len(lin_ops)
    lin_ops.sort(key=lambda op: op.invoke)
    mandatory = sum(1 << j for j, op in enumerate(lin_ops) if not op.optional)

    def enabled(done: int) -> list[int]:
        """Ops that may linearize next: not done, and invoked no later
        than the earliest response among the ops not done (real-time
        order). Ops are in invoke order, so the scan stops at the first
        op invoked after the earliest response seen so far — no later
        op can respond earlier than it is invoked."""
        first = []
        min_response = _INF
        free = ~done  # its set bits are the ops not done, lowest first
        while (j := (free & -free).bit_length() - 1) < n:
            if lin_ops[j].invoke > min_response:
                break
            first.append(j)
            min_response = min(min_response, lin_ops[j].response)
            free &= free - 1
        return [j for j in first if lin_ops[j].invoke <= min_response]

    # State: (bitmask of the ops linearized so far, register value). An
    # explicit stack keeps deep histories from hitting the recursion
    # limit.
    seen: set[tuple[int, int | None]] = set()
    stack: list[tuple[int, int | None]] = [(0, initial)]
    explored = 0

    while stack:
        done, value = stack.pop()
        # Reads that may go next and return the current value go at once
        # (sound: see the module docstring), until none is left.
        while True:
            ready = enabled(done)
            reads = sum(1 << j for j in ready if lin_ops[j].kind == "read"
                        and lin_ops[j].value == value)
            if not reads:
                break
            done |= reads
        if (done, value) in seen:
            continue
        seen.add((done, value))
        explored += 1
        if explored > max_states:
            raise RuntimeError(
                f"linearizability search for key {key!r} exceeded "
                f"{max_states} states"
            )
        if done & mandatory == mandatory:
            # Every mandatory op linearized; leftover maybe-writes
            # simply never took effect.
            return LinResult(ok=True, key=key, checked_ops=n,
                             states_explored=explored)
        for j in ready:
            # Reads left here would observe a different value.
            if lin_ops[j].kind == "write":
                stack.append((done | 1 << j, lin_ops[j].value))

    ordered = sorted(
        (r for r in records), key=lambda r: r.invoke
    )
    return LinResult(
        ok=False, key=key, checked_ops=n, states_explored=explored,
        failure_ops=[r.to_jsonable() for r in ordered],
    )


def check_history(
    history: HistoryRecorder, initial: int | None = None
) -> list[LinResult]:
    """Check every key; returns the per-key failures (empty = linearizable)."""
    failures = []
    for key, records in sorted(history.per_key().items()):
        result = check_key(key, records, initial=initial)
        if not result.ok:
            failures.append(result)
    return failures
