"""The healthy op path leaves nothing for the cyclic collector.

Reference counting frees an object the moment its last reference goes;
only reference *cycles* wait for ``gc``. A per-operation cycle (a
closure that captures itself, a callback that points back at its timer)
therefore costs twice: the objects pile up until the next collection,
and every collection has to walk them. DESIGN.md §4 states the rule —
per-op state lives in a slotted object whose bound methods are the
callbacks — and this test holds the put / get / delete path to it: with
the collector switched off, a few hundred operations must leave zero
unreachable objects behind.

Fault paths (recovery reads, share gathering, elections) are out of
scope; the contract is the steady state.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.core import rs_paxos
from repro.kvstore import build_cluster

OPS_PER_CLIENT = 60  # x 8 clients = 480 measured operations


class _Loop:
    """One closed-loop client: put, lease read, put, consistent read,
    delete, ... — itself built to the rule it checks (slotted state,
    bound-method callbacks), so the driver adds no garbage of its own."""

    __slots__ = ("client", "idx", "left", "step", "done")

    def __init__(self, client, idx: int):
        self.client = client
        self.idx = idx
        self.left = 0
        self.step = 0
        self.done = 0

    def start(self, ops: int) -> None:
        self.left = ops
        self._next()

    def _next(self) -> None:
        if self.left == 0:
            return
        self.left -= 1
        step, self.step = self.step, self.step + 1
        key = f"g{self.idx}-{step % 7}"
        kind = step % 5
        if kind in (0, 2):
            self.client.put(key, 64 + step % 3, on_done=self._on_write)
        elif kind == 1:
            self.client.get(key, mode="fast", on_done=self._on_read)
        elif kind == 3:
            self.client.get(key, mode="consistent", on_done=self._on_read)
        else:
            self.client.delete(key, on_done=self._on_write)

    def _on_write(self, ok: bool) -> None:
        assert ok
        self.done += 1
        self._next()

    def _on_read(self, ok: bool, size: int) -> None:
        self.done += 1
        self._next()


def _census(garbage: list) -> str:
    """What the unreachable objects are, most common first, closures by
    ``__qualname__`` so the offending function is named."""
    kinds: Counter = Counter()
    for obj in garbage:
        name = type(obj).__name__
        qual = getattr(obj, "__qualname__", None)
        if name == "cell":
            try:
                inner = obj.cell_contents
                qual = "-> " + getattr(inner, "__qualname__",
                                       type(inner).__name__)
            except ValueError:
                qual = "-> <empty>"
        kinds[f"{name} {qual}" if qual else name] += 1
    return "\n".join(f"{n:6d}  {kind}" for kind, n in kinds.most_common(40))


@pytest.mark.parametrize("batch", [1, 32])
def test_steady_state_ops_leave_no_cyclic_garbage(batch):
    cluster = build_cluster(
        rs_paxos(5, 1), num_clients=8, num_groups=4, seed=11,
        batch_max_commands=batch, batch_linger=0.0005,
    )
    cluster.start()
    cluster.run(until=1.0)
    assert cluster.leader() is not None
    loops = [_Loop(cl, i) for i, cl in enumerate(cluster.clients)]

    def run_ops(n: int) -> None:
        before = sum(lp.done for lp in loops)
        for lp in loops:
            lp.start(n)
        cluster.run(until=cluster.sim.now + 5.0)
        assert sum(lp.done for lp in loops) - before == n * len(loops)

    run_ops(20)  # warm-up: caches, lazily-built metrics, first batches

    was_enabled = gc.isenabled()
    old_debug = gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        run_ops(OPS_PER_CLIENT)
        gc.set_debug(gc.DEBUG_SAVEALL)
        unreachable = gc.collect()
        census = _census(gc.garbage)
    finally:
        gc.set_debug(old_debug)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert unreachable == 0, (
        f"{unreachable} unreachable objects after "
        f"{OPS_PER_CLIENT * len(loops)} ops at batch={batch}:\n{census}"
    )
