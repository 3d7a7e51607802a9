"""Exactly-once bookkeeping: which client operations a replica has
applied, held as bits.

Pure, like :mod:`repro.kvstore.admission`: an :class:`AppliedOps` knows
``(group, client, op_id)`` identities and nothing of servers, logs or
messages. The server asks it one question per applied command — ``add``
says whether the command is new — and two at the door: ``seen`` for a
retry of a write this group already applied, ``seen_anywhere`` for one
whose key has since migrated to another group.

A client numbers its operations 1, 2, 3, … (``KVClient``), so the ids
one group applies from one client are a dense subset of a short range:
each (group, client) keeps them as one bitmap, a bit per id. An id far
past the end of its bitmap — batch frames carry 64-bit op_ids — goes to
an exact sparse set instead, so memory follows the ids applied, not the
largest id seen. Invariant: a slot's sparse ids all lie outside its
bitmap, so every identity has exactly one home.

Checkpoints and snapshots move :class:`AppliedDelta` values: ``since``
is the live table AND-NOT what the durable checkpoint holds, bitmap by
bitmap and trimmed to the bytes that changed; ``merge`` folds one back
in with an OR. Neither builds a Python object per identity.
"""

from __future__ import annotations

#: How far past the end of its bitmap (in bytes, 8 ids each) an op_id
#: may land and still grow the bitmap to reach it; further out, it is
#: sparse. Clients retry out of order, never thousands of ids ahead.
REACH = 256

_NO_CLIENTS: dict = {}


class AppliedDelta:
    """Identities one table holds beyond another's, immutable: per
    (group, client), the first byte its new bits start at, the bitmap
    bytes from there, and its new sparse ids. ``len`` counts identities
    (a checkpoint charges 8 B each); iteration yields them sorted."""

    __slots__ = ("_slots",)

    def __init__(self, slots: dict[tuple[int, str], tuple[int, bytes, tuple]]
                 | None = None):
        self._slots = slots or {}

    def __len__(self) -> int:
        return sum(int.from_bytes(chunk, "little").bit_count() + len(far)
                   for _first, chunk, far in self._slots.values())

    def __iter__(self):
        for (group, client), (first, chunk, far) in sorted(self._slots.items()):
            bits = [8 * first + i for i in range(8 * len(chunk))
                    if chunk[i >> 3] >> (i & 7) & 1]
            for op_id in sorted(bits + list(far)):
                yield group, client, op_id


class AppliedOps:
    """The applied ``(group, client, op_id)`` identities of one replica."""

    __slots__ = ("_bits", "_far")

    def __init__(self) -> None:
        # group -> client -> bitmap; bit ``i & 7`` of byte ``i >> 3`` is
        # op_id ``i``.
        self._bits: dict[int, dict[str, bytearray]] = {}
        # (group, client) -> the slot's ids beyond its bitmap.
        self._far: dict[tuple[int, str], set[int]] = {}

    def reset(self) -> None:
        """Forget everything (crash: volatile state is gone)."""
        self._bits.clear()
        self._far.clear()

    def add(self, group: int, client: str, op_id: int) -> bool:
        """Record one applied op; False if it already was."""
        try:
            bits = self._bits[group][client]
        except KeyError:
            bits = self._slot(group, client)
        byte, mask = op_id >> 3, 1 << (op_id & 7)
        if 0 <= byte < len(bits):
            if bits[byte] & mask:
                return False
            bits[byte] |= mask
            return True
        far = self._far.get((group, client))
        if far is not None and op_id in far:
            return False
        if 0 <= byte < len(bits) + REACH:
            self._grow(group, client, bits, byte + 1)
            bits[byte] |= mask
        elif far is None:
            self._far[group, client] = {op_id}
        else:
            far.add(op_id)
        return True

    def seen(self, group: int, client: str, op_id: int) -> bool:
        """Has ``group`` applied this client op?"""
        bits = self._bits.get(group, _NO_CLIENTS).get(client)
        if bits is None:
            return False
        byte = op_id >> 3
        if 0 <= byte < len(bits):
            return bits[byte] >> (op_id & 7) & 1 == 1
        far = self._far.get((group, client))
        return far is not None and op_id in far

    def seen_anywhere(self, client: str, op_id: int) -> bool:
        """Has any group applied this client op? (Under dynamic
        sharding a retry may route to another group than the one its
        original committed in: the key migrated in between.)"""
        return any(self.seen(group, client, op_id) for group in self._bits)

    def since(self, held: AppliedOps | None = None,
              group: int | None = None) -> AppliedDelta:
        """What this table holds and ``held`` does not — everything if
        ``held`` is None — optionally of one group only."""
        slots = {}
        for g, clients in self._bits.items():
            if group is not None and g != group:
                continue
            held_clients = (_NO_CLIENTS if held is None
                            else held._bits.get(g, _NO_CLIENTS))
            for client, bits in clients.items():
                far = self._far.get((g, client), ())
                held_bits = held_clients.get(client)
                if held_bits == bits and not far:
                    continue
                new = int.from_bytes(bits, "little")
                if held_bits:
                    new &= ~int.from_bytes(held_bits, "little")
                if held is not None:
                    for op_id in held._far.get((g, client), ()):
                        if 0 <= op_id < 8 * len(bits):
                            new &= ~(1 << op_id)
                    far = [op_id for op_id in far
                           if not held.seen(g, client, op_id)]
                if new or far:
                    first = ((new & -new).bit_length() - 1) >> 3 if new else 0
                    new >>= 8 * first
                    slots[g, client] = (
                        first, new.to_bytes((new.bit_length() + 7) >> 3,
                                            "little"),
                        tuple(sorted(far)))
        return AppliedDelta(slots)

    def merge(self, delta: AppliedDelta) -> None:
        """Fold ``delta`` in: an OR per bitmap."""
        for (group, client), (first, chunk, far) in delta._slots.items():
            if chunk:
                bits = self._slot(group, client)
                end = first + len(chunk)
                if len(bits) < end:
                    self._grow(group, client, bits, end)
                bits[first:end] = (
                    int.from_bytes(bits[first:end], "little")
                    | int.from_bytes(chunk, "little")
                ).to_bytes(len(chunk), "little")
            for op_id in far:
                self.add(group, client, op_id)

    def __len__(self) -> int:
        return len(self.since())

    def __iter__(self):
        return iter(self.since())

    def _slot(self, group: int, client: str) -> bytearray:
        """The (group, client) bitmap, created empty on first use."""
        clients = self._bits.get(group)
        if clients is None:
            clients = self._bits[group] = {}
        bits = clients.get(client)
        if bits is None:
            bits = clients[client] = bytearray()
        return bits

    def _grow(self, group: int, client: str, bits: bytearray,
              size: int) -> None:
        """Extend ``bits`` to ``size`` bytes, and move the sparse ids it
        now reaches into it."""
        bits.extend(bytes(size - len(bits)))
        far = self._far.get((group, client))
        if far:
            reached = [op_id for op_id in far if 0 <= op_id < 8 * size]
            for op_id in reached:
                far.discard(op_id)
                bits[op_id >> 3] |= 1 << (op_id & 7)
            if not far:
                del self._far[group, client]
