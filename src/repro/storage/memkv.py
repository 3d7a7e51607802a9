"""Local key-value store attached to each replica.

The paper attaches "a persistent storage space ... such as LevelDB and
Redis" (§4.1) to every server. Writes to this store are **not** fsynced
on the request path — durability comes from the WAL committed through
(RS-)Paxos (§4.4) — so the store itself is a plain in-memory map here.

Followers hold *coded* values, not full ones; such entries are tagged
``incomplete`` (§4.4 "the follower ... also write to its local storage,
but tag this value as incomplete"). Deletes are writes of a tombstone
(§4.4: "Delete operations are treated as write(key, NULL)").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator


@dataclass(slots=True)
class StoredValue:
    """One versioned entry.

    Attributes
    ----------
    value:
        Full value bytes (bytes-like; None in modeled mode) for
        complete entries; a coded share (or None) for incomplete ones.
    size:
        Modeled size in bytes of what this replica actually stores.
    complete:
        True when ``value`` is the full client value.
    version:
        Version of the write that produced this entry; lets recovery
        find "the most recent write to that key" (§4.4). Under static
        sharding this is the bare Paxos instance id; under dynamic
        sharding it is ``(map_version << VERSION_BITS) | instance``
        (see :mod:`repro.kvstore.shard`), so writes routed under a
        newer shard map supersede older-era writes numerically.
    tombstone:
        True when the entry represents a delete.
    group:
        Paxos group whose log chose the write (-1 = unknown, the
        pre-dynamic-sharding default). Recovery and share serving must
        use this rather than re-deriving the owner from the current
        shard map, which may have moved the key since.
    """

    value: Any
    size: int
    complete: bool
    version: int
    tombstone: bool = False
    group: int = -1


class LocalStore:
    """Ordered in-memory KV map with completeness tags."""

    def __init__(self, name: str = "store"):
        self.name = name
        self._data: dict[str, StoredValue] = {}

    def put(
        self,
        key: str,
        value: Any,
        size: int,
        version: int,
        complete: bool = True,
        tombstone: bool = False,
        group: int = -1,
    ) -> None:
        """Insert/overwrite ``key`` unless a newer version is present.

        Version monotonicity makes replayed/duplicated applies
        idempotent: Paxos instances apply in commit order, but recovery
        may replay a prefix.
        """
        existing = self._data.get(key)
        if existing is not None and existing.version > version:
            return
        self._data[key] = StoredValue(
            value=value, size=size, complete=complete,
            version=version, tombstone=tombstone, group=group,
        )

    def delete(self, key: str, version: int, group: int = -1) -> None:
        """Record a tombstone (delete = write(key, NULL), §4.4)."""
        self.put(key, None, 0, version, complete=True, tombstone=True,
                 group=group)

    def get(self, key: str) -> StoredValue | None:
        """The current entry, or None if never written or deleted."""
        sv = self._data.get(key)
        if sv is None or sv.tombstone:
            return None
        return sv

    def get_entry(self, key: str) -> StoredValue | None:
        """Like :meth:`get` but exposes tombstones (for recovery)."""
        return self._data.get(key)

    def keys(self) -> Iterator[str]:
        return iter(sorted(self._data))

    def incomplete_keys(self) -> list[str]:
        """Keys whose local copy cannot serve a read without recovery."""
        return sorted(
            k for k, v in self._data.items() if not v.complete and not v.tombstone
        )

    def stored_bytes(self) -> int:
        """Total modeled bytes held — the paper's storage-cost metric."""
        return sum(v.size for v in self._data.values())

    def clear(self) -> None:
        """Volatile wipe (crash). The WAL is the durable source."""
        self._data.clear()

    def export_state(self) -> dict[str, StoredValue]:
        """Copy of the full map for durable checkpointing. Entries are
        copied (StoredValue is mutated in place by scrub repair), so
        the checkpoint blob stays frozen while serving continues."""
        return {
            k: StoredValue(v.value, v.size, v.complete, v.version,
                           v.tombstone, v.group)
            for k, v in self._data.items()
        }

    def install_state(self, data: dict[str, StoredValue]) -> None:
        """Inverse of :meth:`export_state` (recovery): install copies
        so a later crash can reload the same blob uncorrupted."""
        self._data = {
            k: StoredValue(v.value, v.size, v.complete, v.version,
                           v.tombstone, getattr(v, "group", -1))
            for k, v in data.items()
        }

    def __len__(self) -> int:
        return sum(1 for v in self._data.values() if not v.tombstone)

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None
