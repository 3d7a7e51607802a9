"""Key sharding (§4.2) — static hash maps and versioned range maps.

The paper statically configures the key→group mapping ("the number of
shards are statically configured ... defined by a deterministic mapping
function").  :class:`ShardMap` keeps that mode bit-for-bit —
``ShardMap(n)`` hashes keys with crc32 — and adds a second, *versioned
range* mode for dynamic sharding: the keyspace is partitioned into
contiguous ``[lo, hi)`` string ranges, each owned by exactly one Paxos
group, and every mutation (split / merge / migration commit) returns a
**new** map with a strictly larger ``version``.  Range maps are
immutable values: the server replicates them through a distinguished
config group and swaps its local reference on apply, so two replicas
holding maps of equal version hold *identical* maps.

Store versions under dynamic sharding encode the map version ("era") of
the write alongside the Paxos instance::

    version = (mapv << VERSION_BITS) | instance

Instances never approach 2**48, so numeric order equals (era, instance)
lexicographic order, and static mode (``mapv == 0`` always) degenerates
to ``version == instance`` — the original scheme, unchanged.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right

#: Bits of a store version reserved for the Paxos instance; the shard
#: map era occupies the bits above. 48 bits ≫ any simulated log length.
VERSION_BITS = 48
_INSTANCE_MASK = (1 << VERSION_BITS) - 1


def encode_version(mapv: int, instance: int) -> int:
    """Store version of a write: era ``mapv`` at Paxos ``instance``."""
    return (mapv << VERSION_BITS) | instance


def instance_of(version: int) -> int:
    """The Paxos instance a store version was chosen at."""
    return version & _INSTANCE_MASK


def named_instances(entries, groups: int) -> list[set[int]]:
    """Per group, the Paxos instances that store ``entries`` name as a
    key's version; an entry whose group was not recorded (-1) names its
    instance in every group."""
    named: list[set[int]] = [set() for _ in range(groups)]
    anywhere: set[int] = set()
    for entry in entries:
        inst = instance_of(entry.version)
        (anywhere if entry.group < 0 else named[entry.group]).add(inst)
    return [group | anywhere for group in named]


def era_of(version: int) -> int:
    """The shard-map version (era) a store version was written under."""
    return version >> VERSION_BITS


class ShardMap:
    """Deterministic key -> group mapping (hash or versioned ranges).

    Hash mode (``ShardMap(n)``): crc32(key) % n, version 0 — the
    original static mapping, used everywhere dynamic sharding is off.

    Range mode (:meth:`single_range` / :meth:`from_boundaries`):
    ``ranges`` is a sorted tuple of ``(lo, hi, group)`` with ``lo=""``
    first, ``hi is None`` last (+inf), each ``hi`` equal to the next
    ``lo``, and every owner distinct — a total, non-overlapping
    partition of the keyspace.  ``migrating`` marks an in-flight
    ownership transfer ``(lo, hi, src, dst)``: routing already points
    at ``dst`` (the map's ranges are post-move), the flag only tells a
    leader there is copy work to finish and fence writes to mirror.
    """

    __slots__ = ("num_groups", "version", "ranges", "migrating", "_los")

    def __init__(
        self,
        num_groups: int,
        *,
        version: int = 0,
        ranges: tuple[tuple[str, str | None, int], ...] | None = None,
        migrating: tuple[str, str | None, int, int] | None = None,
    ):
        if num_groups < 1:
            raise ValueError("need at least one group")
        self.num_groups = num_groups
        self.version = version
        self.ranges = ranges
        self.migrating = migrating
        if ranges is not None:
            self._validate()
            self._los = [lo for lo, _hi, _g in ranges]
        else:
            self._los = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def single_range(cls, num_groups: int, group: int = 0) -> "ShardMap":
        """Range map where one group owns the whole keyspace and the
        other ``num_groups - 1`` groups are spares for future splits."""
        return cls(num_groups, version=0, ranges=(("", None, group),))

    @classmethod
    def from_boundaries(
        cls, num_groups: int, boundaries: tuple[str, ...] | list[str],
    ) -> "ShardMap":
        """Range map cut at ``boundaries`` (sorted, non-empty keys),
        ranges assigned to groups 0, 1, ... in order."""
        bounds = tuple(boundaries)
        if len(bounds) + 1 > num_groups:
            raise ValueError("more ranges than groups")
        los = ("",) + bounds
        his = bounds + (None,)
        ranges = tuple(
            (lo, hi, g) for g, (lo, hi) in enumerate(zip(los, his))
        )
        return cls(num_groups, version=0, ranges=ranges)

    # -- validation --------------------------------------------------------

    def _validate(self) -> None:
        r = self.ranges
        if not r:
            raise ValueError("range map needs at least one range")
        if r[0][0] != "":
            raise ValueError("first range must start at the empty key")
        if r[-1][1] is not None:
            raise ValueError("last range must extend to +inf")
        owners = set()
        for i, (lo, hi, g) in enumerate(r):
            if not (0 <= g < self.num_groups):
                raise ValueError(f"range owner {g} outside group pool")
            if g in owners:
                raise ValueError(f"group {g} owns two ranges")
            owners.add(g)
            if hi is not None and not (lo < hi):
                raise ValueError(f"empty/inverted range [{lo!r}, {hi!r})")
            if i + 1 < len(r) and r[i + 1][0] != hi:
                raise ValueError(
                    f"gap/overlap between [{lo!r}, {hi!r}) and "
                    f"[{r[i + 1][0]!r}, ...)"
                )
        if self.migrating is not None:
            _lo, _hi, src, dst = self.migrating
            if not (0 <= src < self.num_groups and 0 <= dst < self.num_groups):
                raise ValueError("migrating src/dst outside group pool")

    # -- routing -----------------------------------------------------------

    @property
    def is_range_map(self) -> bool:
        return self.ranges is not None

    def group_of(self, key: str) -> int:
        """The Paxos group responsible for ``key``.

        crc32 is used in hash mode for stability across runs and
        processes (Python's ``hash`` is salted per process).
        """
        if self.ranges is None:
            return zlib.crc32(key.encode("utf-8")) % self.num_groups
        return self.ranges[bisect_right(self._los, key) - 1][2]

    def active_groups(self) -> list[int]:
        """Groups currently owning a range (hash mode: all groups)."""
        if self.ranges is None:
            return list(range(self.num_groups))
        return [g for _lo, _hi, g in self.ranges]

    def spare_groups(self) -> list[int]:
        """Pool groups owning no range — split targets."""
        if self.ranges is None:
            return []
        owned = {g for _lo, _hi, g in self.ranges}
        return [g for g in range(self.num_groups) if g not in owned]

    def range_of(self, group: int) -> tuple[str, str | None] | None:
        """``(lo, hi)`` owned by ``group``, or None if it owns nothing."""
        if self.ranges is None:
            return None
        for lo, hi, g in self.ranges:
            if g == group:
                return (lo, hi)
        return None

    # -- mutations (return new maps) ---------------------------------------

    def begin_split(self, boundary: str, dst_group: int) -> "ShardMap":
        """Split the range containing ``boundary`` at it; the upper
        half ``[boundary, hi)`` moves to spare ``dst_group``.  The
        returned map has ``version + 1`` and a ``migrating`` marker the
        leader clears via :meth:`commit_migration` once the copy is
        done."""
        if self.ranges is None:
            raise ValueError("cannot split a hash map")
        if self.migrating is not None:
            raise ValueError("a migration is already in flight")
        if dst_group in self.active_groups():
            raise ValueError(f"group {dst_group} already owns a range")
        if not (0 <= dst_group < self.num_groups):
            raise ValueError(f"group {dst_group} outside pool")
        if not boundary:
            raise ValueError("split boundary must be a non-empty key")
        idx = bisect_right(self._los, boundary) - 1
        lo, hi, src = self.ranges[idx]
        if boundary == lo or (hi is not None and boundary >= hi):
            raise ValueError(f"boundary {boundary!r} not inside [{lo!r}, {hi!r})")
        new_ranges = (
            self.ranges[:idx]
            + ((lo, boundary, src), (boundary, hi, dst_group))
            + self.ranges[idx + 1:]
        )
        return ShardMap(
            self.num_groups, version=self.version + 1, ranges=new_ranges,
            migrating=(boundary, hi, src, dst_group),
        )

    def begin_merge(self, group: int) -> "ShardMap":
        """Merge ``group``'s range into its range-adjacent neighbour
        (left if one exists, else right); ``group`` returns to the
        spare pool.  Version + 1 plus a ``migrating`` marker, exactly
        like a split."""
        if self.ranges is None:
            raise ValueError("cannot merge a hash map")
        if self.migrating is not None:
            raise ValueError("a migration is already in flight")
        if len(self.ranges) < 2:
            raise ValueError("nothing to merge into")
        idx = next(
            (i for i, (_lo, _hi, g) in enumerate(self.ranges) if g == group),
            None,
        )
        if idx is None:
            raise ValueError(f"group {group} owns no range")
        lo, hi, _src = self.ranges[idx]
        if idx > 0:
            nlo, _nhi, neighbour = self.ranges[idx - 1]
            merged = (nlo, hi, neighbour)
            new_ranges = (
                self.ranges[:idx - 1] + (merged,) + self.ranges[idx + 1:]
            )
        else:
            _nlo, nhi, neighbour = self.ranges[idx + 1]
            merged = (lo, nhi, neighbour)
            new_ranges = (merged,) + self.ranges[idx + 2:]
        return ShardMap(
            self.num_groups, version=self.version + 1, ranges=new_ranges,
            migrating=(lo, hi, group, neighbour),
        )

    def commit_migration(self) -> "ShardMap":
        """Clear the migrating marker: the copy is complete and acked.
        Version + 1 so the commit is itself an ordered map change."""
        if self.migrating is None:
            raise ValueError("no migration in flight")
        return ShardMap(
            self.num_groups, version=self.version + 1, ranges=self.ranges,
            migrating=None,
        )

    # -- wire / value semantics --------------------------------------------

    def to_wire(self) -> dict:
        """Plain-data form carried inside a replicated ShardCmd."""
        return {
            "num_groups": self.num_groups,
            "version": self.version,
            "ranges": self.ranges,
            "migrating": self.migrating,
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "ShardMap":
        return cls(
            wire["num_groups"], version=wire["version"],
            ranges=wire["ranges"], migrating=wire["migrating"],
        )

    def _key(self) -> tuple:
        return (self.num_groups, self.version, self.ranges, self.migrating)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ShardMap) and other._key() == self._key()

    def __hash__(self) -> int:
        # __eq__ without __hash__ would leave instances unhashable-
        # inconsistent (identity hashing on a value type); hash the
        # same tuple equality compares.
        return hash(self._key())

    def __repr__(self) -> str:
        if self.ranges is None:
            return f"ShardMap(hash, n={self.num_groups})"
        parts = ", ".join(
            f"[{lo!r},{'+inf' if hi is None else repr(hi)})->g{g}"
            for lo, hi, g in self.ranges
        )
        mig = f", migrating={self.migrating}" if self.migrating else ""
        return f"ShardMap(v{self.version}, {parts}{mig})"
