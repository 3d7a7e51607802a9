"""Simulated durable storage: disks, write-ahead log, local KV store.

Public API:

- :class:`DiskSpec`, :class:`Disk` and the :data:`HDD` / :data:`SSD`
  presets matching the paper's two EBS volume classes (§6.1).
- :class:`WriteAheadLog`, :class:`WalRecord` — durable log with group
  commit, per-record CRC32 checksums and torn-tail recovery; the
  acceptor's persistence substrate.
- :class:`LocalStore`, :class:`StoredValue` — the per-replica local KV
  map (LevelDB stand-in) with incomplete-value tags (§4.4).
- :class:`CheckpointStore`, :class:`CheckpointRecord` — atomic durable
  state checkpoints, the WAL's compaction partner; :func:`retirable`
  names what a retirement floor drops.
"""

from .checkpoint import CheckpointRecord, CheckpointStore, retirable
from .disk import HDD, SSD, Disk, DiskSpec
from .memkv import LocalStore, StoredValue
from .wal import (
    RECORD_HEADER_BYTES,
    WalRecord,
    WalView,
    WriteAheadLog,
    record_checksum,
)

__all__ = [
    "CheckpointRecord",
    "CheckpointStore",
    "Disk",
    "DiskSpec",
    "HDD",
    "LocalStore",
    "RECORD_HEADER_BYTES",
    "SSD",
    "StoredValue",
    "WalRecord",
    "WalView",
    "WriteAheadLog",
    "retirable",
    "record_checksum",
]
