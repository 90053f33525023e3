"""Unified write-ahead log: one durable, LSN-ordered record of everything.

Paper §3's forensic attacks work because the redo/undo/binlog streams are
byte-level, LSN-ordered records of every mutation. Historically this repo
kept those streams as three disjoint in-memory paths; this package unifies
them behind a single :class:`~repro.wal.log_manager.LogManager` that owns
the monotone LSN, appends checksummed length-prefixed records to fixed-size,
zero-filled on-disk segment files, and exposes group-flush with an explicit
sync boundary.

The WAL is deliberately a *new snapshot-leakage surface* (registered in
``leakage_spec.json`` and the artifact registry): unlike the circular
redo/undo windows computed from it, on-disk segments retain every record
ever flushed — the substrate BigFoot (Pei & Shmatikov) attacks even when
encrypted.

Layering: this package imports nothing from :mod:`repro.engine`; the engine
imports *us*. :mod:`repro.wal.recovery` reaches back into the engine lazily
(function-level imports) and is therefore not imported here — use
``from repro.wal.recovery import recover_engine`` explicitly.
"""

from .lsn import LsnCounter
from .log_manager import DEFAULT_CAPACITY, DEFAULT_SEGMENT_BYTES, LogManager, LogWindow
from .records import (
    CheckpointBody,
    RedoRecord,
    UndoRecord,
    WalFrame,
    WalRecordType,
    pack_frame,
    parse_frames,
)

__all__ = [
    "CheckpointBody",
    "DEFAULT_CAPACITY",
    "DEFAULT_SEGMENT_BYTES",
    "LogManager",
    "LogWindow",
    "LsnCounter",
    "RedoRecord",
    "UndoRecord",
    "WalFrame",
    "WalRecordType",
    "pack_frame",
    "parse_frames",
]
