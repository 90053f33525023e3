"""ARIES-style restart recovery over the unified WAL.

Given a data directory left behind by a crashed engine
(:meth:`~repro.engine.engine.StorageEngine.simulate_crash`, or any kill at
an arbitrary point), :func:`recover_engine` brings up a fresh engine whose
state is byte-equivalent to the committed prefix of the crashed run.
:func:`recover_sharded_engine` opens a sharded engine once and recovers
each shard in place. Both open their engine first and then run the same
steps on it (on each shard of a sharded one):

1. **Analysis** — walk the frames the engine's log read from every WAL
   segment when it opened (a torn tail already cut off there),
   collecting the table-registration order, the last checkpoint (with its
   dirty-page table), per-transaction outcomes, and the loser set
   (transactions with records but neither COMMIT nor ABORT).
2. **Torn-page scan** — checksum-verify every ``*.ibd`` tablespace. Files
   are then moved aside to ``<name>.ibd.crashed`` (kept as forensic
   residue, not deleted — the paper's point is precisely that this data
   survives) and the engine is rebuilt from the log.
3. **Redo** — "repeat history": apply every REDO *and* CLR frame in log
   order through the tables, idempotently. CLRs written by live
   rollbacks replay the compensation too, so aborted transactions come out
   reverted without restart-side special cases.
4. **Undo** — walk losers' UNDO before-images in reverse log order and
   revert them (insert→delete, update→restore, delete→reinsert). The
   engine's first-writer-wins MVCC guarantees no committed transaction
   wrote a loser's key afterwards, so before-image undo is exact.
5. **Checkpoint** — the recovered engine checkpoints, making the rebuilt
   tablespaces durable and starting a fresh WAL epoch *after* the replayed
   history (the LSN continues from the crashed run's end; no LSN is ever
   reused).

Why always a full rebuild (no "replay since checkpoint onto existing
files" fast path): the WAL is *logical* (row-level) while write-back is
*physical* and in-place. After a crash, on-disk headers hold checkpoint-old
roots while some post-checkpoint page images may already be written — a
walkable-but-wrong tree that checksums clean. Physical redo would need
page-level logging; repeating logical history from LSN 0 is sound and is
what this module does.

This module imports the engine lazily inside functions —
:mod:`repro.wal` stays import-free of :mod:`repro.engine` at module level.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..errors import PageError, RecoveryError, StorageError, WalError
from .records import CheckpointBody, RedoRecord, UndoRecord, WalFrame, WalRecordType

_CRASHED_SUFFIX = ".crashed"


@dataclass
class RecoveryReport:
    """What one restart recovery saw and did (the ``recovery_report``
    snapshot artifact — recovery itself is a leakage event: it decodes
    and re-applies every plaintext row image in the log)."""

    data_dir: str
    segments_scanned: int = 0
    records_scanned: int = 0
    truncated_tail: Optional[str] = None
    last_checkpoint_lsn: int = -1
    dirty_pages_at_checkpoint: Tuple[Tuple[str, int, int], ...] = ()
    torn_pages: Tuple[Tuple[str, int], ...] = ()
    unreadable_tablespaces: Tuple[str, ...] = ()
    tables: Tuple[str, ...] = ()
    committed_txns: Tuple[int, ...] = ()
    aborted_txns: Tuple[int, ...] = ()
    loser_txns: Tuple[int, ...] = ()
    clr_records: int = 0
    redo_applied: int = 0
    undo_applied: int = 0
    end_lsn: int = 0
    shard_reports: List["RecoveryReport"] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "data_dir": self.data_dir,
            "segments_scanned": self.segments_scanned,
            "records_scanned": self.records_scanned,
            "truncated_tail": self.truncated_tail or "",
            "last_checkpoint_lsn": self.last_checkpoint_lsn,
            "dirty_pages_at_checkpoint": list(self.dirty_pages_at_checkpoint),
            "torn_pages": list(self.torn_pages),
            "unreadable_tablespaces": list(self.unreadable_tablespaces),
            "tables": list(self.tables),
            "committed_txns": list(self.committed_txns),
            "aborted_txns": list(self.aborted_txns),
            "loser_txns": list(self.loser_txns),
            "clr_records": self.clr_records,
            "redo_applied": self.redo_applied,
            "undo_applied": self.undo_applied,
            "end_lsn": self.end_lsn,
            "shard_reports": [r.to_dict() for r in self.shard_reports],
        }


@dataclass
class _Analysis:
    """Outcome of the analysis pass over all WAL frames."""

    frames: List[WalFrame]
    tables: List[str]
    checkpoint: Optional[CheckpointBody]
    committed: Set[int]
    aborted: Set[int]
    losers: Set[int]
    clr_count: int
    #: Highest transaction id appearing anywhere in the log — the recovered
    #: engine must issue ids strictly above this, or a second crash would
    #: classify a reused id by the *old* run's COMMIT/ABORT records.
    max_txn_id: int


def _analyze(frames: List[WalFrame]) -> _Analysis:
    """ARIES pass 1: classify transactions and find the last checkpoint."""
    tables: List[str] = []
    checkpoint: Optional[CheckpointBody] = None
    seen: Set[int] = set()
    committed: Set[int] = set()
    aborted: Set[int] = set()
    clr_count = 0
    for frame in frames:
        if frame.rtype is WalRecordType.TABLE_REGISTER:
            name = frame.decode()
            if name not in tables:
                tables.append(name)
        elif frame.rtype is WalRecordType.CHECKPOINT:
            checkpoint = frame.decode()
        elif frame.rtype is WalRecordType.TXN_BEGIN:
            seen.add(frame.decode())
        elif frame.rtype is WalRecordType.TXN_COMMIT:
            committed.add(frame.decode())
        elif frame.rtype is WalRecordType.TXN_ABORT:
            aborted.add(frame.decode())
        elif frame.rtype in (WalRecordType.REDO, WalRecordType.UNDO):
            seen.add(frame.decode().txn_id)
        elif frame.rtype is WalRecordType.CLR:
            clr_count += 1
            seen.add(frame.decode().txn_id)
    losers = seen - committed - aborted
    all_ids = seen | committed | aborted
    if checkpoint is not None:
        all_ids |= set(checkpoint.active_txns)
    return _Analysis(
        frames=frames,
        tables=tables,
        checkpoint=checkpoint,
        committed=committed,
        aborted=aborted,
        losers=losers,
        clr_count=clr_count,
        max_txn_id=max(all_ids, default=0),
    )


def _scan_damage(
    data_dir: str, tables: List[str]
) -> Tuple[List[Tuple[str, int]], List[str]]:
    """Checksum-verify every tablespace; classify torn pages / dead files.

    Torn-page detection rides the existing 32-byte page headers: a page
    whose CRC does not match its payload was half-written at the crash.
    """
    from ..storage.paged.page_file import PageFile

    torn: List[Tuple[str, int]] = []
    unreadable: List[str] = []
    for name in tables:
        path = os.path.join(data_dir, f"{name}.ibd")
        if not os.path.exists(path):
            continue
        try:
            pf = PageFile(path, name)
        except (PageError, StorageError, OSError):
            unreadable.append(name)
            continue
        try:
            # Page 0 (the FSP header) was already checksum-read by the
            # constructor; a torn header lands in ``unreadable`` above.
            for page_id in range(1, pf.num_pages):
                try:
                    pf.read_page(page_id)
                except PageError:
                    torn.append((name, page_id))
        finally:
            pf.close()
    return torn, unreadable


def _move_aside(data_dir: str, tables: List[str]) -> None:
    """Park the crashed tablespace files as ``*.ibd.crashed`` residue."""
    for name in tables:
        path = os.path.join(data_dir, f"{name}.ibd")
        if os.path.exists(path):
            os.replace(path, path + _CRASHED_SUFFIX)


def _apply_redo(table, record: RedoRecord) -> None:
    """Idempotent 'repeat history' application of one redo/CLR record."""
    existing, _ = table.get(record.key)
    if record.op in ("insert", "update"):
        if existing is None:
            table.insert(record.key, record.after_image)
        else:
            table.update(record.key, record.after_image)
    elif record.op == "delete":
        if existing is not None:
            table.delete(record.key)


def _apply_undo(table, record: UndoRecord) -> bool:
    """Revert one loser change using its before-image; True if it acted."""
    existing, _ = table.get(record.key)
    if record.op == "insert":
        if existing is not None:
            table.delete(record.key)
            return True
        return False
    if record.op == "update":
        if existing is not None:
            table.update(record.key, record.before_image)
        else:
            table.insert(record.key, record.before_image)
        return True
    if record.op == "delete":
        if existing is None:
            table.insert(record.key, record.before_image)
            return True
        return False
    return False  # pragma: no cover - ops validated at record creation


def _open(engine_class, *args, **kwargs):
    """Open an engine; a log it refuses to resume fails the recovery."""
    try:
        return engine_class(*args, **kwargs)
    except WalError as exc:
        raise RecoveryError(str(exc)) from exc


def _recover(engine) -> RecoveryReport:
    """Recover one freshly opened :class:`~repro.engine.engine.StorageEngine`
    in place from the log its WAL resumed; returns the report.

    The analysis reads the frames the engine's log read when it opened, so
    each segment is read once per recovery.
    """
    data_dir = engine.data_dir
    scans = engine.wal.take_resumed_scans()
    analysis = _analyze([frame for scan in scans for frame in scan.frames])
    report = RecoveryReport(data_dir=data_dir)
    report.segments_scanned = len(scans)
    report.records_scanned = len(analysis.frames)
    report.truncated_tail = engine.wal.truncated_tail
    report.tables = tuple(analysis.tables)
    report.committed_txns = tuple(sorted(analysis.committed))
    report.aborted_txns = tuple(sorted(analysis.aborted))
    report.loser_txns = tuple(sorted(analysis.losers))
    report.clr_records = analysis.clr_count
    if analysis.checkpoint is not None:
        report.last_checkpoint_lsn = analysis.checkpoint.checkpoint_lsn
        report.dirty_pages_at_checkpoint = analysis.checkpoint.dirty_pages

    torn, unreadable = _scan_damage(data_dir, analysis.tables)
    report.torn_pages = tuple(torn)
    report.unreadable_tablespaces = tuple(unreadable)
    _move_aside(data_dir, analysis.tables)

    # Repeat history under replay: re-registration and replayed changes
    # must not append fresh WAL (the log already records them); the
    # resumed LogManager carries the crashed run's frames forward.
    with engine.wal.replaying():
        for name in analysis.tables:
            engine.register_table(name)
        tables = {name: engine.btree(name) for name in analysis.tables}
        for frame in analysis.frames:
            if frame.rtype in (WalRecordType.REDO, WalRecordType.CLR):
                record = frame.decode()
                table = tables.get(record.table)
                if table is None:
                    continue
                _apply_redo(table, record)
                report.redo_applied += 1
        for frame in reversed(analysis.frames):
            if frame.rtype is not WalRecordType.UNDO:
                continue
            record = frame.decode()
            if record.txn_id not in analysis.losers:
                continue
            table = tables.get(record.table)
            if table is None:
                continue
            if _apply_undo(table, record):
                report.undo_applied += 1
    # Restore the txn-id high-water mark: the resumed WAL still carries the
    # crashed run's frames, so reissuing one of its ids would let a later
    # recovery treat the new incarnation as already committed (or aborted).
    engine._next_txn_id = max(engine._next_txn_id, analysis.max_txn_id + 1)
    engine.checkpoint()
    report.end_lsn = engine.lsn.current
    engine.last_recovery_report = report
    return report


def recover_engine(data_dir: str, **engine_kwargs):
    """Recover a crashed engine from ``data_dir``; returns a fresh,
    open :class:`~repro.engine.engine.StorageEngine` with
    ``last_recovery_report`` attached.

    ``engine_kwargs`` are forwarded to the new engine (capacities,
    ``wal_sync`` ...); ``data_dir`` is fixed by recovery.

    Note: rows loaded via :meth:`StorageEngine.bulk_load` bypass the WAL by
    design (a loader fast path, as in real engines) and are therefore not
    recoverable by log replay — load, then checkpoint, before relying on
    crash recovery.
    """
    from ..engine.engine import StorageEngine

    engine = _open(StorageEngine, data_dir=data_dir, **engine_kwargs)
    _recover(engine)
    return engine


def recover_sharded_engine(data_dir: str, num_shards: int, **engine_kwargs):
    """Open a :class:`~repro.server.sharding.ShardedEngine` on ``data_dir``
    once and recover each shard in place.

    Each shard has its own WAL, so each recovers on its own; then every
    table any shard knows is registered on the shards that lack it. The
    combined report is :func:`~repro.server.sharding.merge_recovery_reports`
    of the shards' reports.
    """
    from ..server.sharding import ShardedEngine, merge_recovery_reports, shard_dir

    for i in range(num_shards):
        path = shard_dir(data_dir, i)
        if not os.path.isdir(path):
            raise RecoveryError(f"missing shard directory {path}")
    sharded = _open(ShardedEngine, num_shards, data_dir=data_dir, **engine_kwargs)
    shard_reports = [_recover(shard) for shard in sharded.shards]
    all_tables: List[str] = []
    for r in shard_reports:
        for name in r.tables:
            if name not in all_tables:
                all_tables.append(name)
    for shard in sharded.shards:
        with shard.wal.replaying():
            for name in all_tables:
                if not shard.has_table(name):
                    shard.register_table(name)
    # Txn-id high-water mark, coordinator and shards alike: the facade
    # allocates global ids, but per-shard paths (log_ddl, direct begin)
    # draw on the shard-local counters too.
    next_txn_id = max(shard._next_txn_id for shard in sharded.shards)
    for engine in (sharded, *sharded.shards):
        engine._next_txn_id = next_txn_id
    sharded.last_recovery_report = merge_recovery_reports(
        data_dir, all_tables, shard_reports
    )
    return sharded
