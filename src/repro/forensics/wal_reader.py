"""Forensic parsing of captured WAL segments.

The unified WAL is the paper's §3 redo/undo surface made *durable*: unlike
the circular redo/undo windows (bounded retention: a restart refills them
from the segments, but only up to their byte capacity), flushed segments
accumulate every record since the engine was created — after-
images, before-images, compensation records, transaction boundaries, and
checkpoints with the dirty-page table. An attacker holding a disk snapshot
walks the frames with nothing but the framing format and the CRC:

* :func:`parse_wal_segments` — every frame, decoded and labelled;
* :func:`reconstruct_wal_history` — the Frühwirt-style modification
  timeline (op, table, key, image) across *all* history, including
  transactions whose circular-log records were long evicted;
* :func:`read_checkpoints` — checkpoint records with their dirty-page
  tables and in-flight transaction ids (what the server was doing at
  each checkpoint instant);
* :func:`read_checkpoint_state` — joins the per-tablespace header
  checkpoint LSNs (the ``checkpoint_lsn`` artifact) with the latest
  logged dirty-page table, exposing exactly which pages were ahead of
  the headers;
* :func:`recovery_exposure` — what a *recovery run itself* reveals: the
  loser transactions, their undone operations, and torn pages name the
  activity in flight at the crash instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..wal.records import WalRecordType, parse_frames


@dataclass(frozen=True)
class ParsedWalRecord:
    """One decoded WAL frame as the attacker's report lists it."""

    segment: str
    offset: int
    lsn: int
    kind: str
    txn_id: Optional[int]
    table: str
    op: str
    key: Optional[int]
    image: bytes


@dataclass(frozen=True)
class CheckpointView:
    """One CHECKPOINT record: the engine's self-portrait at that instant."""

    segment: str
    lsn: int
    checkpoint_lsn: int
    dirty_pages: Tuple[Tuple[str, int, int], ...]
    active_txns: Tuple[int, ...]


def _iter_segment_frames(segments: Dict[str, bytes]):
    for name in sorted(segments):
        frames, _ = parse_frames(segments[name], strict=False)
        for frame in frames:
            yield name, frame


def parse_wal_segments(segments: Dict[str, bytes]) -> List[ParsedWalRecord]:
    """Decode every frame in the captured segments (torn tails tolerated)."""
    out: List[ParsedWalRecord] = []
    for name, frame in _iter_segment_frames(segments):
        kind = frame.rtype.name.lower()
        txn_id: Optional[int] = None
        table, op, key, image = "", "", None, b""
        decoded = frame.decode()
        if frame.rtype in (WalRecordType.REDO, WalRecordType.CLR):
            txn_id = decoded.txn_id
            table, op, key = decoded.table, decoded.op, decoded.key
            image = decoded.after_image
        elif frame.rtype is WalRecordType.UNDO:
            txn_id = decoded.txn_id
            table, op, key = decoded.table, decoded.op, decoded.key
            image = decoded.before_image
        elif frame.rtype in (
            WalRecordType.TXN_BEGIN,
            WalRecordType.TXN_COMMIT,
            WalRecordType.TXN_ABORT,
        ):
            txn_id = decoded
        elif frame.rtype is WalRecordType.TABLE_REGISTER:
            table = decoded
        out.append(
            ParsedWalRecord(
                segment=name,
                offset=frame.offset,
                lsn=frame.lsn,
                kind=kind,
                txn_id=txn_id,
                table=table,
                op=op,
                key=key,
                image=image,
            )
        )
    return out


def reconstruct_wal_history(
    segments: Dict[str, bytes],
) -> List[Tuple[str, str, int, bytes, int, int]]:
    """The modification timeline: ``(op, table, key, after_image, txn, lsn)``
    for every redo + CLR frame, in log order — §3's insert/update/delete
    reconstruction over the full durable history."""
    history = []
    for _, frame in _iter_segment_frames(segments):
        if frame.rtype in (WalRecordType.REDO, WalRecordType.CLR):
            r = frame.decode()
            history.append((r.op, r.table, r.key, r.after_image, r.txn_id, frame.lsn))
    return history


def read_checkpoints(segments: Dict[str, bytes]) -> List[CheckpointView]:
    """Every checkpoint record, oldest first."""
    out = []
    for name, frame in _iter_segment_frames(segments):
        if frame.rtype is WalRecordType.CHECKPOINT:
            body = frame.decode()
            out.append(
                CheckpointView(
                    segment=name,
                    lsn=frame.lsn,
                    checkpoint_lsn=body.checkpoint_lsn,
                    dirty_pages=body.dirty_pages,
                    active_txns=body.active_txns,
                )
            )
    return out


def read_checkpoint_state(
    checkpoint_lsns: Dict[str, int], segments: Dict[str, bytes]
) -> Dict[str, Dict[str, object]]:
    """Join per-tablespace header LSNs with the last logged dirty-page
    table: for each table, its header checkpoint LSN plus the pages that
    were dirty (and their rec-LSNs) at the last checkpoint — the write-back
    lag an attacker can read straight off the disk."""
    checkpoints = read_checkpoints(segments)
    last_dirty: Dict[str, List[Tuple[int, int]]] = {}
    if checkpoints:
        for table, page_id, rec_lsn in checkpoints[-1].dirty_pages:
            last_dirty.setdefault(table, []).append((page_id, rec_lsn))
    out: Dict[str, Dict[str, object]] = {}
    for table, header_lsn in sorted(checkpoint_lsns.items()):
        base = table.split("@", 1)[0]  # sharded names are table@shardN
        out[table] = {
            "header_checkpoint_lsn": header_lsn,
            "dirty_pages_at_last_checkpoint": sorted(
                last_dirty.get(base, []) + last_dirty.get(table, [])
            ),
        }
    return out


def recovery_exposure(report: Dict[str, object]) -> Dict[str, object]:
    """Summarize what a ``recovery_report`` artifact discloses.

    Recovery is itself a forensic event: the loser-transaction set names
    exactly the clients whose work was in flight at the crash, the undo
    count sizes it, and torn pages locate the write the disk was serving.
    """
    return {
        "in_flight_txns": list(report.get("loser_txns", [])),
        "committed_txns": list(report.get("committed_txns", [])),
        "operations_undone": report.get("undo_applied", 0),
        "operations_replayed": report.get("redo_applied", 0),
        "torn_pages": list(report.get("torn_pages", [])),
        "tables": list(report.get("tables", [])),
        "log_span_bytes": report.get("end_lsn", 0),
    }
