"""Reconstructing write history from raw redo/undo log bytes.

Paper §3: "Using standard forensic techniques for reconstructing insert,
update, and delete transactions from these logs [Frühwirt et al.], an
attacker who compromised the disk can reconstruct queries that modified the
database."

The parsers here work from the raw byte images captured by
:func:`repro.snapshot.capture.capture` — the framing is
``lsn(8) || length(4) || record body`` per entry, with record bodies encoded
by :class:`repro.wal.records.RedoRecord` /
:class:`repro.wal.records.UndoRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ForensicsError
from ..storage.record import Row, decode_row
from ..util.serialization import read_uint
from ..wal.records import RedoRecord, UndoRecord


@dataclass(frozen=True)
class ModificationEvent:
    """One reconstructed row modification.

    ``before``/``after`` are the decoded row tuples where the corresponding
    image was present in the logs (undo gives before, redo gives after).
    ``estimated_timestamp`` is filled in by the binlog correlation step.
    """

    lsn: int
    txn_id: int
    table: str
    op: str
    key: int
    before: Optional[Row]
    after: Optional[Row]
    estimated_timestamp: Optional[float] = None


def _walk_log(raw: bytes) -> List[Tuple[int, bytes]]:
    """Split a raw circular-log image into ``(lsn, body)`` entries."""
    entries = []
    offset = 0
    while offset < len(raw):
        try:
            lsn, offset = read_uint(raw, offset, 8)
            length, offset = read_uint(raw, offset, 4)
        except Exception as exc:
            raise ForensicsError(f"corrupt log framing at offset {offset}") from exc
        end = offset + length
        if end > len(raw):
            raise ForensicsError(
                f"truncated log record at offset {offset} "
                f"(declared {length} bytes)"
            )
        entries.append((lsn, raw[offset:end]))
        offset = end
    return entries


def parse_redo_log(raw: bytes) -> List[Tuple[int, RedoRecord]]:
    """Parse a raw redo-log image into ``(lsn, record)`` pairs."""
    out = []
    for lsn, body in _walk_log(raw):
        record, consumed = RedoRecord.from_bytes(body)
        if consumed != len(body):
            raise ForensicsError(
                f"redo record at lsn {lsn} has {len(body) - consumed} "
                f"trailing bytes"
            )
        out.append((lsn, record))
    return out


def parse_undo_log(raw: bytes) -> List[Tuple[int, UndoRecord]]:
    """Parse a raw undo-log image into ``(lsn, record)`` pairs."""
    out = []
    for lsn, body in _walk_log(raw):
        record, consumed = UndoRecord.from_bytes(body)
        if consumed != len(body):
            raise ForensicsError(
                f"undo record at lsn {lsn} has {len(body) - consumed} "
                f"trailing bytes"
            )
        out.append((lsn, record))
    return out


def _decode_image(image: bytes) -> Optional[Row]:
    if not image:
        return None
    row, _ = decode_row(image)
    return row


def reconstruct_modifications(
    redo_raw: Optional[bytes], undo_raw: Optional[bytes]
) -> List[ModificationEvent]:
    """Merge redo after-images and undo before-images into one history.

    Records are joined on ``(txn_id, table, op, key)`` occurrence order —
    the engine writes undo then redo for each change, so the k-th undo match
    pairs with the k-th redo match. Either log alone still yields events
    (with only one image populated), which matters because the two circular
    logs can retain different windows.
    """
    redo = parse_redo_log(redo_raw) if redo_raw else []
    undo = parse_undo_log(undo_raw) if undo_raw else []

    undo_buckets: Dict[Tuple[int, str, str, int], List[Tuple[int, UndoRecord]]] = {}
    for lsn, record in undo:
        slot = (record.txn_id, record.table, record.op, record.key)
        undo_buckets.setdefault(slot, []).append((lsn, record))

    events: List[ModificationEvent] = []
    for lsn, record in redo:
        slot = (record.txn_id, record.table, record.op, record.key)
        bucket = undo_buckets.get(slot)
        before = None
        if bucket:
            _, undo_record = bucket.pop(0)
            before = _decode_image(undo_record.before_image)
        events.append(
            ModificationEvent(
                lsn=lsn,
                txn_id=record.txn_id,
                table=record.table,
                op=record.op,
                key=record.key,
                before=before,
                after=_decode_image(record.after_image),
            )
        )
    # Undo entries whose redo partner has aged out of the (separately
    # circular) redo log still reveal the before-image.
    for bucket in undo_buckets.values():
        for lsn, record in bucket:
            events.append(
                ModificationEvent(
                    lsn=lsn,
                    txn_id=record.txn_id,
                    table=record.table,
                    op=record.op,
                    key=record.key,
                    before=_decode_image(record.before_image),
                    after=None,
                )
            )
    events.sort(key=lambda e: e.lsn)
    return events


def reconstruct_statements(events: List[ModificationEvent]) -> List[str]:
    """Render reconstructed modifications as pseudo-SQL, one per event.

    This is the "reconstruct queries that modified the database" step: the
    attacker cannot recover the original text from these logs (that is the
    binlog's job) but recovers the full semantic content of each write.
    """
    statements = []
    for event in events:
        if event.op == "insert" and event.after is not None:
            values = ", ".join(_render_value(v) for v in event.after)
            statements.append(f"INSERT INTO {event.table} VALUES ({values})")
        elif event.op == "delete":
            statements.append(f"DELETE FROM {event.table} WHERE <key> = {event.key}")
        elif event.op == "update":
            if event.after is not None:
                values = ", ".join(_render_value(v) for v in event.after)
                statements.append(
                    f"UPDATE {event.table} SET <row> = ({values}) "
                    f"WHERE <key> = {event.key}"
                )
            else:
                statements.append(
                    f"UPDATE {event.table} WHERE <key> = {event.key}"
                )
        else:
            statements.append(f"-- {event.op} on {event.table} key {event.key}")
    return statements


def _render_value(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bytes):
        return "x'" + value.hex() + "'"
    if isinstance(value, str):
        return "'" + value + "'"
    return str(value)
