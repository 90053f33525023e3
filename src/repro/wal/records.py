"""WAL record types and the on-disk frame format.

Every WAL record is framed as::

    lsn(8) || body_len(4) || crc32(4) || type(1) || body

little-endian, with ``crc32`` computed over ``type || body``. The checksum
makes torn tails self-describing: a crash mid-append leaves a frame whose
CRC does not verify, and :func:`parse_frames` (tolerant mode) stops there —
exactly how recovery finds the end of the usable log.

Segment files are preallocated with zeros, so the log in a file ends where
the zeros begin: a frame position from which every remaining byte is zero
is a clean end of log. A real header is never all zeros — type 0 is no
record type — so an all-zero header with non-zero bytes after it is a bad
frame like any other: a torn tail at the end of the last segment, and
corruption anywhere else.

Redo and undo bodies are the byte-level row images of paper §3
(:meth:`RedoRecord.to_bytes`); the same bytes make up the circular
redo/undo retention windows, so the §3 forensics read either surface.
Control records (txn lifecycle, checkpoints, CLRs) are new:
they are stamped with the current LSN but advance it by zero bytes.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from enum import IntEnum
from typing import List, Optional, Tuple

from ..errors import LogError, WalError
from ..util.serialization import (
    decode_bytes,
    decode_str,
    encode_str,
    encode_uint,
    read_uint,
)

_OPS = ("insert", "update", "delete")


class WalRecordType(IntEnum):
    """Discriminator byte for WAL frame bodies."""

    REDO = 1  #: row after-image; advances the LSN by len(body)
    UNDO = 2  #: row before-image; advances the LSN by len(body)
    CLR = 3  #: compensation record (redo-format inverse op); advances 0
    TXN_BEGIN = 4  #: transaction start; advances 0
    TXN_COMMIT = 5  #: transaction commit — the durability point; advances 0
    TXN_ABORT = 6  #: transaction rolled back (all CLRs written); advances 0
    CHECKPOINT = 7  #: fuzzy checkpoint w/ dirty-page table; advances 0
    TABLE_REGISTER = 8  #: DDL: table creation, in original order; advances 0


#: Frame header: lsn u64 | body_len u32 | crc u32 | type u8.
FRAME_HEADER = struct.Struct("<QIIB")

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")
_KEY_MASK = 0xFFFFFFFFFFFFFFFF

#: Each op's length-prefixed body field, encoded once.
_OP_FIELDS = {op: _U32.pack(len(op)) + op.encode("ascii") for op in _OPS}

#: CRC-32 of each possible type byte: the seed of a frame's checksum.
_TYPE_CRC = tuple(zlib.crc32(bytes((t,))) for t in range(256))


def _body_head(txn_id: int, table: str, op: str, key: int) -> bytes:
    """``txn u64 | table str | op str | key u64``: a redo/undo body up to
    its image.

    The table name is u32-length-prefixed. The key is stored as its
    two's-complement u64; ``from_bytes`` reads it back signed. A txn id
    outside u64 raises the :class:`RecordError` of ``encode_uint``.
    """
    try:
        txn = _U64.pack(txn_id)
    except struct.error:
        encode_uint(txn_id, 8)  # raises the RecordError naming the value
        raise
    name = table.encode("utf-8")
    return b"".join(
        (txn, _U32.pack(len(name)), name, _OP_FIELDS[op], _U64.pack(key & _KEY_MASK))
    )


def _encode_body(txn_id: int, table: str, op: str, key: int, image: bytes) -> bytes:
    """The redo/undo body: :func:`_body_head`, then the u32-length-prefixed
    image."""
    return _body_head(txn_id, table, op, key) + _U32.pack(len(image)) + image


def _change_bodies(
    txn_id: int, table: str, op: str, key: int, before: bytes, after: bytes
) -> Tuple[bytes, bytes]:
    """One row change's undo and redo bodies, :func:`_encode_body` of the
    before- and after-image, with the head they share encoded once."""
    head = _body_head(txn_id, table, op, key)
    return (
        head + _U32.pack(len(before)) + before,
        head + _U32.pack(len(after)) + after,
    )


@dataclass(frozen=True)
class RedoRecord:
    """One redo entry: the after-image of a row change.

    Paper §3: "InnoDB ... uses circular undo and redo logs ... Both logs
    record changes to the individual database records at the byte level.
    Using standard forensic techniques for reconstructing insert, update,
    and delete transactions from these logs, an attacker who compromised
    the disk can reconstruct queries that modified the database."

    ``after_image`` is the serialized row after the change (empty for a
    delete, which has no after state). Neither redo nor undo records carry
    timestamps — dating them takes the binlog correlation attack in
    :mod:`repro.forensics.binlog_reader`.
    """

    txn_id: int
    table: str
    op: str
    key: int
    after_image: bytes

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise LogError(f"unknown redo op {self.op!r}")

    def to_bytes(self) -> bytes:
        return _encode_body(
            self.txn_id, self.table, self.op, self.key, self.after_image
        )

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> "tuple[RedoRecord, int]":
        txn_id, offset = read_uint(data, offset, 8)
        table, offset = decode_str(data, offset)
        op, offset = decode_str(data, offset)
        key_u, offset = read_uint(data, offset, 8)
        key = key_u - (1 << 64) if key_u >= (1 << 63) else key_u
        after_image, offset = decode_bytes(data, offset)
        return cls(txn_id, table, op, key, after_image), offset


@dataclass(frozen=True)
class UndoRecord:
    """One undo entry: the before-image of a row change.

    Paper §3: "Transactional guarantees require the ability to roll back
    recent transactions ... thus information about recent database
    modifications must persist on the disk." The leakage is inherent in
    ACID: undo entries let transactions roll back and old row versions be
    rebuilt (MVCC), and forensically they reveal deleted and overwritten
    data that no longer exists in the table itself.

    ``before_image`` is the serialized row before the change (empty for an
    insert, which had no prior state).
    """

    txn_id: int
    table: str
    op: str
    key: int
    before_image: bytes

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise LogError(f"unknown undo op {self.op!r}")

    def to_bytes(self) -> bytes:
        return _encode_body(
            self.txn_id, self.table, self.op, self.key, self.before_image
        )

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> "tuple[UndoRecord, int]":
        txn_id, offset = read_uint(data, offset, 8)
        table, offset = decode_str(data, offset)
        op, offset = decode_str(data, offset)
        key_u, offset = read_uint(data, offset, 8)
        key = key_u - (1 << 64) if key_u >= (1 << 63) else key_u
        before_image, offset = decode_bytes(data, offset)
        return cls(txn_id, table, op, key, before_image), offset


@dataclass(frozen=True)
class CheckpointBody:
    """A fuzzy checkpoint: where recovery's analysis pass could start.

    ``dirty_pages`` is the buffer pool's dirty-page table at checkpoint
    time — ``(tablespace_name, page_id, rec_lsn)`` per dirty frame, where
    ``rec_lsn`` is the LSN that first dirtied the page. ``active_txns`` are
    the transaction ids in flight (potential losers).
    """

    checkpoint_lsn: int
    dirty_pages: Tuple[Tuple[str, int, int], ...]
    active_txns: Tuple[int, ...]

    def to_bytes(self) -> bytes:
        parts = [
            encode_uint(self.checkpoint_lsn, 8),
            encode_uint(len(self.active_txns)),
        ]
        for txn_id in self.active_txns:
            parts.append(encode_uint(txn_id, 8))
        parts.append(encode_uint(len(self.dirty_pages)))
        for name, page_id, rec_lsn in self.dirty_pages:
            parts.append(encode_str(name))
            parts.append(encode_uint(page_id))
            parts.append(encode_uint(rec_lsn, 8))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> "tuple[CheckpointBody, int]":
        checkpoint_lsn, offset = read_uint(data, offset, 8)
        n_active, offset = read_uint(data, offset)
        active = []
        for _ in range(n_active):
            txn_id, offset = read_uint(data, offset, 8)
            active.append(txn_id)
        n_dirty, offset = read_uint(data, offset)
        dirty = []
        for _ in range(n_dirty):
            name, offset = decode_str(data, offset)
            page_id, offset = read_uint(data, offset)
            rec_lsn, offset = read_uint(data, offset, 8)
            dirty.append((name, page_id, rec_lsn))
        return cls(checkpoint_lsn, tuple(dirty), tuple(active)), offset


@dataclass(frozen=True)
class WalFrame:
    """One parsed WAL frame: ``(lsn, type, body)`` plus its segment offset."""

    lsn: int
    rtype: WalRecordType
    body: bytes
    offset: int

    def decode(self):
        """Decode the body into its structured record (or plain value)."""
        if self.rtype in (WalRecordType.REDO, WalRecordType.CLR):
            record, _ = RedoRecord.from_bytes(self.body)
            return record
        if self.rtype is WalRecordType.UNDO:
            record, _ = UndoRecord.from_bytes(self.body)
            return record
        if self.rtype in (
            WalRecordType.TXN_BEGIN,
            WalRecordType.TXN_COMMIT,
            WalRecordType.TXN_ABORT,
        ):
            txn_id, _ = read_uint(self.body, 0, 8)
            return txn_id
        if self.rtype is WalRecordType.CHECKPOINT:
            body, _ = CheckpointBody.from_bytes(self.body)
            return body
        if self.rtype is WalRecordType.TABLE_REGISTER:
            name, _ = decode_str(self.body, 0)
            return name
        raise WalError(f"cannot decode WAL record type {self.rtype!r}")

    @property
    def lsn_advance(self) -> int:
        """How many LSN bytes this frame consumed (0 for control records)."""
        if self.rtype in (WalRecordType.REDO, WalRecordType.UNDO):
            return len(self.body)
        return 0


def txn_body(txn_id: int) -> bytes:
    """Body of a TXN_BEGIN / TXN_COMMIT / TXN_ABORT frame."""
    return encode_uint(txn_id, 8)


def table_register_body(name: str) -> bytes:
    """Body of a TABLE_REGISTER frame."""
    return encode_str(name)


def pack_frame(lsn: int, rtype: WalRecordType, body: bytes) -> bytes:
    """Frame ``body`` for the on-disk segment, checksummed over type+body."""
    crc = zlib.crc32(body, _TYPE_CRC[rtype])
    return FRAME_HEADER.pack(lsn, len(body), crc, rtype) + body


def parse_frames(
    data: bytes, *, strict: bool = True
) -> Tuple[List[WalFrame], Optional[str]]:
    """Walk one segment's bytes into frames.

    Returns ``(frames, error)``. Zero padding to the end of ``data`` (see
    the module docstring) ends the walk cleanly. In strict mode any truncation, CRC mismatch, or
    unknown type raises :class:`WalError`; in tolerant mode parsing stops
    at the first bad frame (a torn tail after a crash) and ``error``
    describes it.
    """
    frames: List[WalFrame] = []
    offset = 0
    header_size = FRAME_HEADER.size
    while offset < len(data):
        if offset + header_size > len(data):
            if data.count(0, offset) == len(data) - offset:
                break
            error = f"truncated frame header at offset {offset}"
            if strict:
                raise WalError(error)
            return frames, error
        lsn, body_len, crc, type_byte = FRAME_HEADER.unpack_from(data, offset)
        if not (type_byte or lsn or body_len or crc):
            if data.count(0, offset) == len(data) - offset:
                break
            error = f"zeroed frame header before log bytes at offset {offset}"
            if strict:
                raise WalError(error)
            return frames, error
        body_start = offset + header_size
        if body_start + body_len > len(data):
            error = f"truncated frame body at offset {offset}"
            if strict:
                raise WalError(error)
            return frames, error
        body = data[body_start : body_start + body_len]
        if zlib.crc32(body, _TYPE_CRC[type_byte]) != crc:
            error = f"checksum mismatch at offset {offset}"
            if strict:
                raise WalError(error)
            return frames, error
        try:
            rtype = WalRecordType(type_byte)
        except ValueError:
            error = f"unknown record type {type_byte} at offset {offset}"
            if strict:
                raise WalError(error) from None
            return frames, error
        frames.append(WalFrame(lsn, rtype, body, offset))
        offset = body_start + body_len
    return frames, None
