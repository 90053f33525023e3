"""Row serialization.

Rows are serialized to a tagged, length-prefixed byte format before they
touch a page or a log. This matters for fidelity: InnoDB's redo/undo logs
"record changes to the individual database records at the byte level"
(paper §3), and the forensic reconstruction in
:mod:`repro.forensics.redo_undo` parses exactly these bytes.

Format per value: 1 tag byte (``i`` int / ``s`` str / ``b`` bytes /
``n`` null) followed by a type-specific body. Integers are 8-byte
little-endian two's complement; strings and blobs are 4-byte length-prefixed.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple, Union

from ..errors import RecordError

Value = Union[int, str, bytes, None]
Row = Tuple[Value, ...]

_TAG_INT = ord("i")
_TAG_STR = ord("s")
_TAG_BYTES = ord("b")
_TAG_NULL = ord("n")

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
#: ``tag u8 | i64``: a whole integer value.
_INT_VALUE = struct.Struct("<Bq")
#: ``tag u8 | u32 length``: the head of a string or blob value.
_LENGTH_HEAD = struct.Struct("<BI")
_NULL_VALUE = bytes((_TAG_NULL,))


def encode_value(value: Value) -> bytes:
    """Encode one column value with its type tag."""
    if value is None:
        return _NULL_VALUE
    if isinstance(value, int):
        if isinstance(value, bool):
            raise RecordError("boolean values are not part of the storage format")
        try:
            return _INT_VALUE.pack(_TAG_INT, value)
        except struct.error:
            raise RecordError(
                f"integer {value} outside 64-bit signed range"
            ) from None
    if isinstance(value, str):
        tag, body = _TAG_STR, value.encode("utf-8")
    elif isinstance(value, (bytes, bytearray, memoryview)):
        tag, body = _TAG_BYTES, bytes(value)
    else:
        raise RecordError(f"unsupported value type {type(value).__name__}")
    if len(body) > 0xFFFFFFFF:
        raise RecordError(f"{len(body)} does not fit in 4 bytes")
    return _LENGTH_HEAD.pack(tag, len(body)) + body


def decode_value(data: bytes, offset: int) -> Tuple[Value, int]:
    """Decode one tagged value at ``offset``; return ``(value, new_offset)``."""
    values, offset = _decode_values(data, offset, 1)
    return values[0], offset


def encode_row(row: Sequence[Value]) -> bytes:
    """Encode a full row: 4-byte column count then tagged values."""
    return _U32.pack(len(row)) + b"".join([encode_value(value) for value in row])


def decode_row(data: bytes, offset: int = 0) -> Tuple[Row, int]:
    """Decode a row at ``offset``; return ``(row, new_offset)``."""
    count, offset = _read_u32(data, offset, len(data))
    values, offset = _decode_values(data, offset, count)
    return tuple(values), offset


def _read_u32(data: bytes, offset: int, size: int) -> Tuple[int, int]:
    """A 4-byte count or length at ``offset``: ``read_uint``'s check and
    error message, read in place instead of through a slice."""
    end = offset + 4
    if end > size:
        raise RecordError(
            f"truncated integer at offset {offset} (need 4 bytes, "
            f"have {size - offset})"
        )
    return _U32.unpack_from(data, offset)[0], end


def _decode_values(data: bytes, offset: int, count: int) -> Tuple[List[Value], int]:
    """Decode ``count`` tagged values from ``offset`` in one loop."""
    size = len(data)
    values: List[Value] = []
    append = values.append
    for _ in range(count):
        if offset >= size:
            raise RecordError(f"truncated value at offset {offset}")
        tag = data[offset]
        offset += 1
        if tag == _TAG_INT:
            end = offset + 8
            if end > size:
                raise RecordError(f"truncated integer at offset {offset}")
            append(_I64.unpack_from(data, offset)[0])
            offset = end
        elif tag == _TAG_STR or tag == _TAG_BYTES:
            length, offset = _read_u32(data, offset, size)
            end = offset + length
            if end > size:
                raise RecordError(f"truncated string/blob at offset {offset}")
            body = data[offset:end]
            if tag == _TAG_STR:
                try:
                    body = body.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise RecordError(f"invalid UTF-8 in record: {exc}") from exc
            append(body)
            offset = end
        elif tag == _TAG_NULL:
            append(None)
        else:
            raise RecordError(f"unknown value tag {tag:#x} at offset {offset - 1}")
    return values, offset


def row_size(row: Sequence[Value]) -> int:
    """Encoded size of ``row`` in bytes."""
    return len(encode_row(row))
