"""On-disk page format: 4 KB pages with checksummed headers.

Every page in a :class:`~repro.storage.paged.page_file.PageFile` is exactly
:data:`PAGED_PAGE_SIZE` bytes. The fixed 32-byte header mirrors the InnoDB
``FIL_PAGE_*`` fields the paper's disk-theft forensics would parse:

====== ====== ==========================================================
offset  width  field
====== ====== ==========================================================
0       u32    checksum — CRC-32 of bytes ``[4:PAGE_SIZE]``
4       u32    page id within the tablespace
8       u16    page type (:class:`PagedPageType`)
10      u16    B+-tree level (0 for leaves)
12      u64    page LSN — engine LSN at the last write-back
20      u32    prev page id (leaf chain; 0 = none)
24      u32    next page id (leaf chain / free-list next; 0 = none)
28      u16    number of entries
30      u16    reserved
====== ====== ==========================================================

Page 0 is always the tablespace header (``FSP_HEADER``); its id doubles as
the null page pointer, which is why ``prev``/``next`` use 0 for "none".
Freed pages keep their old record payloads on disk (only the header is
rewritten) — byte residue the forensics layer can carve, exactly the
secure-deletion gap the paper's §3 artifacts exhibit.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass

from ...errors import PageError

#: The paged engine's page size (PostgreSQL-style 4 KB; InnoDB uses 16 KB).
PAGED_PAGE_SIZE = 4 * 1024

#: Fixed per-page header bytes (see the table in the module docstring).
PAGE_HEADER_SIZE = 32

#: Byte budget for entry payloads on one page.
PAGE_CAPACITY = PAGED_PAGE_SIZE - PAGE_HEADER_SIZE

#: Null page pointer (page 0 is always the tablespace header).
NO_PAGE = 0

_HEADER = struct.Struct("<IIHHQIIHH")
assert _HEADER.size == PAGE_HEADER_SIZE


class PagedPageType(enum.IntEnum):
    """On-disk page roles (subset of InnoDB's ``FIL_PAGE_TYPE``)."""

    FSP_HEADER = 0
    INDEX_INTERNAL = 1
    INDEX_LEAF = 2
    ALLOCATED = 3
    FREE = 4


@dataclass
class PageImage:
    """A decoded raw page: header fields plus the payload byte area."""

    __slots__ = (
        "page_id", "page_type", "level", "page_lsn", "prev_page",
        "next_page", "n_entries", "payload",
    )

    page_id: int
    page_type: PagedPageType
    level: int
    page_lsn: int
    prev_page: int
    next_page: int
    n_entries: int
    payload: bytes


#: Header type code -> page type, without an enum call per page read.
_PAGE_TYPES = {int(t): t for t in PagedPageType}


def checksum_of(raw: bytes) -> int:
    """The stored checksum covers everything after the checksum field."""
    return zlib.crc32(raw[4:]) & 0xFFFFFFFF


def pack_page(
    page_id: int,
    page_type: PagedPageType,
    level: int,
    page_lsn: int,
    prev_page: int,
    next_page: int,
    n_entries: int,
    payload: bytes,
) -> bytes:
    """Assemble one checksummed :data:`PAGED_PAGE_SIZE`-byte page image."""
    if len(payload) > PAGE_CAPACITY:
        raise PageError(
            f"page {page_id} payload of {len(payload)} bytes exceeds the "
            f"{PAGE_CAPACITY}-byte capacity"
        )
    body = _HEADER.pack(
        0,  # checksum placeholder
        page_id,
        int(page_type),
        level,
        page_lsn,
        prev_page,
        next_page,
        n_entries,
        0,
    ) + payload
    raw = body + b"\x00" * (PAGED_PAGE_SIZE - len(body))
    return struct.pack("<I", checksum_of(raw)) + raw[4:]


def unpack_page(raw: bytes, expected_page_id: int = None) -> PageImage:
    """Parse and checksum-verify one raw page image."""
    if len(raw) != PAGED_PAGE_SIZE:
        raise PageError(
            f"page image must be {PAGED_PAGE_SIZE} bytes, got {len(raw)}"
        )
    (
        stored_checksum,
        page_id,
        type_value,
        level,
        page_lsn,
        prev_page,
        next_page,
        n_entries,
        _reserved,
    ) = _HEADER.unpack_from(raw)
    # The checksum covers bytes [4:]: the rest of the header, then the
    # payload, whose slice is the one copy made (a decoded leaf keeps it).
    payload = raw[PAGE_HEADER_SIZE:]
    actual = zlib.crc32(payload, zlib.crc32(raw[4:PAGE_HEADER_SIZE]))
    if stored_checksum != actual:
        raise PageError(
            f"page {page_id} checksum mismatch: header says "
            f"{stored_checksum:#010x}, page bytes hash to {actual:#010x}"
        )
    if expected_page_id is not None and page_id != expected_page_id:
        raise PageError(
            f"page header claims id {page_id} but was read from slot "
            f"{expected_page_id}"
        )
    page_type = _PAGE_TYPES.get(type_value)
    if page_type is None:
        raise PageError(f"unknown page type {type_value}")
    return PageImage(
        page_id,
        page_type,
        level,
        page_lsn,
        prev_page,
        next_page,
        n_entries,
        payload,
    )
