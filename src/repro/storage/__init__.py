"""Storage substrate: records plus the paged on-disk engine.

This layer plays the role of InnoDB's on-disk format in the simulation. Rows
are serialized to bytes (:mod:`.record`) and stored by :mod:`.paged`:
single-file tablespaces of 4 KB pages behind a frame-based buffer pool with
real eviction and write-back, indexed by paged B+-trees. The pool dumps its
resident page list exactly like MySQL's ``ib_buffer_pool`` file — the
Section 3 read-inference artifact.
"""

from .record import Row, decode_row, encode_row
from .paged import (
    PAGED_PAGE_SIZE,
    AccessPath,
    BufferPoolDump,
    BufferPoolManager,
    PagedBTree,
    PagedTable,
    PageFile,
    PageRef,
)

__all__ = [
    "PAGED_PAGE_SIZE",
    "AccessPath",
    "BufferPoolDump",
    "BufferPoolManager",
    "PagedBTree",
    "PagedTable",
    "PageFile",
    "PageRef",
    "Row",
    "encode_row",
    "decode_row",
]
