"""Paged on-disk storage: single-file tablespaces behind a frame pool.

This package is the simulation's storage engine: each table is one
``.ibd``-style file of 4 KB pages (:mod:`.page_file`), every page
read/write goes through a fixed-budget frame-based buffer pool with
pin/unpin, dirty tracking, and LRU eviction (:mod:`.buffer_pool`),
and rows live in a paged B+-tree with clustered and secondary indexes
(:mod:`.btree`, :mod:`.table`).

The point, for the paper, is that the leakage surfaces are not simulated: the ``ib_buffer_pool`` dump is emitted from *actual resident
frames*, tablespace images are *read back from disk* (header page,
free-list chain, and dead-page residue included), and a checkpoint LSN is
persisted in the file header — all registered as snapshot artifacts.
"""

from .format import (
    PAGE_CAPACITY,
    PAGE_HEADER_SIZE,
    PAGED_PAGE_SIZE,
    PagedPageType,
)
from .page_file import PageFile
from .buffer_pool import (
    BufferPoolDump,
    BufferPoolManager,
    Frame,
    PageRef,
)
from .btree import AccessPath, PagedBTree
from .table import PagedTable, SecondaryIndexDef

__all__ = [
    "AccessPath",
    "BufferPoolDump",
    "PageRef",
    "PAGED_PAGE_SIZE",
    "PAGE_CAPACITY",
    "PAGE_HEADER_SIZE",
    "PagedPageType",
    "PageFile",
    "BufferPoolManager",
    "Frame",
    "PagedBTree",
    "PagedTable",
    "SecondaryIndexDef",
]
