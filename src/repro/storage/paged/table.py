"""One paged table: a clustered index plus secondary indexes, one file.

Like an InnoDB ``.ibd`` tablespace, a single :class:`~.page_file.PageFile`
holds every index of the table: the clustered B+-tree (primary key →
row bytes) and any number of secondary B+-trees (extracted column value →
posting list of primary keys). Index roots and sizes persist in the file
header, so a reopened tablespace finds its trees again.

Secondary leaf payloads are posting lists — sorted 8-byte little-endian
signed primary keys concatenated — which is what makes per-value result
*volumes* directly readable off the page images (the channel the
volume-attack literature in PAPERS.md exploits).
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ...errors import StorageError
from .btree import AccessPath, PagedBTree
from .buffer_pool import BufferPoolManager
from .format import NO_PAGE
from .page_file import PageFile

Extractor = Callable[[bytes], Optional[int]]
"""Pulls the indexed integer out of a raw row (None = not indexed)."""

_PK = struct.Struct("<q")


def _pack_postings(pks: List[int]) -> bytes:
    return b"".join(_PK.pack(pk) for pk in pks)


def _unpack_postings(payload: bytes) -> List[int]:
    if len(payload) % _PK.size:
        raise StorageError(
            f"posting list of {len(payload)} bytes is not a multiple "
            f"of {_PK.size}"
        )
    return [
        _PK.unpack_from(payload, offset)[0]
        for offset in range(0, len(payload), _PK.size)
    ]


@dataclass
class SecondaryIndexDef:
    """A registered secondary index: its name, extractor, and tree."""

    name: str
    extractor: Extractor
    tree: PagedBTree = field(repr=False, default=None)


class PagedTable:
    """Clustered rows plus secondary posting lists over one page file."""

    def __init__(self, pool: BufferPoolManager, file: PageFile) -> None:
        self._pool = pool
        self._file = file
        self.clustered = PagedBTree(
            pool,
            file,
            root_page_id=file.clustered_root,
            size=file.clustered_size,
            on_meta=self._clustered_meta,
        )
        self._secondary: Dict[str, SecondaryIndexDef] = {}

    # -- header persistence ------------------------------------------------

    def _clustered_meta(self, root: int, size: int) -> None:
        self._file.clustered_root = root
        self._file.clustered_size = size
        self._file.mark_header_dirty()

    def _secondary_meta(self, name: str) -> Callable[[int, int], None]:
        def on_meta(root: int, size: int) -> None:
            self._file.secondary_roots[name] = (root, size)
            self._file.mark_header_dirty()

        return on_meta

    # -- properties --------------------------------------------------------

    @property
    def file(self) -> PageFile:
        return self._file

    @property
    def name(self) -> str:
        return self._file.name

    @property
    def row_count(self) -> int:
        return self.clustered.size

    def secondary_indexes(self) -> List[str]:
        return list(self._secondary)

    # -- row operations ----------------------------------------------------

    def insert(self, pk: int, row: bytes) -> AccessPath:
        path = self.clustered.insert(pk, row)
        for index in self._secondary.values():
            value = index.extractor(row)
            if value is not None:
                self._posting_add(index.tree, value, pk)
        return path

    def update(self, pk: int, row: bytes) -> Tuple[bytes, AccessPath]:
        old_row, path = self.clustered.update(pk, row)
        for index in self._secondary.values():
            old_value = index.extractor(old_row)
            new_value = index.extractor(row)
            if old_value == new_value:
                continue
            if old_value is not None:
                self._posting_remove(index.tree, old_value, pk)
            if new_value is not None:
                self._posting_add(index.tree, new_value, pk)
        return old_row, path

    def delete(self, pk: int) -> Tuple[bytes, AccessPath]:
        old_row, path = self.clustered.delete(pk)
        for index in self._secondary.values():
            value = index.extractor(old_row)
            if value is not None:
                self._posting_remove(index.tree, value, pk)
        return old_row, path

    def get(self, pk: int) -> Tuple[Optional[bytes], AccessPath]:
        return self.clustered.get(pk)

    def range(
        self, low: Optional[int], high: Optional[int]
    ) -> Tuple[List[Tuple[int, bytes]], AccessPath]:
        return self.clustered.range(low, high)

    def scan(self) -> Iterator[Tuple[int, bytes]]:
        return self.clustered.scan()

    def bulk_load(self, items: Iterable[Tuple[int, bytes]]) -> int:
        """Sorted bottom-up build; secondary indexes are backfilled after."""
        loaded = self.clustered.bulk_load(items)
        for index in self._secondary.values():
            self._backfill(index)
        return loaded

    # -- secondary indexes -------------------------------------------------

    def create_secondary_index(self, name: str, extractor: Extractor) -> None:
        """Register a secondary index, backfilling from existing rows.

        If the tablespace header already knows this index (a reopened
        file), the existing tree is attached instead of rebuilt.
        """
        if name in self._secondary:
            raise StorageError(
                f"table {self.name!r} already has index {name!r}"
            )
        existing = self._file.secondary_roots.get(name)
        if existing is not None and existing[0] != NO_PAGE:
            root, size = existing
            tree = PagedBTree(
                self._pool,
                self._file,
                root_page_id=root,
                size=size,
                on_meta=self._secondary_meta(name),
            )
            self._secondary[name] = SecondaryIndexDef(name, extractor, tree)
            return
        tree = PagedBTree(
            self._pool, self._file, on_meta=self._secondary_meta(name)
        )
        index = SecondaryIndexDef(name, extractor, tree)
        self._secondary[name] = index
        self._backfill(index)

    def secondary_lookup(self, name: str, value: int) -> Tuple[List[int], AccessPath]:
        """Primary keys whose extracted value equals ``value``."""
        index = self._index(name)
        payload, path = index.tree.get(value)
        return ([] if payload is None else _unpack_postings(payload)), path

    def secondary_range(
        self, name: str, low: Optional[int], high: Optional[int]
    ) -> Tuple[List[Tuple[int, List[int]]], AccessPath]:
        """``(value, [pks])`` pairs for values in the inclusive range."""
        index = self._index(name)
        raw, path = index.tree.range(low, high)
        return [(value, _unpack_postings(p)) for value, p in raw], path

    def _index(self, name: str) -> SecondaryIndexDef:
        index = self._secondary.get(name)
        if index is None:
            raise StorageError(
                f"table {self.name!r} has no index {name!r}"
            )
        return index

    def _backfill(self, index: SecondaryIndexDef) -> None:
        postings: Dict[int, List[int]] = {}
        for pk, row in self.clustered.scan():
            value = index.extractor(row)
            if value is not None:
                postings.setdefault(value, []).append(pk)
        for value in sorted(postings):
            pks = postings[value]
            pks.sort()
            index.tree.insert(value, _pack_postings(pks))

    @staticmethod
    def _posting_add(tree: PagedBTree, value: int, pk: int) -> None:
        payload, _ = tree.get(value)
        if payload is None:
            tree.insert(value, _PK.pack(pk))
            return
        pks = _unpack_postings(payload)
        bisect.insort(pks, pk)
        tree.update(value, _pack_postings(pks))

    @staticmethod
    def _posting_remove(tree: PagedBTree, value: int, pk: int) -> None:
        payload, _ = tree.get(value)
        if payload is None:
            return
        pks = _unpack_postings(payload)
        if pk in pks:
            pks.remove(pk)
        if pks:
            tree.update(value, _pack_postings(pks))
        else:
            tree.delete(value)
