"""Single-file tablespace: one ``.ibd``-style file of 4 KB pages.

Page 0 is the tablespace header (``FSP_HEADER``), holding the metadata a
real engine would keep in its system pages::

    magic            8 bytes   b"REPROPGD"
    version          u16       format version (1)
    space_id         u32       tablespace id
    page_size        u32       PAGED_PAGE_SIZE (sanity check on open)
    num_pages        u32       total pages in the file, header included
    free_head        u32       head of the freed-page chain (0 = empty)
    free_count       u32       pages on the freed chain
    checkpoint_lsn   u64       LSN stamped by the last checkpoint
    clustered_root   u32       root page of the clustered index (0 = none)
    clustered_size   u64       live row count of the clustered index
    name             str       table name (length-prefixed UTF-8)
    n_secondary      u16       secondary index directory entries, each:
        name         str       index name
        root         u32       index root page (0 = empty)
        size         u64       posting count

The file is opened unbuffered and every page moves with one ``os.pread``
or ``os.pwrite`` at ``page_id * PAGED_PAGE_SIZE``: the object holds no
bytes of the file, so what the process has written is what another
reader of the file sees, and what survives the process being killed.

Freed pages are threaded through their header ``next_page`` field with the
page type rewritten to ``FREE`` — but the record payload is left on disk
untouched. That residue is deliberate: it is the secure-deletion gap the
paper's snapshot attacker exploits, and the ``page_free_list`` /
``tablespace_images`` artifacts expose it.
"""

from __future__ import annotations

import os
import struct
from typing import Dict, List, Tuple

from ...errors import PageError, StorageError
from ...util.serialization import decode_str, encode_str
from .format import (
    NO_PAGE,
    PAGED_PAGE_SIZE,
    PagedPageType,
    PageImage,
    checksum_of,
    pack_page,
    unpack_page,
)

_MAGIC = b"REPROPGD"
_FORMAT_VERSION = 1
_FIXED_HEADER = struct.Struct("<8sHIIIIIQIQ")
_SECONDARY_ENTRY = struct.Struct("<IQ")


class PageFile:
    """A single-file tablespace of checksummed 4 KB pages.

    All I/O is page-granular, one ``pread``/``pwrite`` per page. The header
    page is cached in memory and rewritten lazily (``flush_header``); data
    pages are read and written directly — caching them is the buffer
    pool's job, not the file's.
    """

    def __init__(self, path: str, name: str, space_id: int = 0) -> None:
        self.path = path
        self.name = name
        self.space_id = space_id
        # "w+b" would clobber an existing tablespace; open for update.
        mode = "r+b" if os.path.exists(path) else "w+b"
        self._file = open(path, mode, buffering=0)  # noqa: SIM115
        self._fd = self._file.fileno()
        self._closed = False

        self.num_pages = 1
        self.free_head = NO_PAGE
        self.free_count = 0
        self.checkpoint_lsn = 0
        self.clustered_root = NO_PAGE
        self.clustered_size = 0
        self.secondary_roots: Dict[str, Tuple[int, int]] = {}
        self._header_dirty = True

        try:
            if os.fstat(self._fd).st_size >= PAGED_PAGE_SIZE:
                self._load_header()
            else:
                self.flush_header()
        except BaseException:
            self._file.close()  # a file that fails to open holds no handle
            self._closed = True
            raise

    # -- header page -------------------------------------------------------

    def _header_payload(self) -> bytes:
        parts = [
            _FIXED_HEADER.pack(
                _MAGIC,
                _FORMAT_VERSION,
                self.space_id,
                PAGED_PAGE_SIZE,
                self.num_pages,
                self.free_head,
                self.free_count,
                self.checkpoint_lsn,
                self.clustered_root,
                self.clustered_size,
            ),
            encode_str(self.name),
            struct.pack("<H", len(self.secondary_roots)),
        ]
        for index_name, (root, size) in self.secondary_roots.items():
            parts.append(encode_str(index_name))
            parts.append(_SECONDARY_ENTRY.pack(root, size))
        return b"".join(parts)

    def flush_header(self) -> None:
        """Rewrite page 0 from the in-memory header fields."""
        raw = pack_page(
            0,
            PagedPageType.FSP_HEADER,
            0,
            self.checkpoint_lsn,
            NO_PAGE,
            NO_PAGE,
            len(self.secondary_roots),
            self._header_payload(),
        )
        self._write_raw(0, raw)
        self._header_dirty = False

    def _load_header(self) -> None:
        image = self._read_raw(0)
        if image.page_type is not PagedPageType.FSP_HEADER:
            raise PageError(
                f"tablespace {self.name!r}: page 0 is {image.page_type.name}, "
                "not FSP_HEADER"
            )
        (
            magic,
            version,
            space_id,
            page_size,
            num_pages,
            free_head,
            free_count,
            checkpoint_lsn,
            clustered_root,
            clustered_size,
        ) = _FIXED_HEADER.unpack_from(image.payload)
        if magic != _MAGIC:
            raise PageError(
                f"tablespace {self.name!r}: bad magic {magic!r}"
            )
        if version != _FORMAT_VERSION:
            raise PageError(
                f"tablespace {self.name!r}: unsupported format "
                f"version {version}"
            )
        if page_size != PAGED_PAGE_SIZE:
            raise PageError(
                f"tablespace {self.name!r}: page size {page_size} does not "
                f"match the build's {PAGED_PAGE_SIZE}"
            )
        offset = _FIXED_HEADER.size
        stored_name, offset = decode_str(image.payload, offset)
        (n_secondary,) = struct.unpack_from("<H", image.payload, offset)
        offset += 2
        secondary: Dict[str, Tuple[int, int]] = {}
        for _ in range(n_secondary):
            index_name, offset = decode_str(image.payload, offset)
            root, size = _SECONDARY_ENTRY.unpack_from(image.payload, offset)
            offset += _SECONDARY_ENTRY.size
            secondary[index_name] = (root, size)

        self.name = stored_name
        self.space_id = space_id
        self.num_pages = num_pages
        self.free_head = free_head
        self.free_count = free_count
        self.checkpoint_lsn = checkpoint_lsn
        self.clustered_root = clustered_root
        self.clustered_size = clustered_size
        self.secondary_roots = secondary
        self._header_dirty = False

    def mark_header_dirty(self) -> None:
        self._header_dirty = True

    # -- raw page I/O ------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(f"tablespace {self.name!r} is closed")

    def _write_raw(self, page_id: int, raw: bytes) -> None:
        self._check_open()
        if os.pwrite(self._fd, raw, page_id * PAGED_PAGE_SIZE) != len(raw):
            raise StorageError(
                f"tablespace {self.name!r}: short write of page {page_id}"
            )

    def _read_raw(self, page_id: int) -> PageImage:
        self._check_open()
        raw = os.pread(self._fd, PAGED_PAGE_SIZE, page_id * PAGED_PAGE_SIZE)
        return unpack_page(raw, page_id)

    def read_page(self, page_id: int) -> PageImage:
        """Read and checksum-verify one data page."""
        if not 0 < page_id < self.num_pages:
            raise PageError(
                f"tablespace {self.name!r}: page {page_id} out of range "
                f"(file has {self.num_pages} pages)"
            )
        return self._read_raw(page_id)

    def write_page(self, page_id: int, raw: bytes) -> None:
        """Write one pre-packed page image at its slot."""
        if len(raw) != PAGED_PAGE_SIZE:
            raise PageError(
                f"page image must be {PAGED_PAGE_SIZE} bytes, got {len(raw)}"
            )
        if not 0 < page_id < self.num_pages:
            raise PageError(
                f"tablespace {self.name!r}: page {page_id} out of range "
                f"(file has {self.num_pages} pages)"
            )
        self._write_raw(page_id, raw)

    # -- allocation --------------------------------------------------------

    def allocate(self) -> int:
        """Return a usable page id: pop the free list, else grow the file.

        The slot is stamped with a blank ``ALLOCATED`` page so a read
        before the owner's first write-back still checksum-verifies.
        """
        self._check_open()
        if self.free_head != NO_PAGE:
            page_id = self.free_head
            freed = self._read_raw(page_id)
            if freed.page_type is not PagedPageType.FREE:
                raise PageError(
                    f"tablespace {self.name!r}: free-list head {page_id} is "
                    f"{freed.page_type.name}, not FREE"
                )
            self.free_head = freed.next_page
            self.free_count -= 1
        else:
            page_id = self.num_pages
            self.num_pages += 1
        self._write_raw(
            page_id,
            pack_page(page_id, PagedPageType.ALLOCATED, 0, 0, NO_PAGE, NO_PAGE, 0, b""),
        )
        self._header_dirty = True
        return page_id

    def free(self, page_id: int) -> None:
        """Thread a page onto the free list, *keeping its payload bytes*.

        Only the 32-byte header is rewritten (type ``FREE``, ``next`` =
        old free head); the record area stays on disk as residue for the
        snapshot attacker to carve.
        """
        current = self.read_page(page_id)
        if current.page_type is PagedPageType.FREE:
            raise PageError(
                f"tablespace {self.name!r}: page {page_id} is already free"
            )
        raw = pack_page(
            page_id,
            PagedPageType.FREE,
            0,
            current.page_lsn,
            NO_PAGE,
            self.free_head,
            0,
            current.payload.rstrip(b"\x00"),
        )
        self._write_raw(page_id, raw)
        self.free_head = page_id
        self.free_count += 1
        self._header_dirty = True

    def free_list(self) -> List[int]:
        """Walk the freed-page chain from the header, in chain order."""
        chain: List[int] = []
        page_id = self.free_head
        while page_id != NO_PAGE:
            chain.append(page_id)
            if len(chain) > self.num_pages:
                raise PageError(
                    f"tablespace {self.name!r}: free-list cycle detected"
                )
            page_id = self.read_page(page_id).next_page
        return chain

    # -- snapshot / compat surface ----------------------------------------

    @property
    def page_ids(self) -> List[int]:
        """All data-page ids (header excluded), in file order."""
        return list(range(1, self.num_pages))

    def to_bytes(self) -> bytes:
        """The raw tablespace file bytes — the disk-theft artifact.

        The header page is flushed first so the image is self-consistent.
        """
        self._check_open()
        if self._header_dirty:
            self.flush_header()
        return os.pread(self._fd, self.num_pages * PAGED_PAGE_SIZE, 0)

    def verify_all(self) -> int:
        """Checksum-verify every page; returns the page count checked."""
        for page_id in range(self.num_pages):
            self._read_raw(page_id)
        return self.num_pages

    def flush(self) -> None:
        """Write the header page if it changed (every page write has
        already reached the operating system)."""
        self._check_open()
        if self._header_dirty:
            self.flush_header()

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        self._file.close()
        self._closed = True

    def crash_close(self) -> None:
        """Drop the file as a killed process would: page writes that already
        reached the file survive, but the dirty in-memory header is *not*
        written back — the on-disk header stays at its last checkpoint
        (stale roots / page counts are exactly what recovery must face)."""
        if self._closed:
            return
        self._file.close()
        self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PageFile(name={self.name!r}, space_id={self.space_id}, "
            f"pages={self.num_pages}, free={self.free_count})"
        )


__all__ = ["PageFile", "checksum_of"]
