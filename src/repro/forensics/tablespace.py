"""Rows carved from a stolen ``.ibd`` tablespace image.

Disk theft (paper §2–§3) hands the attacker the tablespace files. Every
4 KB page carries a checksummed header naming its page id and type, so the
page format alone is enough to pull every row out of the B+-tree:
:func:`read_leaf_entries` walks the image page by page and yields the
``(key, payload)`` entries of each leaf page, in file order. For the
clustered index the payload is the encoded row; secondary-index leaves
(posting lists) come out too.

The file holds only what was written back: a page still dirty in the
buffer pool is not on disk, so an image stolen without a prior checkpoint
shows the last written-back version of that page.

The image is hostile input. A length that is not a whole number of pages,
a page whose checksum fails, or a page copied into another page's slot
raises :class:`~repro.errors.ForensicsError` — after the entries of the
intact pages before it have been yielded.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from ..errors import ForensicsError, PageError
from ..storage.paged.format import PAGED_PAGE_SIZE, PagedPageType, unpack_page
from ..storage.paged.node import decode_node


def read_leaf_entries(image: bytes) -> Iterator[Tuple[int, bytes]]:
    """Yield ``(key, payload)`` from every leaf page of a tablespace image."""
    if len(image) % PAGED_PAGE_SIZE:
        raise ForensicsError(
            f"tablespace image of {len(image)} bytes is not a whole number "
            f"of {PAGED_PAGE_SIZE}-byte pages"
        )
    for page_id in range(len(image) // PAGED_PAGE_SIZE):
        start = page_id * PAGED_PAGE_SIZE
        try:
            page = unpack_page(image[start:start + PAGED_PAGE_SIZE], page_id)
            if page.page_type is not PagedPageType.INDEX_LEAF:
                continue
            entries = decode_node(page).entries
        except PageError as exc:
            raise ForensicsError(f"corrupt tablespace page {page_id}: {exc}") from exc
        yield from entries
