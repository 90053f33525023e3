"""Decoded B+-tree node representations for 4 KB pages.

Frames in the paged buffer pool hold these decoded nodes; serialization to
the raw page image happens on write-back only, so the hot path never
re-parses a resident page. A page miss decodes only what a point lookup
needs: a leaf walks its entries once to validate them and record each key
and entry end, keeps the page bytes, and builds its ``(key, payload)``
list only when a write, range, scan or split first asks for it (see
:class:`LeafNode`).

Entry encodings inside the page payload area:

* leaf entry — ``i64 key (LE) + u32 payload_len + payload`` (12-byte
  fixed overhead per entry);
* internal entry — ``i64 separator (LE) + u32 child_page_id`` (12 bytes).

Both node kinds track their serialized byte usage incrementally so split
decisions are made against the real 4 KB budget, not an entry count.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple, Union

from ...errors import PageError, StorageError
from .format import (
    NO_PAGE,
    PAGE_CAPACITY,
    PageImage,
    PagedPageType,
    pack_page,
)

#: Fixed serialized overhead of one leaf entry (key + length prefix).
LEAF_ENTRY_OVERHEAD = 12

#: Fixed serialized size of one internal entry.
INTERNAL_ENTRY_SIZE = 12

#: Separator for the leftmost child of an internal node: smaller than any
#: encodable key, so internal entries stay sorted no matter what is inserted
#: to the left later.
NEG_INF = -(1 << 63)

#: Largest key a leaf entry can hold (keys are stored as i64).
_KEY_MAX = (1 << 63) - 1

_LEAF_ENTRY = struct.Struct("<qI")
_INTERNAL_ENTRY = struct.Struct("<qI")

#: Sorts after ``(key, child)`` for every u32 child page id, so bisecting
#: ``(key, _ABOVE_ANY_CHILD)`` passes every separator equal to ``key``.
_ABOVE_ANY_CHILD = 1 << 32

#: Largest row payload that fits a leaf page.
MAX_LEAF_PAYLOAD = PAGE_CAPACITY - LEAF_ENTRY_OVERHEAD


class LeafNode:
    """A decoded leaf page: sorted ``(key, payload)`` rows plus the chain.

    A leaf read from disk keeps its page bytes and the keys and entry ends
    of one validating walk over them; :meth:`lookup` bisects the keys and
    slices out the one payload it returns. The ``entries`` list of
    ``(key, payload)`` tuples is built by :meth:`materialize` the first
    time something reads it (an insert, update, delete, range, scan or
    split), after which the kept bytes are dropped. Until then ``entries``
    is an unset slot whose first read lands in ``__getattr__``; once set it
    is a plain attribute, so a resident leaf's write path pays nothing for
    the laziness. A leaf that only had a sibling pointer changed serializes
    straight from the kept bytes.
    """

    __slots__ = (
        "page_id", "entries", "prev_page", "next_page", "_used",
        "_raw", "_keys", "_ends",
    )

    level = 0
    page_type = PagedPageType.INDEX_LEAF

    def __init__(
        self,
        page_id: int,
        entries: List[Tuple[int, bytes]] = None,
        prev_page: int = NO_PAGE,
        next_page: int = NO_PAGE,
    ) -> None:
        self.page_id = page_id
        self.entries: List[Tuple[int, bytes]] = entries if entries is not None else []
        self.prev_page = prev_page
        self.next_page = next_page
        self._used = sum(
            LEAF_ENTRY_OVERHEAD + len(p) for _, p in self.entries
        )
        self._raw = None

    def __getattr__(self, name: str):
        # Python calls this only when normal lookup fails; for ``entries``
        # that means a decoded leaf whose list has not been built yet.
        if name == "entries":
            return self.materialize()
        raise AttributeError(name)

    def materialize(self) -> List[Tuple[int, bytes]]:
        """Build (once) and return the ``(key, payload)`` entry list."""
        raw = self._raw
        if raw is None:
            return self.entries
        ends = self._ends
        entries = [
            (key, raw[start + LEAF_ENTRY_OVERHEAD:end])
            for key, start, end in zip(self._keys, [0] + ends, ends)
        ]
        self.entries = entries
        self._raw = self._keys = self._ends = None
        return entries

    def lookup(self, key: int) -> Optional[bytes]:
        """The payload stored under ``key``, or ``None``."""
        raw = self._raw
        if raw is None:
            entries = self.entries
            slot = bisect_left(entries, (key,))
            if slot < len(entries) and entries[slot][0] == key:
                return entries[slot][1]
            return None
        keys = self._keys
        slot = bisect_left(keys, key)
        if slot < len(keys) and keys[slot] == key:
            ends = self._ends
            start = ends[slot - 1] if slot else 0
            return raw[start + LEAF_ENTRY_OVERHEAD:ends[slot]]
        return None

    # -- capacity ----------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def overflowing(self) -> bool:
        return self._used > PAGE_CAPACITY

    def insert_entry(self, slot: int, key: int, payload: bytes) -> None:
        if not NEG_INF <= key <= _KEY_MAX:
            raise StorageError(f"key {key} outside the signed 64-bit range")
        if len(payload) > MAX_LEAF_PAYLOAD:
            raise StorageError(
                f"row of {len(payload)} bytes cannot fit a "
                f"{PAGE_CAPACITY}-byte page"
            )
        self.entries.insert(slot, (key, payload))
        self._used += LEAF_ENTRY_OVERHEAD + len(payload)

    def replace_entry(self, slot: int, key: int, payload: bytes) -> bytes:
        if len(payload) > MAX_LEAF_PAYLOAD:
            raise StorageError(
                f"row of {len(payload)} bytes cannot fit a "
                f"{PAGE_CAPACITY}-byte page"
            )
        _, old = self.entries[slot]
        self.entries[slot] = (key, payload)
        self._used += len(payload) - len(old)
        return old

    def pop_entry(self, slot: int) -> Tuple[int, bytes]:
        key, payload = self.entries.pop(slot)
        self._used -= LEAF_ENTRY_OVERHEAD + len(payload)
        return key, payload

    def take_upper_half(self) -> List[Tuple[int, bytes]]:
        """Remove and return the upper half of the entries (split support)."""
        mid = len(self.entries) // 2
        moved = self.entries[mid:]
        del self.entries[mid:]
        self._used -= sum(LEAF_ENTRY_OVERHEAD + len(p) for _, p in moved)
        return moved

    # -- serialization -----------------------------------------------------

    def serialize(self, page_lsn: int = 0) -> bytes:
        raw = self._raw
        if raw is not None:
            # The entries lie end to end from the start of the payload area.
            n_entries = len(self._keys)
            body = raw[:self._used]
        else:
            n_entries = len(self.entries)
            parts = []
            for key, payload in self.entries:
                parts.append(_LEAF_ENTRY.pack(key, len(payload)))
                parts.append(payload)
            body = b"".join(parts)
        return pack_page(
            self.page_id,
            PagedPageType.INDEX_LEAF,
            0,
            page_lsn,
            self.prev_page,
            self.next_page,
            n_entries,
            body,
        )

    @classmethod
    def decode(cls, image: PageImage) -> "LeafNode":
        """Validate the page's entries in one walk, keeping its bytes.

        Records each entry's key and end offset; builds no entry tuples and
        copies no payload. Raises :class:`PageError` for a truncated entry
        header or an entry that overruns the page.
        """
        if image.page_type is not PagedPageType.INDEX_LEAF:
            raise PageError(
                f"page {image.page_id} is {image.page_type.name}, not a leaf"
            )
        payload = bytes(image.payload)
        unpack_from = _LEAF_ENTRY.unpack_from
        n_entries = image.n_entries
        keys: List[int] = [0] * n_entries
        ends: List[int] = [0] * n_entries
        end = 0
        try:
            for slot in range(n_entries):
                keys[slot], length = unpack_from(payload, end)
                end += LEAF_ENTRY_OVERHEAD + length
                ends[slot] = end
        except struct.error:
            # An entry that overran the page leaves ``end`` past it, so the
            # next header read fails here: report the overrun, as a check
            # after each entry would have.
            if end <= len(payload):
                raise PageError(
                    f"truncated leaf entry on page {image.page_id}"
                ) from None
        if end > len(payload):
            raise PageError(
                f"leaf entry on page {image.page_id} overruns the page"
            )
        node = cls.__new__(cls)
        node.page_id = image.page_id
        node.prev_page = image.prev_page
        node.next_page = image.next_page
        node._used = end
        node._raw = payload
        node._keys = keys
        node._ends = ends
        return node


class InternalNode:
    """A decoded internal page: sorted ``(separator, child_page_id)`` rows."""

    __slots__ = ("page_id", "level", "entries")

    page_type = PagedPageType.INDEX_INTERNAL

    def __init__(
        self,
        page_id: int,
        level: int,
        entries: List[Tuple[int, int]] = None,
    ) -> None:
        self.page_id = page_id
        self.level = level
        self.entries: List[Tuple[int, int]] = entries if entries is not None else []

    @property
    def used_bytes(self) -> int:
        return len(self.entries) * INTERNAL_ENTRY_SIZE

    @property
    def overflowing(self) -> bool:
        return self.used_bytes > PAGE_CAPACITY

    def take_upper_half(self) -> List[Tuple[int, int]]:
        mid = len(self.entries) // 2
        moved = self.entries[mid:]
        del self.entries[mid:]
        return moved

    def route(self, key: int) -> int:
        """The child page that covers ``key`` (last separator ``<= key``).

        A key below slot 0's separator goes to slot 0's child: only the
        leftmost spine carries ``NEG_INF`` there, and a node off it may
        hold the real separator it was split off with.
        """
        entries = self.entries
        slot = bisect_right(entries, (key, _ABOVE_ANY_CHILD))
        return entries[slot - 1][1] if slot else entries[0][1]

    def child_slot(self, child_page_id: int) -> int:
        for slot, (_, child) in enumerate(self.entries):
            if child == child_page_id:
                return slot
        raise StorageError(
            f"internal page {self.page_id} has no entry for child "
            f"{child_page_id}"
        )

    def remove_child(self, child_page_id: int) -> None:
        """Drop the entry routing to ``child_page_id`` (empty-node unlink).

        When the removed entry was the leftmost, the new first entry takes
        over the ``NEG_INF`` separator so the node still covers the full
        key range of its subtree.
        """
        slot = self.child_slot(child_page_id)
        del self.entries[slot]
        if slot == 0 and self.entries:
            self.entries[0] = (NEG_INF, self.entries[0][1])

    # -- serialization -----------------------------------------------------

    def serialize(self, page_lsn: int = 0) -> bytes:
        payload = b"".join(
            _INTERNAL_ENTRY.pack(sep, child) for sep, child in self.entries
        )
        return pack_page(
            self.page_id,
            PagedPageType.INDEX_INTERNAL,
            self.level,
            page_lsn,
            NO_PAGE,
            NO_PAGE,
            len(self.entries),
            payload,
        )

    @classmethod
    def decode(cls, image: PageImage) -> "InternalNode":
        if image.page_type is not PagedPageType.INDEX_INTERNAL:
            raise PageError(
                f"page {image.page_id} is {image.page_type.name}, "
                "not an internal node"
            )
        size = image.n_entries * INTERNAL_ENTRY_SIZE
        if size > len(image.payload):
            raise PageError(f"truncated internal entry on page {image.page_id}")
        entries = list(_INTERNAL_ENTRY.iter_unpack(image.payload[:size]))
        return cls(image.page_id, image.level, entries)


Node = Union[LeafNode, InternalNode]


def decode_node(image: PageImage) -> Node:
    """Decode a tree page image into the matching node class."""
    if image.page_type is PagedPageType.INDEX_LEAF:
        return LeafNode.decode(image)
    if image.page_type is PagedPageType.INDEX_INTERNAL:
        return InternalNode.decode(image)
    raise PageError(
        f"page {image.page_id} ({image.page_type.name}) is not a B+-tree page"
    )
