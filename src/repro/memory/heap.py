"""A byte-addressed simulated heap with optional (default OFF) secure deletion.

Paper §5: "This leak is not surprising since MySQL is not designed for
security-critical operations and does not implement secure deletion."

Two allocators are modeled:

* :class:`SimulatedHeap` — a malloc-style allocator. ``free`` pushes the
  block onto a per-size free list **without zeroing**; the bytes persist
  until a same-size allocation reuses that exact slot. Setting
  ``secure_delete=True`` (the ablation of experiment E6) zeroes on free.
* :class:`BumpArena` — MySQL's ``mem_root``: a bump allocator over heap
  chunks. ``reset()`` rewinds the cursor without zeroing, so the previous
  query's strings survive until overwritten by a later, larger allocation
  at the same offsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import MemoryModelError


@dataclass(frozen=True)
class HeapStats:
    """Allocator counters."""

    total_allocs: int
    total_frees: int
    live_blocks: int
    reused_blocks: int
    arena_size: int


@dataclass
class _Block:
    addr: int
    size: int
    tag: str
    free: bool


class SimulatedHeap:
    """A growable arena with exact-size free-list reuse and no zeroing.

    Parameters
    ----------
    secure_delete:
        When ``True``, freed blocks are zeroed — the countermeasure MySQL
        lacks. Default ``False`` to match reality.
    """

    def __init__(self, secure_delete: bool = False) -> None:
        self.secure_delete = secure_delete
        self._arena = bytearray()
        self._blocks: Dict[int, _Block] = {}
        self._free_lists: Dict[int, List[int]] = {}
        self._total_allocs = 0
        self._total_frees = 0
        self._reused = 0

    # -- allocation -----------------------------------------------------------

    def malloc(self, size: int, tag: str = "") -> int:
        """Allocate ``size`` bytes; returns the block address.

        Reuses an exact-size freed block when available (first-fit on the
        per-size free list), otherwise grows the arena. Reused blocks are
        NOT zeroed: the previous contents remain until overwritten.
        """
        if size <= 0:
            raise MemoryModelError(f"allocation size must be positive, got {size}")
        free_list = self._free_lists.get(size)
        if free_list:
            addr = free_list.pop(0)
            block = self._blocks[addr]
            block.free = False
            block.tag = tag
            self._reused += 1
        else:
            addr = len(self._arena)
            self._arena.extend(b"\x00" * size)
            self._blocks[addr] = _Block(addr=addr, size=size, tag=tag, free=False)
        self._total_allocs += 1
        return addr

    def free(self, addr: int) -> None:
        """Release a block. Zeroes its bytes only under ``secure_delete``."""
        block = self._blocks.get(addr)
        if block is None:
            raise MemoryModelError(f"free of unknown address {addr}")
        if block.free:
            raise MemoryModelError(f"double free of address {addr}")
        block.free = True
        if self.secure_delete:
            self._arena[addr : addr + block.size] = b"\x00" * block.size
        self._free_lists.setdefault(block.size, []).append(addr)
        self._total_frees += 1

    # -- access ------------------------------------------------------------------

    def write(self, addr: int, data: bytes, offset: int = 0) -> None:
        """Write ``data`` into a live block at ``offset``."""
        block = self._require_live(addr)
        if offset < 0 or offset + len(data) > block.size:
            raise MemoryModelError(
                f"write of {len(data)} bytes at offset {offset} overflows "
                f"block of {block.size} bytes"
            )
        self._arena[addr + offset : addr + offset + len(data)] = data

    def read(self, addr: int, size: Optional[int] = None) -> bytes:
        """Read from a live block (whole block when ``size`` is ``None``)."""
        block = self._require_live(addr)
        size = block.size if size is None else size
        if size < 0 or size > block.size:
            raise MemoryModelError(
                f"read of {size} bytes from block of {block.size} bytes"
            )
        return bytes(self._arena[addr : addr + size])

    def alloc_bytes(self, data: bytes, tag: str = "") -> int:
        """Allocate a block sized for ``data`` and copy it in.

        Empty payloads get a 1-byte block (malloc-style: a valid, unique
        address even for zero-length requests).
        """
        addr = self.malloc(max(len(data), 1), tag)
        self.write(addr, data)
        return addr

    def alloc_str(self, text: str, tag: str = "") -> int:
        """Allocate and store a UTF-8 string (the common query-text case)."""
        return self.alloc_bytes(text.encode("utf-8"), tag)

    def _require_live(self, addr: int) -> _Block:
        block = self._blocks.get(addr)
        if block is None:
            raise MemoryModelError(f"access to unknown address {addr}")
        if block.free:
            raise MemoryModelError(f"use-after-free at address {addr}")
        return block

    # -- inspection -----------------------------------------------------------------

    @property
    def stats(self) -> HeapStats:
        live = sum(1 for b in self._blocks.values() if not b.free)
        return HeapStats(
            total_allocs=self._total_allocs,
            total_frees=self._total_frees,
            live_blocks=live,
            reused_blocks=self._reused,
            arena_size=len(self._arena),
        )

    def snapshot(self) -> bytes:
        """A full copy of the arena — what a memory dump captures."""
        return bytes(self._arena)

    def block_tag(self, addr: int) -> str:
        """Debug helper: the tag of the block at ``addr``."""
        block = self._blocks.get(addr)
        if block is None:
            raise MemoryModelError(f"unknown address {addr}")
        return block.tag


class BumpArena:
    """A ``mem_root``-style bump allocator carved out of the heap.

    Each arena owns heap chunks of ``chunk_size`` bytes. ``alloc`` bumps a
    cursor; ``reset`` rewinds to the start of the first chunk and frees the
    overflow chunks back to the heap (unzeroed) — so earlier contents
    persist wherever the next query writes less data.
    """

    def __init__(self, heap: SimulatedHeap, chunk_size: int = 4096, tag: str = "arena") -> None:
        if chunk_size <= 0:
            raise MemoryModelError(f"chunk size must be positive, got {chunk_size}")
        self._heap = heap
        self._chunk_size = chunk_size
        self._tag = tag
        self._chunks: List[int] = [heap.malloc(chunk_size, tag=f"{tag}/chunk0")]
        self._cursor = 0  # offset within the current (last) chunk

    def alloc(self, data: bytes) -> int:
        """Copy ``data`` into the arena; returns its heap address."""
        if len(data) > self._chunk_size:
            # Oversized allocations get dedicated chunks, like mem_root.
            addr = self._heap.malloc(len(data), tag=f"{self._tag}/big")
            self._heap.write(addr, data)
            self._chunks.append(addr)
            self._cursor = self._chunk_size  # current chunk is full
            return addr
        if self._cursor + len(data) > self._chunk_size:
            self._chunks.append(
                self._heap.malloc(self._chunk_size, tag=f"{self._tag}/chunk")
            )
            self._cursor = 0
        addr = self._chunks[-1] + self._cursor
        self._heap.write(self._chunks[-1], data, offset=self._cursor)
        self._cursor += len(data)
        return addr

    def alloc_str(self, text: str) -> int:
        return self.alloc(text.encode("utf-8"))

    def alloc_strs(self, texts: Sequence[str]) -> None:
        """Copy each string in order, as one :meth:`alloc_str` each would.

        When they all fit the current chunk they go to the heap in one
        write, which leaves the same bytes the one-by-one copies would.
        """
        data = "".join(texts).encode("utf-8")
        if self._cursor + len(data) > self._chunk_size:
            for text in texts:  # crosses a chunk boundary: one at a time
                self.alloc(text.encode("utf-8"))
            return
        self._heap.write(self._chunks[-1], data, offset=self._cursor)
        self._cursor += len(data)

    def reset(self) -> None:
        """End-of-statement cleanup: rewind, free overflow chunks.

        Like ``mem_root`` this does NOT zero anything — unless the heap is
        configured with ``secure_delete``, in which case the rewound region
        is wiped too (the countermeasure ablation of experiment E6).
        """
        if self._heap.secure_delete and self._chunks:
            self._heap.write(self._chunks[0], b"\x00" * self._chunk_size)
        for chunk in self._chunks[1:]:
            self._heap.free(chunk)
        del self._chunks[1:]
        self._cursor = 0

    def release(self) -> None:
        """Connection close: free every chunk (still unzeroed by default)."""
        for chunk in self._chunks:
            self._heap.free(chunk)
        self._chunks = []
        self._cursor = 0

    @property
    def num_chunks(self) -> int:
        return len(self._chunks)
