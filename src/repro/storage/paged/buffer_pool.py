"""Frame-based buffer pool: every paged B+-tree I/O goes through here.

The pool owns a fixed budget of frames holding the decoded page objects
themselves. A page
read that misses goes to the :class:`~.page_file.PageFile`; a miss with no
free frame evicts a victim (write-back if dirty); a pinned frame can never
be evicted. Pages mutate in place in their frame and reach disk only on
eviction, explicit flush, or checkpoint.

Eviction is strict least-recently-used: an
:class:`~collections.OrderedDict` over frame keys orders the frames, and
a full pool evicts the least recent unpinned one. The same recency ledger
is the ``ib_buffer_pool`` dump (:meth:`BufferPoolManager.dump`, a
:class:`BufferPoolDump` of :class:`PageRef` lines), so the pages it lists
are *actual resident frames*.

Paper §3 ("Inferring reads"): "On shutdown and at other points during
normal server operation, MySQL creates a file in the data directory
containing the current pages in the buffer pool in LRU order ... This file
reveals information about several previous SELECT queries, such as the
paths through the B+ tree that MySQL took when evaluating them." The parser
lives in :mod:`repro.forensics.buffer_pool_dump`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ...errors import BufferPoolError
from .node import Node, decode_node
from .page_file import PageFile

if TYPE_CHECKING:
    from ...obs import Instrumentation, MetricsRegistry


@dataclass(frozen=True)
class PageRef:
    """A buffer-pool resident page: identity, level, and access count."""

    space_id: int
    page_id: int
    level: int
    access_count: int


@dataclass(frozen=True)
class BufferPoolDump:
    """The serialized dump: page refs in LRU order, most recent first.

    Like MySQL's ``ib_buffer_pool`` file this contains only page identities
    (plus, in our simulation, the tree level and access counter that InnoDB
    keeps in its in-memory page descriptors).
    """

    entries: Tuple[PageRef, ...]

    def to_text(self) -> str:
        """Render the on-disk dump format (one ``space,page`` pair per line)."""
        lines = ["# repro ib_buffer_pool dump (MRU first)"]
        for ref in self.entries:
            lines.append(
                f"{ref.space_id},{ref.page_id},{ref.level},{ref.access_count}"
            )
        return "\n".join(lines) + "\n"


class Frame:
    """One buffer-pool slot: a decoded page plus its bookkeeping."""

    __slots__ = (
        "slot",
        "file",
        "page_id",
        "key",
        "node",
        "pin_count",
        "dirty",
        "rec_lsn",
        "page_lsn",
        "access_count",
    )

    def __init__(
        self, slot: int, file: PageFile, key: Tuple[int, int], node: Node
    ) -> None:
        self.slot = slot
        self.file = file
        self.page_id = node.page_id
        #: ``(space_id, page_id)``: the page-table and recency key.
        self.key = key
        self.node = node
        self.pin_count = 1
        self.dirty = False
        #: LSN that first dirtied the page since its last write-back —
        #: the dirty-page-table entry (where redo must reach back to).
        #: 0 while clean.
        self.rec_lsn = 0
        #: LSN at the page's *latest* dirtying — the WAL rule's flush
        #: target: the log must be durable up to here before the page may
        #: reach disk, and write-back stamps it into the page header.
        self.page_lsn = 0
        self.access_count = 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Frame(slot={self.slot}, space={self.file.space_id}, "
            f"page={self.page_id}, pins={self.pin_count}, "
            f"dirty={self.dirty})"
        )


class BufferPoolManager:
    """Fixed-frame page cache shared by every tablespace of one engine.

    Parameters
    ----------
    capacity:
        Frame budget. Tests use tiny budgets (e.g. 8) to force eviction.
    lsn_source:
        Zero-argument callable returning the engine LSN; stamped into each
        page header at write-back so on-disk images order deterministically.
    log_flusher:
        WAL-rule hook: called with a dirty frame's page-LSN (its latest
        dirtying LSN) *before* that frame is written back, so the log
        covering the page's changes is durable before the page is
        (``LogManager.flush_to``). ``None`` disables the rule (standalone
        pools in tests).
    instrumentation:
        Observability handle whose metrics count hits, misses, evictions
        and write-backs; ``None`` (observability off) counts nothing.
    """

    DEFAULT_CAPACITY = 8192

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        lsn_source: Optional[Callable[[], int]] = None,
        log_flusher: Optional[Callable[[int], None]] = None,
        instrumentation: Optional["Instrumentation"] = None,
    ) -> None:
        if capacity <= 0:
            raise BufferPoolError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lsn_source = lsn_source
        self._log_flusher = log_flusher
        self._metrics: Optional["MetricsRegistry"] = (
            None if instrumentation is None else instrumentation.metrics
        )

        self._frames: List[Optional[Frame]] = [None] * capacity
        self._free_slots: List[int] = list(range(capacity - 1, -1, -1))
        self._page_table: Dict[Tuple[int, int], int] = {}
        # key -> None; insertion order tracks recency (last = MRU).
        self._recency: "OrderedDict[Tuple[int, int], None]" = OrderedDict()
        self._files: Dict[int, PageFile] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._writebacks = 0

    # -- fetch / pin discipline -------------------------------------------

    def fetch(self, file: PageFile, page_id: int) -> Frame:
        """Pin the page into a frame, reading it from disk on a miss.

        The caller owns one pin on the returned frame and must
        :meth:`unpin` it (``dirty=True`` if the node was mutated).
        """
        key = (file.space_id, page_id)
        slot = self._page_table.get(key)
        if slot is not None:
            frame = self._frames[slot]
            self._hits += 1
            if self._metrics is not None:
                self._metrics.inc("buffer_pool.hits")
            frame.access_count += 1
            self._recency.move_to_end(key)
            frame.pin_count += 1
            return frame
        self._misses += 1
        if self._metrics is not None:
            self._metrics.inc("buffer_pool.misses")
        # Decode before evicting: a page that fails to decode leaves the
        # pool as it was.
        return self._install(file, key, decode_node(file.read_page(page_id)))

    def new_page(
        self, file: PageFile, node_factory: Callable[[int], Node]
    ) -> Frame:
        """Allocate a fresh page in ``file`` and pin its (dirty) frame.

        ``node_factory`` receives the allocated page id and must return the
        decoded node to install. The frame starts dirty — the blank
        placeholder the file wrote at allocation is not the real content.
        """
        page_id = file.allocate()
        node = node_factory(page_id)
        if node.page_id != page_id:
            raise BufferPoolError(
                f"node_factory built page {node.page_id}, expected {page_id}"
            )
        frame = self._install(file, (file.space_id, page_id), node)
        self._note_dirty(frame)
        return frame

    def unpin(self, frame: Frame, dirty: bool = False) -> None:
        if frame.pin_count <= 0:
            raise BufferPoolError(
                f"unpin of unpinned frame for page {frame.page_id}"
            )
        frame.pin_count -= 1
        if dirty:
            self._note_dirty(frame)

    def mark_dirty(self, frame: Frame) -> None:
        self._note_dirty(frame)

    def _note_dirty(self, frame: Frame) -> None:
        """Dirty a frame: rec-LSN sticks to the clean→dirty edge, page-LSN
        advances with every re-dirtying."""
        lsn = self._lsn_source() if self._lsn_source is not None else 0
        if not frame.dirty:
            frame.dirty = True
            frame.rec_lsn = lsn
        frame.page_lsn = lsn

    def free_page(self, file: PageFile, page_id: int) -> None:
        """Discard a (possibly resident) page and put it on the free list.

        The frame is dropped *without* write-back: the on-disk slot keeps
        whatever image was last flushed there, so deleted rows persist as
        free-page residue (the secure-deletion gap the ``page_free_list``
        artifact exposes) instead of being scrubbed by a final flush of
        the emptied node.
        """
        key = (file.space_id, page_id)
        slot = self._page_table.get(key)
        if slot is not None:
            frame = self._frames[slot]
            if frame.pin_count > 0:
                raise BufferPoolError(
                    f"cannot free pinned page {page_id} "
                    f"(pin count {frame.pin_count})"
                )
            self._drop(frame)
        file.free(page_id)

    # -- internal frame management ----------------------------------------

    def _install(self, file: PageFile, key: Tuple[int, int], node: Node) -> Frame:
        """Put ``node`` in a frame pinned once, evicting if the pool is full."""
        self._files.setdefault(key[0], file)
        slot = self._free_slots.pop() if self._free_slots else self._evict_slot()
        frame = self._frames[slot] = Frame(slot, file, key, node)
        self._page_table[key] = slot
        self._recency[key] = None
        return frame

    def _evict_slot(self) -> int:
        """Evict a victim (writing it back if dirty); return its free slot."""
        victim = self._lru_victim()
        if victim.dirty:
            self._writeback(victim)
        self._evictions += 1
        if self._metrics is not None:
            self._metrics.inc("buffer_pool.evictions")
        del self._page_table[victim.key]
        del self._recency[victim.key]
        return victim.slot

    def _lru_victim(self) -> Frame:
        for key in self._recency:
            frame = self._frames[self._page_table[key]]
            if frame.pin_count == 0:
                return frame
        raise BufferPoolError(
            f"all {self.capacity} frames are pinned; cannot evict"
        )

    def _drop(self, frame: Frame) -> None:
        self._frames[frame.slot] = None
        self._free_slots.append(frame.slot)
        del self._page_table[frame.key]
        self._recency.pop(frame.key, None)

    def _writeback(self, frame: Frame) -> None:
        # WAL rule: the log must be durable up to the page's own LSN before
        # its image may reach disk. Flushing to the frame's page-LSN (not
        # the engine's end LSN) lets a write-back skip the flush entirely
        # when the log already covers the page's changes.
        if self._log_flusher is not None:
            self._log_flusher(frame.page_lsn)
        frame.file.write_page(
            frame.page_id, frame.node.serialize(page_lsn=frame.page_lsn)
        )
        frame.dirty = False
        frame.rec_lsn = 0
        self._writebacks += 1
        if self._metrics is not None:
            self._metrics.inc("buffer_pool.writebacks")

    # -- flushing / checkpoint --------------------------------------------

    def flush_page(self, file: PageFile, page_id: int) -> bool:
        """Write back one resident dirty page; returns whether it wrote."""
        slot = self._page_table.get((file.space_id, page_id))
        if slot is None:
            return False
        frame = self._frames[slot]
        if not frame.dirty:
            return False
        self._writeback(frame)
        return True

    def flush_all(self) -> int:
        """Write back every dirty frame (pinned ones included); count them."""
        flushed = 0
        for slot in self._page_table.values():
            frame = self._frames[slot]
            if frame.dirty:
                self._writeback(frame)
                flushed += 1
        return flushed

    def checkpoint(self) -> int:
        """Flush all dirty frames, then stamp + flush every file header.

        Returns the checkpoint LSN written into the tablespace headers —
        after this call the on-disk files are self-consistent up to it.
        The LSN always comes from the engine's WAL clock (``lsn_source``);
        the old ad-hoc ``lsn`` override is gone.
        """
        lsn = self._lsn_source() if self._lsn_source is not None else 0
        self.flush_all()
        for file in self._files.values():
            file.checkpoint_lsn = lsn
            file.flush_header()
            file.flush()
        return lsn

    # -- non-caching reads (maintenance scans) ----------------------------

    def read_node(self, file: PageFile, page_id: int) -> Node:
        """Read a page *without* touching stats, recency, or frames.

        Resident pages are served from their frame (they may be dirty and
        newer than disk); absent pages are decoded straight from the file
        and not cached. This is the ``engine.scan()`` path — maintenance
        reads must not perturb the leakage-bearing recency order.
        """
        slot = self._page_table.get((file.space_id, page_id))
        if slot is not None:
            return self._frames[slot].node
        return decode_node(file.read_page(page_id))

    # -- introspection / artifacts ----------------------------------------

    @property
    def resident_pages(self) -> int:
        return len(self._page_table)

    @property
    def pinned_frames(self) -> int:
        return sum(
            1
            for slot in self._page_table.values()
            if self._frames[slot].pin_count > 0
        )

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "writebacks": self._writebacks,
            "resident": len(self._page_table),
            "pinned": self.pinned_frames,
        }

    def dirty_page_table(self) -> Tuple[Tuple[str, int, int], ...]:
        """The ARIES dirty-page table: ``(tablespace, page_id, rec_lsn)``
        per dirty resident frame, sorted for determinism. Carried by every
        checkpoint record so recovery knows how far back redo must reach."""
        entries = []
        for slot in self._page_table.values():
            frame = self._frames[slot]
            if frame.dirty:
                entries.append((frame.file.name, frame.page_id, frame.rec_lsn))
        return tuple(sorted(entries))

    def contains(self, space_id: int, page_id: int) -> bool:
        return (space_id, page_id) in self._page_table

    def access_count(self, space_id: int, page_id: int) -> int:
        slot = self._page_table.get((space_id, page_id))
        return self._frames[slot].access_count if slot is not None else 0

    def frames(self) -> List[Frame]:
        """Resident frames, MRU-first (test/forensics introspection)."""
        return [
            self._frames[self._page_table[key]]
            for key in reversed(self._recency)
        ]

    def lru_order(self) -> List[PageRef]:
        """Resident pages as dump refs, most-recently-used first."""
        return [
            PageRef(
                space_id=frame.file.space_id,
                page_id=frame.page_id,
                level=frame.node.level,
                access_count=frame.access_count,
            )
            for frame in self.frames()
        ]

    def dump(self) -> BufferPoolDump:
        """The ``ib_buffer_pool`` artifact, emitted from actual frames."""
        return BufferPoolDump(entries=tuple(self.lru_order()))

    def clear(self) -> None:
        """Flush dirty frames and drop everything (server restart)."""
        pinned = self.pinned_frames
        if pinned:
            raise BufferPoolError(
                f"cannot clear pool with {pinned} pinned frame(s)"
            )
        self.flush_all()
        self._frames = [None] * self.capacity
        self._free_slots = list(range(self.capacity - 1, -1, -1))
        self._page_table.clear()
        self._recency.clear()
