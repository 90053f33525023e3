"""The MySQL query cache.

Paper §5: "the query cache in MySQL is an internal key-value map that can be
configured to keep the results of certain SELECT queries so that answering
them is essentially free. Unlike the buffer pool, this cache is strictly
internal to MySQL and cannot be exposed via information_schema, but will be
visible to a whole-system snapshot attacker."

Entries key on the *exact* statement text (like MySQL) and are invalidated
by any write to a table they touch. The server reads and fills the cache
only for SELECTs outside a transaction, which see exactly the committed
state, and invalidates every table a transaction wrote when it commits. Query text and result images live in
the simulated heap, so the cache contributes full query texts (including
search tokens) to any memory snapshot.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ServerError
from ..memory import SimulatedHeap


@dataclass
class QueryCacheEntry:
    """A cached SELECT: its text, result rows, and heap residence."""

    statement: str
    tables: Tuple[str, ...]
    rows: Tuple[tuple, ...]
    text_addr: int
    result_addr: int


class QueryCache:
    """Exact-text query cache with per-table invalidation.

    Disabled by default, matching MySQL 5.7's shipping configuration; the
    paper notes it "can be configured" on, which several experiments do.
    """

    def __init__(
        self,
        heap: SimulatedHeap,
        enabled: bool = False,
        max_entries: int = 1024,
    ) -> None:
        if max_entries <= 0:
            raise ServerError(f"query cache size must be positive, got {max_entries}")
        self.enabled = enabled
        self.max_entries = max_entries
        self._heap = heap
        self._entries: "OrderedDict[str, QueryCacheEntry]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._invalidations = 0

    def lookup(self, statement: str) -> Optional[QueryCacheEntry]:
        """Return the cached entry for ``statement`` (exact match), if any."""
        if not self.enabled:
            return None
        entry = self._entries.get(statement)
        if entry is None:
            self._misses += 1
            return None
        self._entries.move_to_end(statement)
        self._hits += 1
        return entry

    def store(
        self, statement: str, tables: Tuple[str, ...], rows: List[tuple]
    ) -> None:
        """Cache a SELECT result, evicting LRU entries past capacity."""
        if not self.enabled or statement in self._entries:
            return
        text_addr = self._heap.alloc_str(statement, tag="qcache/text")
        result_addr = self._heap.alloc_bytes(
            repr(rows).encode("utf-8"), tag="qcache/result"
        )
        self._entries[statement] = QueryCacheEntry(
            statement=statement,
            tables=tuple(tables),
            rows=tuple(tuple(r) for r in rows),
            text_addr=text_addr,
            result_addr=result_addr,
        )
        while len(self._entries) > self.max_entries:
            _, evicted = self._entries.popitem(last=False)
            self._release(evicted)

    def invalidate_table(self, table: str) -> int:
        """Drop every entry that touched ``table``; returns entries dropped."""
        doomed = [
            stmt for stmt, entry in self._entries.items() if table in entry.tables
        ]
        for stmt in doomed:
            self._release(self._entries.pop(stmt))
        self._invalidations += len(doomed)
        return len(doomed)

    def _release(self, entry: QueryCacheEntry) -> None:
        # Freed, not zeroed: evicted cache entries keep leaking in snapshots.
        self._heap.free(entry.text_addr)
        self._heap.free(entry.result_addr)

    @property
    def num_entries(self) -> int:
        return len(self._entries)

    @property
    def statements(self) -> List[str]:
        """Cached statement texts (what a memory snapshot recovers)."""
        return list(self._entries)

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "hits": self._hits,
            "misses": self._misses,
            "invalidations": self._invalidations,
            "entries": len(self._entries),
        }
