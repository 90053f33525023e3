"""The ``performance_schema`` statement tables.

Paper §4 enumerates the statement-history surfaces this module reproduces:

* ``events_statements_current`` — the statement each thread is executing
  (or last executed);
* ``events_statements_history`` — the most recent statements per thread
  (default **10**, configurable, like
  ``performance_schema_events_statements_history_size``);
* ``events_statements_summary_by_digest`` — per-"query type" statistics
  since last restart, keyed by the canonicalization in
  :mod:`repro.sql.digest`. This is the table that "will count the number of
  queries made for each plaintext" under SPLASHE (paper §6).

Statement texts are copied into the simulated heap; history eviction frees
(without zeroing) the old copy — one more way query text outlives the
structures that referenced it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional

from ..errors import ServerError
from ..memory import SimulatedHeap

#: MySQL default: 10 statements of history per thread.
DEFAULT_HISTORY_SIZE = 10


class StatementEvent(NamedTuple):
    """One executed statement as performance_schema records it."""

    thread_id: int
    event_id: int
    sql_text: str
    digest: str
    timestamp: int
    duration: float
    rows_examined: int
    rows_sent: int
    text_addr: int


@dataclass
class DigestSummary:
    """Aggregate statistics for one query type (digest)."""

    digest: str
    digest_text: str
    count_star: int = 0
    sum_rows_examined: int = 0
    sum_rows_sent: int = 0
    sum_duration: float = 0.0
    first_seen: int = 0
    last_seen: int = 0


class PerformanceSchema:
    """Statement instrumentation: current, history, and digest summaries."""

    def __init__(
        self,
        heap: SimulatedHeap,
        history_size: int = DEFAULT_HISTORY_SIZE,
        enabled: bool = True,
    ) -> None:
        if history_size <= 0:
            raise ServerError(f"history size must be positive, got {history_size}")
        self.enabled = enabled
        self.history_size = history_size
        self._heap = heap
        self._next_event_id = 1
        self._current: Dict[int, StatementEvent] = {}
        self._history: Dict[int, List[StatementEvent]] = {}
        self._digests: "OrderedDict[str, DigestSummary]" = OrderedDict()
        self._digest_addrs: Dict[str, int] = {}
        self._statements_total = 0

    # -- recording ---------------------------------------------------------

    def record_statement(
        self,
        thread_id: int,
        sql_text: str,
        digest: str,
        digest_text: str,
        timestamp: int,
        duration: float,
        rows_examined: int,
        rows_sent: int,
    ) -> Optional[StatementEvent]:
        """Account one finished statement across all three tables.

        ``digest`` and ``digest_text`` are the statement's digest and its
        canonical text (:mod:`repro.sql.digest`).
        """
        if not self.enabled:
            return None
        text_addr = self._heap.alloc_str(sql_text, tag="perf/statement")
        event = StatementEvent(
            thread_id=thread_id,
            event_id=self._next_event_id,
            sql_text=sql_text,
            digest=digest,
            timestamp=timestamp,
            duration=duration,
            rows_examined=rows_examined,
            rows_sent=rows_sent,
            text_addr=text_addr,
        )
        self._next_event_id += 1
        self._statements_total += 1

        self._current[thread_id] = event

        ring = self._history.setdefault(thread_id, [])
        ring.append(event)
        while len(ring) > self.history_size:
            evicted = ring.pop(0)
            # Freed, not zeroed: evicted history text persists in the heap.
            self._heap.free(evicted.text_addr)

        summary = self._digests.get(digest)
        if summary is None:
            self._digest_addrs[digest] = self._heap.alloc_str(
                digest_text, tag="perf/digest"
            )
            summary = DigestSummary(
                digest=digest,
                digest_text=digest_text,
                first_seen=timestamp,
            )
            self._digests[digest] = summary
        summary.count_star += 1
        summary.sum_rows_examined += rows_examined
        summary.sum_rows_sent += rows_sent
        summary.sum_duration += duration
        summary.last_seen = timestamp
        return event

    # -- table views --------------------------------------------------------

    def events_statements_current(self) -> List[StatementEvent]:
        """One row per thread: its current/most recent statement."""
        return [self._current[tid] for tid in sorted(self._current)]

    def events_statements_history(
        self, thread_id: Optional[int] = None
    ) -> List[StatementEvent]:
        """History rows (most recent last), optionally for one thread."""
        if thread_id is not None:
            return list(self._history.get(thread_id, []))
        rows: List[StatementEvent] = []
        for tid in sorted(self._history):
            rows.extend(self._history[tid])
        return rows

    def events_statements_summary_by_digest(self) -> List[DigestSummary]:
        """Per-digest aggregates since last restart."""
        return list(self._digests.values())

    def digest_histogram(self) -> Dict[str, int]:
        """``digest_text -> count_star`` — the SPLASHE attack's input."""
        return {s.digest_text: s.count_star for s in self._digests.values()}

    @property
    def statements_total(self) -> int:
        return self._statements_total

    def restart(self) -> None:
        """Server restart: statistics reset (heap copies persist anyway)."""
        for ring in self._history.values():
            for event in ring:
                self._heap.free(event.text_addr)
        for addr in self._digest_addrs.values():
            self._heap.free(addr)
        self._current.clear()
        self._history.clear()
        self._digests.clear()
        self._digest_addrs.clear()
        self._statements_total = 0
