"""Per-query span tracer.

Each statement produces a tree of spans — ``query`` at the root, with
``parse``, ``execute``, ``plan``, ``storage.*``, and ``log.append`` children
— timestamped from :class:`repro.clock.SimClock` (the simulated time source
every other artifact uses, so trace timestamps correlate with binlog and
query-log entries).

Closed spans are buffered until their root closes; the completed trace is
then serialized in one pass and appended to the :class:`.store.TraceStore`
as one record (the batch-per-trace export every production tracer
performs, and the reason one ring slot holds one query). Every span starts
with :data:`SPAN_MAGIC` so forensic carving can find span records in raw
memory (including *evicted* ones — the store frees slots without zeroing,
exactly like the rest of the engine).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..clock import SimClock
from ..errors import ObsError, RecordError
from ..util.serialization import (
    decode_str,
    encode_str,
    encode_uint,
    read_uint,
)
from .metrics import MetricsRegistry
from .store import TraceStore

#: Serialization prefix of every span record; forensic carvers key on it.
SPAN_MAGIC = b"SPN1"

#: Fixed span head: the magic, then trace_id, span_id, parent_id,
#: started_us, duration_us as little-endian u64 — byte-identical to
#: ``SPAN_MAGIC`` followed by five ``encode_uint(..., 8)``.
_HEADER = struct.Struct("<4s5Q")

#: A span's ``(name, table, detail)``: the strings after its fixed head.
_Tail = Tuple[str, str, str]

#: Bound on the tracer's cache of encoded span tails.
_MAX_TAILS = 4096


@dataclass(frozen=True)
class SpanRecord:
    """One finished span as stored in the trace ring.

    ``parent_id`` is 0 for a root (per-query) span. Times are simulated
    seconds; serialization stores them as integer microseconds.
    """

    trace_id: int
    span_id: int
    parent_id: int
    name: str
    table: str = ""
    detail: str = ""
    started_at: float = 0.0
    duration: float = 0.0

    @property
    def is_root(self) -> bool:
        return self.parent_id == 0

    def to_bytes(self) -> bytes:
        return b"".join(
            (
                SPAN_MAGIC,
                encode_uint(self.trace_id, 8),
                encode_uint(self.span_id, 8),
                encode_uint(self.parent_id, 8),
                encode_uint(round(self.started_at * 1e6), 8),
                encode_uint(round(self.duration * 1e6), 8),
                encode_str(self.name),
                encode_str(self.table),
                encode_str(self.detail),
            )
        )

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> Tuple["SpanRecord", int]:
        """Parse one record at ``offset``; returns ``(record, new_offset)``."""
        if data[offset : offset + 4] != SPAN_MAGIC:
            raise RecordError(f"no span magic at offset {offset}")
        offset += 4
        trace_id, offset = read_uint(data, offset, 8)
        span_id, offset = read_uint(data, offset, 8)
        parent_id, offset = read_uint(data, offset, 8)
        started_us, offset = read_uint(data, offset, 8)
        duration_us, offset = read_uint(data, offset, 8)
        name, offset = decode_str(data, offset)
        table, offset = decode_str(data, offset)
        detail, offset = decode_str(data, offset)
        return (
            cls(
                trace_id=trace_id,
                span_id=span_id,
                parent_id=parent_id,
                name=name,
                table=table,
                detail=detail,
                started_at=started_us / 1e6,
                duration=duration_us / 1e6,
            ),
            offset,
        )


class Tracer:
    """Builds span trees from a LIFO stack of open spans.

    Parent/child linkage is implicit: a span opened while another is open
    becomes its child, and :meth:`end` closes the innermost one, so a span
    costs a stack entry, not an object. A step that neither moves the
    simulated clock nor opens spans of its own is one :meth:`mark`. Closed
    spans stay plain tuples until their root closes; the trace is then
    serialized in one pass, appended to ``store`` as one record, and
    counted per span name in ``metrics`` (root spans also feed the
    ``query.duration_us`` histogram).
    """

    def __init__(
        self, clock: SimClock, store: TraceStore, metrics: MetricsRegistry
    ) -> None:
        self.clock = clock
        self.store = store
        self.metrics = metrics
        #: Open spans, innermost last: (span_id, parent_id, started_at,
        #: (name, table, detail)).
        self._stack: List[Tuple[int, int, float, _Tail]] = []
        #: Closed spans of the in-flight trace, in close order: (span_id,
        #: parent_id, started_at, ended_at, (name, table, detail)).
        self._closed: List[Tuple[int, int, float, float, _Tail]] = []
        self._next_trace_id = 1
        self._next_span_id = 1
        # Encoded tails by their strings. The working set (span names ×
        # tables × statement digests) is tiny, so each is encoded once.
        self._tails: Dict[_Tail, bytes] = {}
        self._query_hist = metrics.histogram("query.duration_us")
        #: Spans per name, counted as each trace is exported.
        self._span_counts = metrics.counter_family("obs.spans")

    # -- span lifecycle ----------------------------------------------------

    def span(self, name: str, table: str = "", detail: str = "") -> None:
        """Open a span; it becomes the parent of later spans until closed."""
        stack = self._stack
        span_id = self._next_span_id
        self._next_span_id = span_id + 1
        stack.append((
            span_id,
            stack[-1][0] if stack else 0,
            self.clock.now,
            (name, table, detail),
        ))

    def end(self, detail: Optional[str] = None) -> None:
        """Close the innermost open span, with ``detail`` replacing the one
        it was opened with when given. Closing a root exports its trace."""
        stack = self._stack
        if not stack:
            raise ObsError("no span is open")
        span_id, parent_id, started_at, tail = stack.pop()
        if detail is not None:
            tail = (tail[0], tail[1], detail)
        self._closed.append((span_id, parent_id, started_at, self.clock.now, tail))
        if not stack:
            self._export()

    def mark(self, name: str, table: str = "", detail: str = "") -> None:
        """Record a span that opens and closes now: what :meth:`span`
        then :meth:`end` record, in one call."""
        stack = self._stack
        if not stack:
            self.span(name, table, detail)
            self.end()
            return
        span_id = self._next_span_id
        self._next_span_id = span_id + 1
        now = self.clock.now
        self._closed.append((span_id, stack[-1][0], now, now, (name, table, detail)))

    def unwind(self) -> None:
        """Close every open span above the root (the spans an exception
        left open), innermost first."""
        while len(self._stack) > 1:
            self.end()

    def _export(self) -> None:
        """Serialize the finished trace into one ring record and count
        its spans in the ``obs.spans`` counters (metrics are only read
        between traces)."""
        trace_id = self._next_trace_id
        self._next_trace_id = trace_id + 1
        tails = self._tails
        pack = _HEADER.pack
        parts: List[bytes] = []
        counts = self._span_counts
        # Spans mostly share their clock readings (the simulated clock
        # moves between statements), so each pair is converted once.
        last_started = last_ended = None
        for span_id, parent_id, started_at, ended_at, key in self._closed:
            if started_at != last_started or ended_at != last_ended:
                last_started, last_ended = started_at, ended_at
                started_us = round(started_at * 1e6)
                duration_us = round((ended_at - started_at) * 1e6)
            tail = tails.get(key)
            if tail is None:
                tail = b"".join(map(encode_str, key))
                if len(tails) < _MAX_TAILS:
                    tails[key] = tail
            parts += (
                pack(SPAN_MAGIC, trace_id, span_id, parent_id, started_us, duration_us),
                tail,
            )
            name = key[0]
            counts[name] = counts.get(name, 0) + 1
        self._closed.clear()
        # The root closed last: its duration is the statement's.
        self._query_hist.observe((ended_at - started_at) * 1e6)
        self.store.append(b"".join(parts))

    @property
    def open_spans(self) -> int:
        return len(self._stack)
