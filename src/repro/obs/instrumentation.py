"""The observability handle: one server's tracer, metrics and trace ring.

An :class:`Instrumentation` exists only while observability is on
(``ServerConfig(obs_enabled=True)``); with it off, the server holds
``None``. Each wired component (server, executor, engine, log manager,
buffer pool) takes the handle when it is built and keeps its
:class:`.tracer.Tracer` and :class:`.metrics.MetricsRegistry`, or
``None`` for both. Its statement, row and page paths test that once per
operation and otherwise make no call into this package, so a server
with observability off runs as if the package did not exist: its
behaviour and memory image are byte-identical to a build without it.
With it on, spans land in a heap-backed :class:`.store.TraceStore` and
counters in a :class:`.metrics.MetricsRegistry`, both of which become
snapshot artifacts (see :mod:`repro.snapshot.capture`).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..clock import SimClock
from ..memory import SimulatedHeap
from .metrics import MetricsRegistry
from .store import TraceStore
from .tracer import SpanRecord, Tracer

#: Default ring capacity: one slot holds one statement's span tree, so this
#: retains the last 512 statements' traces.
DEFAULT_TRACE_CAPACITY = 512


class Instrumentation:
    """Tracing and metrics for one server.

    Parameters
    ----------
    clock:
        Time source for span timestamps (a private clock when omitted).
    heap:
        Heap the trace ring allocates from; pass the server's heap so span
        records (and their eviction residue) appear in memory dumps. A
        private heap is created when omitted.
    trace_capacity:
        Record capacity of the trace ring (one record per trace).
    """

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        heap: Optional[SimulatedHeap] = None,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
    ) -> None:
        self.metrics = MetricsRegistry()
        self.trace_store = TraceStore(heap or SimulatedHeap(), trace_capacity)
        self.tracer = Tracer(clock or SimClock(), self.trace_store, self.metrics)

    # -- snapshot artifacts ------------------------------------------------

    def metrics_dump(self) -> Dict[str, float]:
        """The flat metrics dump."""
        return self.metrics.as_dict()

    def trace_raw(self) -> bytes:
        """The trace ring's retained bytes."""
        return self.trace_store.raw_bytes()

    def trace_spans(self) -> Tuple[SpanRecord, ...]:
        """Structured view of the retained spans, oldest first.

        Each ring record holds one whole trace (the tracer batches spans
        per query), so every record is walked to its end.
        """
        spans = []
        for raw in self.trace_store.raw_records():
            offset = 0
            while offset < len(raw):
                record, offset = SpanRecord.from_bytes(raw, offset)
                spans.append(record)
        return tuple(spans)
