"""Observability subsystem: metrics + per-query tracing, and its leakage.

The paper's central observation is that a commodity DBMS's own diagnostics
are a leakage channel: performance_schema rows, logs, and in-memory counters
record past queries in enough detail to break snapshot security. This
package builds the *observability layer* a production deployment would add
anyway — a metrics registry (:mod:`.metrics`), a per-query span tracer
(:mod:`.tracer`), and a bounded-memory trace store (:mod:`.store`) — and,
faithfully to the paper, makes the collected telemetry one more snapshot
artifact: span records live in the simulated process heap, eviction frees
them *without zeroing* (the engine's memory model), and
:mod:`repro.forensics.obs_trace` recovers query digests and per-table access
counts from the trace store alone.

Everything hangs off an :class:`.instrumentation.Instrumentation` handle
that exists only when the operator opts in
(``ServerConfig(obs_enabled=True)``); without it the query path makes no
call into this package.
"""

from .instrumentation import Instrumentation
from .metrics import (
    DEFAULT_DURATION_BUCKETS_US,
    Histogram,
    MetricsRegistry,
)
from .store import TraceStore
from .tracer import SPAN_MAGIC, SpanRecord, Tracer

__all__ = [
    "Instrumentation",
    "MetricsRegistry",
    "Histogram",
    "DEFAULT_DURATION_BUCKETS_US",
    "TraceStore",
    "Tracer",
    "SpanRecord",
    "SPAN_MAGIC",
]
