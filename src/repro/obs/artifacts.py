"""Observability snapshot artifacts: metrics and the span trace ring.

Metrics are a queryable diagnostic surface (think SHOW STATUS or a
``/metrics`` endpoint); the span ring buffer is an in-memory structure,
withheld from un-escalated SQL injection like the heap it lives in. Both
providers are gated on ``server.obs`` existing — a server running without
instrumentation simply has no such artifacts.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..server import MySQLServer
from ..snapshot.registry import ArtifactProvider
from ..snapshot.scenario import StateQuadrant


def _obs_enabled(server: MySQLServer) -> bool:
    return server.obs is not None


def _capture_obs_metrics(server: MySQLServer) -> Dict[str, float]:
    return server.obs.metrics_dump()


def _capture_obs_trace(server: MySQLServer) -> bytes:
    return server.obs.trace_raw()


def providers() -> Tuple[ArtifactProvider, ...]:
    """The observability layer's registered leakage surfaces."""
    return (
        ArtifactProvider(
            name="obs_metrics",
            backend="mysql",
            quadrant=StateQuadrant.VOLATILE_DB,
            artifact_class="diagnostic_tables",
            capture=_capture_obs_metrics,
            enabled=_obs_enabled,
            spec_sinks=("obs_metrics",),
            forensic_reader="repro.forensics.obs_trace",
        ),
        ArtifactProvider(
            name="obs_trace_raw",
            backend="mysql",
            quadrant=StateQuadrant.VOLATILE_DB,
            artifact_class="data_structures",
            capture=_capture_obs_trace,
            requires_escalation=True,
            enabled=_obs_enabled,
            spec_sinks=("obs_trace",),
            forensic_reader="repro.forensics.obs_trace.extract_trace_report",
        ),
    )
