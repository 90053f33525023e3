"""WAL-layer snapshot artifacts: segments, dirty-page table, recovery.

The unified WAL is deliberately registered as a first-class leakage
surface in the spirit of the paper's Figure 1: flushed segments are
persistent on-disk state a disk-theft attacker reads directly (and —
unlike the circular redo/undo windows — they never evict), the live
dirty-page table is volatile engine state reachable only after code
execution, and a restart-recovery report documents what the recovery
pass itself disclosed about in-flight work.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..server import MySQLServer
from ..server.sharding import WAL_SEGMENT_NAME, qualify, qualify_dirty_pages
from ..snapshot.registry import ArtifactProvider
from ..snapshot.scenario import StateQuadrant


def _capture_wal_segments(server: MySQLServer) -> Dict[str, bytes]:
    shards = server.engine.shards
    if len(shards) == 1:
        return shards[0].wal_segments()
    return qualify([shard.wal_segments() for shard in shards], WAL_SEGMENT_NAME)


def _capture_dirty_page_table(server: MySQLServer) -> Tuple:
    shards = server.engine.shards
    if len(shards) == 1:
        return shards[0].dirty_page_table()
    return qualify_dirty_pages([shard.dirty_page_table() for shard in shards])


def _capture_recovery_report(server: MySQLServer) -> Optional[Dict[str, object]]:
    report = server.engine.last_recovery_report
    return report.to_dict() if report is not None else None


def _was_recovered(server: MySQLServer) -> bool:
    return getattr(server.engine, "last_recovery_report", None) is not None


def providers() -> Tuple[ArtifactProvider, ...]:
    """The WAL layer's registered leakage surfaces."""
    return (
        ArtifactProvider(
            name="wal_segments",
            backend="mysql",
            quadrant=StateQuadrant.PERSISTENT_DB,
            artifact_class="logs",
            capture=_capture_wal_segments,
            spec_sinks=("redo_log", "undo_log"),
            # The durable superset of the §3 circular-log surface: frames
            # never evict, so reconstruction reaches arbitrarily far back.
            forensic_reader="repro.forensics.wal_reader.parse_wal_segments",
        ),
        ArtifactProvider(
            name="dirty_page_table",
            backend="mysql",
            quadrant=StateQuadrant.VOLATILE_DB,
            artifact_class="data_structures",
            capture=_capture_dirty_page_table,
            requires_escalation=True,
            # (table, page, rec-LSN) triples date each pending write-back;
            # checkpoints also persist them into the WAL (read_checkpoints).
            forensic_reader="repro.forensics.wal_reader.read_checkpoints",
        ),
        ArtifactProvider(
            name="recovery_report",
            backend="mysql",
            quadrant=StateQuadrant.PERSISTENT_DB,
            artifact_class="logs",
            capture=_capture_recovery_report,
            enabled=_was_recovered,
            forensic_reader="repro.forensics.wal_reader.recovery_exposure",
        ),
    )
