"""Engine-layer snapshot artifacts: on-disk logs (paper §3, §4).

Every write-ahead / recovery / replication log the storage engine maintains
is persistent DB state: disk theft alone yields it, and the forensic
readers in :mod:`repro.forensics` reconstruct plaintext history from it.
"""

from __future__ import annotations

from typing import Tuple

from ..server import MySQLServer
from ..server.sharding import (
    binlog_sections,
    merge_binlog_events,
    merge_chain_stats,
)
from ..snapshot.registry import ArtifactProvider
from ..snapshot.scenario import StateQuadrant


# A single engine's artifact is read as it is, with no merge step; several
# shards' artifacts are merged by repro.server.sharding. Each provider keeps
# its own one-shard branch for speed: benchmarks/bench_snapshot_capture.py
# bounds the registry walk at 10% over hand-inlined reads, and sending one
# engine's values through the merge helpers puts the walk over that bound
# in most runs.


def _capture_redo_log(server: MySQLServer) -> bytes:
    shards = server.engine.shards
    if len(shards) == 1:
        return shards[0].redo_log.raw_bytes()
    return b"".join([shard.redo_log.raw_bytes() for shard in shards])


def _capture_undo_log(server: MySQLServer) -> bytes:
    shards = server.engine.shards
    if len(shards) == 1:
        return shards[0].undo_log.raw_bytes()
    return b"".join([shard.undo_log.raw_bytes() for shard in shards])


def _capture_binlog_events(server: MySQLServer) -> tuple:
    shards = server.engine.shards
    if len(shards) == 1:
        return tuple(shards[0].binlog.events)
    return merge_binlog_events([shard.binlog.events for shard in shards])


def _capture_binlog_text(server: MySQLServer) -> str:
    shards = server.engine.shards
    if len(shards) == 1:
        return shards[0].binlog.to_text()
    return binlog_sections([shard.binlog.to_text() for shard in shards])


def _capture_general_log(server: MySQLServer) -> tuple:
    return tuple(server.general_log.entries)


def _capture_slow_log(server: MySQLServer) -> tuple:
    return tuple(server.slow_log.entries)


def _capture_shard_log_sizes(server: MySQLServer) -> tuple:
    return tuple(server.engine.shard_stats())


def _is_sharded(server: MySQLServer) -> bool:
    return len(server.engine.shards) > 1


def _capture_mvcc_chains(server: MySQLServer) -> tuple:
    shards = server.engine.shards
    if len(shards) == 1:
        return shards[0].mvcc_chain_stats()
    return merge_chain_stats([shard.mvcc_chain_stats() for shard in shards])


def providers() -> Tuple[ArtifactProvider, ...]:
    """The engine's registered leakage surfaces."""
    return (
        ArtifactProvider(
            name="redo_log_raw",
            backend="mysql",
            quadrant=StateQuadrant.PERSISTENT_DB,
            artifact_class="logs",
            capture=_capture_redo_log,
            spec_sinks=("redo_log",),
            forensic_reader="repro.forensics.redo_undo.parse_redo_log",
        ),
        ArtifactProvider(
            name="undo_log_raw",
            backend="mysql",
            quadrant=StateQuadrant.PERSISTENT_DB,
            artifact_class="logs",
            capture=_capture_undo_log,
            spec_sinks=("undo_log",),
            forensic_reader="repro.forensics.redo_undo.parse_undo_log",
        ),
        ArtifactProvider(
            name="binlog_events",
            backend="mysql",
            quadrant=StateQuadrant.PERSISTENT_DB,
            artifact_class="logs",
            capture=_capture_binlog_events,
            spec_sinks=("binlog",),
            forensic_reader="repro.forensics.binlog_reader.fit_lsn_timestamp_model",
        ),
        ArtifactProvider(
            name="binlog_text",
            backend="mysql",
            quadrant=StateQuadrant.PERSISTENT_DB,
            artifact_class="logs",
            capture=_capture_binlog_text,
            spec_sinks=("binlog",),
            forensic_reader="repro.forensics.binlog_reader.read_binlog_text",
        ),
        ArtifactProvider(
            name="general_log_entries",
            backend="mysql",
            quadrant=StateQuadrant.PERSISTENT_DB,
            artifact_class="logs",
            capture=_capture_general_log,
            spec_sinks=("general_log",),
            forensic_reader="repro.forensics.diagnostics",
        ),
        ArtifactProvider(
            name="slow_log_entries",
            backend="mysql",
            quadrant=StateQuadrant.PERSISTENT_DB,
            artifact_class="logs",
            capture=_capture_slow_log,
            spec_sinks=("slow_log",),
            forensic_reader="repro.forensics.diagnostics",
        ),
        # Per-shard log sizes: the byte/event counts of each shard's redo,
        # undo, and binlog surface reveal the shard key's hash histogram —
        # disk theft alone recovers the key distribution.
        ArtifactProvider(
            name="shard_log_sizes",
            backend="mysql",
            quadrant=StateQuadrant.PERSISTENT_DB,
            artifact_class="logs",
            capture=_capture_shard_log_sizes,
            enabled=_is_sharded,
            spec_sinks=("shard_logs",),
            forensic_reader="repro.forensics.diagnostics",
        ),
        # MVCC version chains: which rows concurrent transactions contended
        # on, with retained before-images — in-memory write history that
        # never reached the disk logs.
        ArtifactProvider(
            name="mvcc_version_chains",
            backend="mysql",
            quadrant=StateQuadrant.VOLATILE_DB,
            artifact_class="data_structures",
            capture=_capture_mvcc_chains,
            requires_escalation=True,
            spec_sinks=("mvcc_chains",),
            forensic_reader="repro.forensics.diagnostics",
        ),
    )
