"""Storage-layer snapshot artifacts: tablespaces and the buffer pool.

The on-disk tablespace images and the periodic buffer-pool dump file are
persistent DB state (classed under Figure 1's "logs" column, which covers
the on-disk file surface broadly); the *live* buffer pool is an in-memory
structure — SQL injection needs the code-execution escalation to reach it.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..server import MySQLServer
from ..snapshot.registry import ArtifactProvider
from ..snapshot.scenario import StateQuadrant
from .paged import BufferPoolDump


def _capture_buffer_pool_dump(server: MySQLServer) -> BufferPoolDump:
    return server.last_buffer_pool_dump


def _capture_tablespace_images(server: MySQLServer) -> Dict[str, bytes]:
    # The literal .ibd file bytes — header page, index pages, and
    # freed-page residue included. Polymorphic over StorageEngine /
    # ShardedEngine (the sharded engine returns per-shard-qualified names,
    # e.g. ``t@shard3``).
    return server.engine.tablespace_images()


def _capture_live_buffer_pool(server: MySQLServer) -> BufferPoolDump:
    return server.engine.buffer_pool.dump()


def _capture_page_free_list(server: MySQLServer) -> Dict[str, list]:
    return server.engine.free_list_info()


def _capture_checkpoint_lsn(server: MySQLServer) -> Dict[str, int]:
    return server.engine.checkpoint_lsns()


def providers() -> Tuple[ArtifactProvider, ...]:
    """The storage layer's registered leakage surfaces."""
    return (
        ArtifactProvider(
            name="buffer_pool_dump",
            backend="mysql",
            quadrant=StateQuadrant.PERSISTENT_DB,
            artifact_class="logs",
            capture=_capture_buffer_pool_dump,
            forensic_reader="repro.forensics.buffer_pool_dump.infer_access_paths",
        ),
        ArtifactProvider(
            name="tablespace_images",
            backend="mysql",
            quadrant=StateQuadrant.PERSISTENT_DB,
            artifact_class="logs",
            capture=_capture_tablespace_images,
            spec_sinks=("tablespace",),
            forensic_reader="repro.forensics.tablespace.read_leaf_entries",
        ),
        ArtifactProvider(
            name="page_free_list",
            backend="mysql",
            quadrant=StateQuadrant.PERSISTENT_DB,
            artifact_class="logs",
            capture=_capture_page_free_list,
            forensic_reader="repro.attacks",
        ),
        ArtifactProvider(
            name="checkpoint_lsn",
            backend="mysql",
            quadrant=StateQuadrant.PERSISTENT_DB,
            artifact_class="logs",
            capture=_capture_checkpoint_lsn,
            # The per-table checkpoint LSN anchors the E3-style
            # LSN<->timestamp correlation, and joined against the WAL's
            # logged dirty-page tables it also exposes which pages were
            # ahead of the headers at each checkpoint.
            forensic_reader="repro.forensics.wal_reader.read_checkpoint_state",
        ),
        ArtifactProvider(
            name="live_buffer_pool",
            backend="mysql",
            quadrant=StateQuadrant.VOLATILE_DB,
            artifact_class="data_structures",
            capture=_capture_live_buffer_pool,
            requires_escalation=True,
            forensic_reader="repro.forensics.buffer_pool_dump.infer_access_paths",
        ),
    )
