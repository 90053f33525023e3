"""Forensic parsers: what a snapshot attacker runs over captured artifacts.

* :mod:`.redo_undo` — Frühwirt-style reconstruction of INSERT / UPDATE /
  DELETE history from the raw circular-log bytes (paper §3).
* :mod:`.binlog_reader` — ``mysqlbinlog``-equivalent event access plus the
  LSN-timestamp correlation that dates log entries older than the binlog
  window (paper §3).
* :mod:`.buffer_pool_dump` — B+-tree access-path inference from the
  ``ib_buffer_pool`` dump (paper §3).
* :mod:`.memory_scan` — query-text and token carving from heap dumps
  (paper §5).
* :mod:`.diagnostics` — SQL-injection extraction of the diagnostic tables
  (paper §4).
* :mod:`.obs_trace` — query digests and per-table access counts recovered
  from the observability trace store, including carving of evicted span
  residue out of memory dumps (new surface; same pattern as §4/§5).
* :mod:`.tablespace` — leaf rows carved from a stolen ``.ibd`` image, with
  nothing but the page format (paper §2–§3 disk theft).
* :mod:`.wal_reader` — frame-level decoding of the durable WAL segments:
  the §3 modification timeline over *all* history (segments never evict),
  checkpoint dirty-page tables, and what a recovery run itself discloses.
"""

from .redo_undo import (
    ModificationEvent,
    parse_redo_log,
    parse_undo_log,
    reconstruct_modifications,
    reconstruct_statements,
)
from .binlog_reader import LsnTimestampModel, fit_lsn_timestamp_model, read_binlog_text
from .buffer_pool_dump import InferredAccessPath, infer_access_paths, parse_dump_text
from .memory_scan import MemoryResidueReport, scan_for_query, scan_for_tokens
from .diagnostics import DiagnosticsReport, extract_diagnostics_via_injection
from .obs_trace import (
    ObsTraceReport,
    carve_spans,
    extract_trace_report,
    parse_trace_store,
    recover_query_digests,
    recover_table_access_counts,
)
from .tablespace import read_leaf_entries
from .wal_reader import (
    CheckpointView,
    ParsedWalRecord,
    parse_wal_segments,
    read_checkpoint_state,
    read_checkpoints,
    reconstruct_wal_history,
    recovery_exposure,
)

__all__ = [
    "ModificationEvent",
    "parse_redo_log",
    "parse_undo_log",
    "reconstruct_modifications",
    "reconstruct_statements",
    "LsnTimestampModel",
    "fit_lsn_timestamp_model",
    "read_binlog_text",
    "InferredAccessPath",
    "infer_access_paths",
    "parse_dump_text",
    "MemoryResidueReport",
    "scan_for_query",
    "scan_for_tokens",
    "DiagnosticsReport",
    "extract_diagnostics_via_injection",
    "ObsTraceReport",
    "carve_spans",
    "extract_trace_report",
    "parse_trace_store",
    "recover_query_digests",
    "recover_table_access_counts",
    "read_leaf_entries",
    "CheckpointView",
    "ParsedWalRecord",
    "parse_wal_segments",
    "read_checkpoint_state",
    "read_checkpoints",
    "reconstruct_wal_history",
    "recovery_exposure",
]
