"""The storage-engine facade.

Glues together tablespaces, B+ trees, the buffer pool, the redo/undo logs,
and the binlog — the full set of InnoDB artifacts the paper's Section 3
forensics consumes. The server layer (:mod:`repro.server`) drives this with
parsed SQL; everything here works in terms of ``(table, key, row bytes)``.
"""

from __future__ import annotations

import enum
import os
import shutil
import tempfile
import weakref
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..clock import SimClock
from ..errors import EngineError, LogError, TransactionError
from ..obs import Instrumentation, MetricsRegistry, Tracer
from ..storage.paged import AccessPath, BufferPoolManager, PagedTable, PageFile
from ..wal.log_manager import DEFAULT_CAPACITY, DEFAULT_SEGMENT_BYTES, LogManager
from ..wal.records import RedoRecord, _change_bodies, _encode_body
from .binlog import Binlog
from .mvcc import MVCCManager
from .transaction import Transaction


class ChangeOp(enum.Enum):
    """Row-change kinds shared by logs and forensics."""

    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


# The op strings the write path stamps on every log record and change.
_INSERT = ChangeOp.INSERT.value
_UPDATE = ChangeOp.UPDATE.value
_DELETE = ChangeOp.DELETE.value


def _remove_private_dir(data_dir: str, closers: List[Callable[[], None]]) -> None:
    """Close an engine's files without writing them, then remove its
    private directory (the finalizer of an engine that owns one)."""
    for close in closers:
        close()
    shutil.rmtree(data_dir, True)


class StorageEngine:
    """An InnoDB-like engine instance.

    Concurrent transactions interleave under MVCC (snapshot isolation,
    first-writer-wins conflicts). An engine is its own single shard
    (:attr:`shards`), so code that reads every shard's artifacts serves
    :class:`~repro.server.sharding.ShardedEngine` and this class alike.

    Parameters
    ----------
    clock:
        Simulated clock used for binlog timestamps.
    buffer_pool_capacity:
        Resident-page budget of the shared buffer pool.
    redo_capacity / undo_capacity:
        Circular-log byte budgets (the paper's "default size (50 Mb)"
        combined is the default here: 25 MB each).
    binlog_enabled:
        Production deployments enable it; default mirrors MySQL (off).
    instrumentation:
        Observability handle (:mod:`repro.obs`); storage operations, log
        appends and the buffer pool emit spans/counters through it. With
        ``None`` (observability off) they make no call into the layer.
    space_id_base:
        Offset added to tablespace ids; sharded deployments give each
        shard a disjoint space-id range so combined buffer-pool dumps stay
        unambiguous (and leak which shard served each page).
    data_dir:
        Directory holding the ``<table>.ibd`` files (single-file 4 KB-page
        tablespaces, :mod:`repro.storage.paged`) and the ``wal/``
        segments. When ``None`` a private temporary directory is created
        and removed when the engine is garbage-collected (or
        :meth:`close`\\ d).
    wal_segment_bytes:
        Size of each WAL segment file under ``<data_dir>/wal/``: files
        are preallocated to it, and the log rolls to a new one at it.
    wal_sync:
        When ``True`` (default) every group flush ``fdatasync``\\ s the
        active WAL segment (``fsync`` where the platform has no
        ``fdatasync``). Crash tests that drive thousands of
        transactions turn this off for speed; the flush boundary semantics
        are identical.
    """

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        buffer_pool_capacity: int = BufferPoolManager.DEFAULT_CAPACITY,
        redo_capacity: int = DEFAULT_CAPACITY,
        undo_capacity: int = DEFAULT_CAPACITY,
        binlog_enabled: bool = False,
        instrumentation: Optional[Instrumentation] = None,
        space_id_base: int = 0,
        data_dir: Optional[str] = None,
        wal_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        wal_sync: bool = True,
    ) -> None:
        self.clock = clock or SimClock()
        # Observability, or ``None`` for both while it is off. A storage
        # step neither moves the simulated clock nor opens spans of its
        # own, so it is one ``mark`` before the step: the span a span
        # around the step would record, failing step included.
        self._tracer: Optional[Tracer] = None
        self._metrics: Optional[MetricsRegistry] = None
        if instrumentation is not None:
            self._tracer = instrumentation.tracer
            self._metrics = instrumentation.metrics
        # What closes each open file without writing it: the finalizer of a
        # private directory holds these, never the engine, so an engine
        # dropped without close() has its files closed before the
        # directory goes.
        self._file_closers: List[Callable[[], None]] = []
        self._dir_finalizer = None
        if data_dir is None:
            data_dir = tempfile.mkdtemp(prefix="repro-paged-")
            self._dir_finalizer = weakref.finalize(
                self, _remove_private_dir, data_dir, self._file_closers
            )
        else:
            os.makedirs(data_dir, exist_ok=True)
        self._data_dir = data_dir
        self.wal = LogManager(
            wal_dir=os.path.join(data_dir, "wal"),
            redo_capacity=redo_capacity,
            undo_capacity=undo_capacity,
            segment_bytes=wal_segment_bytes,
            sync=wal_sync,
            instrumentation=instrumentation,
        )
        self._file_closers.append(self.wal.crash)
        self.lsn = self.wal.lsn
        #: The circular redo/undo logs of paper §3: read-only windows that
        #: :attr:`wal` computes from its frames when they are read.
        self.redo_log = self.wal.redo_log
        self.undo_log = self.wal.undo_log
        self.binlog = Binlog(enabled=binlog_enabled)
        self.buffer_pool = BufferPoolManager(
            buffer_pool_capacity,
            lsn_source=lambda: self.lsn.current,
            log_flusher=self.wal.flush_to,
            instrumentation=instrumentation,
        )
        #: Set by :func:`repro.wal.recovery.recover_engine` on an engine it
        #: rebuilt; ``None`` on a cleanly started engine.
        self.last_recovery_report = None
        self._crashed = False
        self._tables: Dict[str, Tuple] = {}
        self._next_space_id = space_id_base + 1
        self._next_txn_id = 1
        self.mvcc = MVCCManager()

    # -- table management ----------------------------------------------------

    def register_table(self, name: str) -> None:
        """Create the tablespace and clustered index for ``name``.

        The tablespace is one ``<name>.ibd`` file under ``data_dir``; an
        existing file is reopened (its header carries the index roots),
        which is how a restarted engine finds its data.
        """
        if name in self._tables:
            raise EngineError(f"table {name!r} already registered")
        path = os.path.join(self._data_dir, f"{name}.ibd")
        page_file = PageFile(path, name, space_id=self._next_space_id)
        self._file_closers.append(page_file.crash_close)
        self._next_space_id = max(self._next_space_id, page_file.space_id) + 1
        table = PagedTable(self.buffer_pool, page_file)
        self._tables[name] = (page_file, table)
        self.wal.append_table_register(name)
        # DDL is rare: flush so the registration is durable alongside the
        # .ibd file it just created. A crash before any other flush would
        # otherwise leave a tablespace recovery never scans or moves
        # aside — a later re-registration of the same name could resurrect
        # its stale pages.
        self.wal.flush()

    def has_table(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def tablespace(self, name: str) -> PageFile:
        """The table's ``.ibd`` file (``space_id``/``name``/``to_bytes()``)."""
        return self._lookup(name)[0]

    def btree(self, name: str) -> PagedTable:
        """The table's clustered index plus its secondary indexes."""
        return self._lookup(name)[1]

    def _lookup(self, name: str) -> Tuple:
        try:
            return self._tables[name]
        except KeyError:
            raise EngineError(f"unknown table {name!r}") from None

    # -- transactions ----------------------------------------------------------

    def begin(self, txn_id: Optional[int] = None) -> Transaction:
        """Start a transaction.

        ``txn_id`` lets a sharded coordinator impose a globally-unique id;
        plain callers leave it ``None``.
        """
        if txn_id is None:
            txn_id = self._next_txn_id
        self._next_txn_id = max(self._next_txn_id, txn_id) + 1
        txn = Transaction(txn_id=txn_id)
        self.wal.append_begin(txn_id)
        self.mvcc.begin(txn)
        return txn

    def commit(self, txn: Transaction) -> None:
        """Commit: binlog every statement of a write transaction."""
        txn.mark_committed()
        self.mvcc.commit(txn)
        if txn.is_write and self.binlog.enabled:
            timestamp = self.clock.timestamp()
            for statement in txn.statements or ["<unlogged statement>"]:
                self.binlog.log(timestamp, txn.txn_id, statement, self.lsn.current)
        self.wal.append_commit(txn.txn_id)
        if txn.is_write:
            # Group commit: the commit record and everything before it
            # become durable here — the transaction's durability point.
            self.wal.flush()

    def rollback(self, txn: Transaction) -> None:
        """Undo every change in reverse order from the before-images on
        the transaction's MVCC versions."""
        for table, key, version in self.mvcc.rollback(txn):
            _, tree = self._lookup(table)
            # Compensation record first (WAL discipline: log before apply);
            # replay then repeats history — forward changes *and* their
            # undo — so aborted transactions need no work at restart.
            if version.op == _INSERT:
                self.wal.append_clr(RedoRecord(txn.txn_id, table, _DELETE, key, b""))
                tree.delete(key)
            elif version.op == _UPDATE:
                self.wal.append_clr(
                    RedoRecord(txn.txn_id, table, _UPDATE, key, version.before_image)
                )
                tree.update(key, version.before_image)
            elif version.op == _DELETE:
                self.wal.append_clr(
                    RedoRecord(txn.txn_id, table, _INSERT, key, version.before_image)
                )
                tree.insert(key, version.before_image)
            else:  # pragma: no cover - ops are engine-generated
                raise TransactionError(f"unknown change op {version.op!r}")
        self.wal.append_abort(txn.txn_id)
        txn.mark_rolled_back()

    def log_ddl(self, timestamp: int, statement: str) -> None:
        """Binlog a DDL statement (no row changes, no open transaction).

        DDL replicates like any statement but registers no active
        transaction: it takes an id for its binlog event and nothing else.
        """
        if not self.binlog.enabled:
            return
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        self.binlog.log(timestamp, txn_id, statement, self.lsn.current)

    # -- writes ----------------------------------------------------------------

    def insert(self, txn: Transaction, table: str, key: int, row: bytes) -> AccessPath:
        """Insert a row, logging undo (empty before-image) and redo (after)."""
        _, tree = self._lookup(table)
        self.mvcc.check_write(txn, table, key)
        undo, redo = _change_bodies(txn.txn_id, table, _INSERT, key, b"", row)
        self.wal.check_row_change(undo, redo)
        if self._tracer is not None:
            self._tracer.mark("storage.insert", table)
        path = tree.insert(key, row)
        self.wal.append_row_change(table, undo, redo)
        if self._metrics is not None:
            self._metrics.inc("engine.rows_written", 1, table)
        self.mvcc.record_write(txn, table, key, _INSERT, b"")
        return path

    def update(self, txn: Transaction, table: str, key: int, row: bytes) -> AccessPath:
        """Update a row, logging before- and after-images."""
        _, tree = self._lookup(table)
        self.mvcc.check_write(txn, table, key)
        redo = _encode_body(txn.txn_id, table, _UPDATE, key, row)
        # The before-image, and so the undo body, comes out of the tree.
        self.wal.check_row_change(b"", redo)
        if self._tracer is not None:
            self._tracer.mark("storage.update", table)
        before, path = tree.update(key, row)
        undo = _encode_body(txn.txn_id, table, _UPDATE, key, before)
        try:
            self.wal.append_row_change(table, undo, redo)
        except LogError:
            tree.update(key, before)  # the log refused the change
            raise
        if self._metrics is not None:
            self._metrics.inc("engine.rows_written", 1, table)
        self.mvcc.record_write(txn, table, key, _UPDATE, before)
        return path

    def delete(self, txn: Transaction, table: str, key: int) -> AccessPath:
        """Delete a row, logging its before-image."""
        _, tree = self._lookup(table)
        self.mvcc.check_write(txn, table, key)
        redo = _encode_body(txn.txn_id, table, _DELETE, key, b"")
        # The before-image, and so the undo body, comes out of the tree.
        self.wal.check_row_change(b"", redo)
        if self._tracer is not None:
            self._tracer.mark("storage.delete", table)
        before, path = tree.delete(key)
        undo = _encode_body(txn.txn_id, table, _DELETE, key, before)
        try:
            self.wal.append_row_change(table, undo, redo)
        except LogError:
            tree.insert(key, before)  # the log refused the change
            raise
        if self._metrics is not None:
            self._metrics.inc("engine.rows_written", 1, table)
        self.mvcc.record_write(txn, table, key, _DELETE, before)
        return path

    # -- reads --------------------------------------------------------------------

    def get(
        self, table: str, key: int, txn: Optional[Transaction] = None
    ) -> Tuple[Optional[bytes], AccessPath]:
        """Point lookup through the clustered index (touches the pool).

        The tree's current value is rolled back to ``txn``'s snapshot
        (``txn=None`` reads latest committed).
        """
        _, tree = self._lookup(table)
        if self._tracer is not None:
            self._tracer.mark("storage.get", table)
        value, path = tree.get(key)
        if self._metrics is not None:
            self._metrics.inc("engine.rows_read", 1, table)
        return self.mvcc.read_row(table, key, value, txn), path

    def range(
        self,
        table: str,
        low: Optional[int],
        high: Optional[int],
        txn: Optional[Transaction] = None,
    ) -> Tuple[List[Tuple[int, bytes]], AccessPath]:
        """Range scan through the clustered index (touches the pool)."""
        _, tree = self._lookup(table)
        if self._tracer is not None:
            self._tracer.mark("storage.range", table)
        entries, path = tree.range(low, high)
        if self._metrics is not None:
            self._metrics.inc("engine.rows_read", len(entries), table)
        return self.mvcc.visible_entries(table, low, high, entries, txn), path

    def scan(self, table: str) -> List[Tuple[int, bytes]]:
        """Full scan via the maintenance path (no buffer-pool touches).

        Deliberately *not* snapshot-filtered: forensics and maintenance see
        the raw tree, uncommitted writes included — that is the leakage.
        """
        _, tree = self._lookup(table)
        return list(tree.scan())

    def full_scan(
        self, table: str, txn: Optional[Transaction] = None
    ) -> Tuple[List[Tuple[int, bytes]], AccessPath]:
        """Full scan as query execution does it: touches every page."""
        _, tree = self._lookup(table)
        if self._tracer is not None:
            self._tracer.mark("storage.scan", table)
        entries, path = tree.range(None, None)
        if self._metrics is not None:
            self._metrics.inc("engine.rows_read", len(entries), table)
        return self.mvcc.visible_entries(table, None, None, entries, txn), path

    # -- maintenance ------------------------------------------------------------

    def checkpoint(self) -> int:
        """Fuzzy checkpoint: log the dirty-page table + active txns, force
        the WAL, then flush frames and stamp file headers."""
        self.wal.append_checkpoint(
            self.buffer_pool.dirty_page_table(), self.mvcc.active_txn_ids
        )
        self.wal.flush()
        return self.buffer_pool.checkpoint()

    def close(self) -> None:
        """Checkpoint and close every page file; remove a private tempdir."""
        if self._crashed:
            return
        self.checkpoint()
        self.wal.close()
        for page_file, _ in self._tables.values():
            page_file.close()
        if self._dir_finalizer is not None:
            self._dir_finalizer()

    def simulate_crash(self) -> None:
        """Kill the engine at this instant — the failure-injection hook.

        Staged (unflushed) WAL frames vanish, dirty frames never reach
        disk, and tablespace headers stay at their last checkpoint; the
        data directory is left exactly as a ``kill -9`` would, ready for
        :func:`repro.wal.recovery.recover_engine`. A private tempdir's
        cleanup finalizer is detached so the "disk" survives this object.
        """
        self._crashed = True
        self.wal.crash()
        for page_file, _ in self._tables.values():
            page_file.crash_close()
        if self._dir_finalizer is not None:
            self._dir_finalizer.detach()
            self._dir_finalizer = None

    def wal_segments(self) -> Dict[str, bytes]:
        """Flushed WAL segment bytes by name — the disk-snapshot surface."""
        return self.wal.segments()

    def dirty_page_table(self):
        """The pool's current dirty-page table."""
        return self.buffer_pool.dirty_page_table()

    @property
    def data_dir(self) -> str:
        return self._data_dir

    def bulk_load(self, table: str, items: Iterable[Tuple[int, bytes]]) -> int:
        """Sorted bottom-up load into an empty table.

        A loader fast path, not a transaction: redo/undo/binlog/MVCC are
        deliberately bypassed (as in a real engine's sorted index build),
        so the logs carry no trace of the loaded rows. Returns the row
        count loaded.
        """
        if self._tracer is not None:
            self._tracer.mark("storage.bulk_load", table)
        return self._lookup(table)[1].bulk_load(items)

    def register_secondary_index(
        self,
        table: str,
        index_name: str,
        extractor: Callable[[bytes], Optional[int]],
    ) -> None:
        """Create (or reattach) a secondary index on a table."""
        self._lookup(table)[1].create_secondary_index(index_name, extractor)

    def secondary_lookup(
        self, table: str, index_name: str, value: int
    ) -> Tuple[List[int], AccessPath]:
        """Primary keys matching ``value`` via a secondary index."""
        return self._lookup(table)[1].secondary_lookup(index_name, value)

    def free_list_info(self) -> Dict[str, List[int]]:
        """Freed-page chains per table."""
        return {
            name: self._tables[name][0].free_list() for name in self.table_names
        }

    def checkpoint_lsns(self) -> Dict[str, int]:
        """Per-table header checkpoint LSNs."""
        return {
            name: self._tables[name][0].checkpoint_lsn
            for name in self.table_names
        }

    # -- introspection / artifacts --------------------------------------------

    @property
    def shards(self) -> Tuple[StorageEngine]:
        """The engine's shards: itself alone."""
        return (self,)

    def tablespace_images(self) -> Dict[str, bytes]:
        """Serialized bytes of every tablespace, keyed by table name."""
        return {
            name: self.tablespace(name).to_bytes() for name in self.table_names
        }

    def mvcc_chain_stats(self):
        """Version-chain summaries, sorted by (table, key)."""
        return self.mvcc.chain_stats()
