"""Hash-sharded execution: N per-shard storage engines behind one facade.

A :class:`ShardedEngine` routes each row (by clustering key) to one of N
:class:`~repro.engine.engine.StorageEngine` instances. Every shard keeps its
**own** redo log, undo log, binlog, and buffer pool — which multiplies the
paper's §3 artifact surface by N and adds a new one: the *distribution* of
rows and statements across shard logs reveals the shard key's hash
histogram (registered as the ``shard_log_sizes`` snapshot artifact, and
noted in EXPERIMENTS.md as shard-key-distribution leakage).

Transactions span shards: the facade allocates a globally-unique id and
lazily opens a per-shard transaction the first time a statement touches a
shard, tagging the statement text onto that shard's transaction so commit
writes it to *that shard's* binlog — exactly the per-shard statement
placement a forensic reader can diff across shards.

The combined log/pool facades (:class:`_CombinedLog`, ``_CombinedBinlog``,
``_CombinedBufferPool``) make the sharded engine a drop-in for every
existing snapshot :class:`~repro.snapshot.registry.ArtifactProvider`:
``engine.redo_log.raw_bytes()`` etc. keep working and now concatenate the
per-shard surfaces in shard order.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..clock import SimClock
from ..engine import StorageEngine
from ..engine.mvcc import MvccChainStat
from ..engine.transaction import Transaction, TransactionState
from ..errors import ConcurrentTransactionError, EngineError, TransactionError
from ..obs.instrumentation import Instrumentation
from ..storage.paged import AccessPath, BufferPoolDump, BufferPoolManager

#: Space-id stride between shards: shard ``i`` owns ids in
#: ``[i * stride + 1, (i + 1) * stride]``, so combined buffer-pool dumps
#: identify the serving shard unambiguously (a leak in its own right).
SPACE_ID_STRIDE = 1 << 10


class ShardRouter:
    """Stable hash routing of clustering keys onto shards.

    Uses CRC-32 of the key's fixed-width encoding — deterministic across
    runs and processes (no ``PYTHONHASHSEED`` dependence), so artifact
    byte-equivalence checks can replay workloads exactly.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise EngineError(f"need at least one shard, got {num_shards}")
        self.num_shards = num_shards

    def shard_of(self, key: int) -> int:
        data = key.to_bytes(8, "big", signed=True)
        return zlib.crc32(data) % self.num_shards


@dataclass(frozen=True)
class ShardStat:
    """One shard's per-log sizes (the ``shard_log_sizes`` artifact row)."""

    shard: int
    redo_bytes: int
    undo_bytes: int
    binlog_events: int
    buffer_pool_resident: int
    rows: int


class ShardedTransaction:
    """A cross-shard transaction: one global id, lazy per-shard branches."""

    def __init__(self, txn_id: int) -> None:
        self.txn_id = txn_id
        self.state = TransactionState.ACTIVE
        self.statements: List[str] = []
        self._current_statement: Optional[str] = None
        #: shard index -> that shard's Transaction, opened on first touch.
        self._branches: Dict[int, Transaction] = {}

    def record_statement(self, statement: str) -> None:
        self._ensure_active()
        self.statements.append(statement)
        self._current_statement = statement

    def branch(self, shard: int, engine: StorageEngine) -> Transaction:
        """The per-shard transaction, begun on first touch.

        The current statement is tagged onto the branch so the *shard's*
        binlog records exactly the statements whose rows hashed there.
        """
        self._ensure_active()
        txn = self._branches.get(shard)
        if txn is None:
            txn = engine.begin(txn_id=self.txn_id)
            self._branches[shard] = txn
        if (
            self._current_statement is not None
            and (not txn.statements or txn.statements[-1] != self._current_statement)
        ):
            txn.record_statement(self._current_statement)
        return txn

    def peek_branch(self, shard: int) -> Optional[Transaction]:
        """The shard's transaction if already open (reads don't force one)."""
        return self._branches.get(shard)

    @property
    def branches(self) -> Dict[int, Transaction]:
        return dict(self._branches)

    @property
    def is_write(self) -> bool:
        return any(t.is_write for t in self._branches.values())

    @property
    def num_changes(self) -> int:
        return sum(t.num_changes for t in self._branches.values())

    @property
    def tables_written(self) -> List[str]:
        """The tables any branch changed, sorted."""
        return sorted(
            {table for t in self._branches.values() for table in t.tables_written}
        )

    def mark_committed(self) -> None:
        self._ensure_active()
        self.state = TransactionState.COMMITTED

    def mark_rolled_back(self) -> None:
        self._ensure_active()
        self.state = TransactionState.ROLLED_BACK

    def _ensure_active(self) -> None:
        if self.state is not TransactionState.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.state.value}, not active"
            )


class _CombinedLsn:
    """Read-only view of shard LSNs: ``current`` is the max over shards."""

    def __init__(self, shards: List[StorageEngine]) -> None:
        self._shards = shards

    @property
    def current(self) -> int:
        return max(s.lsn.current for s in self._shards)


class _CombinedLog:
    """Concatenated view of per-shard circular logs (redo or undo)."""

    def __init__(self, shards: List[StorageEngine], attr: str) -> None:
        self._shards = shards
        self._attr = attr

    def _logs(self):
        return [getattr(s, self._attr) for s in self._shards]

    def raw_bytes(self) -> bytes:
        return b"".join(log.raw_bytes() for log in self._logs())

    def records(self):
        out = []
        for log in self._logs():
            out.extend(log.records())
        return out

    def records_with_lsn(self):
        out = []
        for log in self._logs():
            out.extend(log.records_with_lsn())
        return out

    @property
    def num_records(self) -> int:
        return sum(log.num_records for log in self._logs())

    @property
    def used_bytes(self) -> int:
        return sum(log.used_bytes for log in self._logs())

    @property
    def total_appended(self) -> int:
        return sum(log.total_appended for log in self._logs())

    @property
    def total_evicted(self) -> int:
        return sum(log.total_evicted for log in self._logs())


class _CombinedBinlog:
    """Merged view of per-shard binlogs (event order: timestamp, txn, shard)."""

    def __init__(self, shards: List[StorageEngine]) -> None:
        self._shards = shards

    @property
    def enabled(self) -> bool:
        return any(s.binlog.enabled for s in self._shards)

    @property
    def events(self):
        merged = []
        for idx, shard in enumerate(self._shards):
            for event in shard.binlog.events:
                merged.append((event.timestamp, event.txn_id, idx, event))
        merged.sort(key=lambda t: t[:3])
        return tuple(entry[3] for entry in merged)

    @property
    def num_events(self) -> int:
        return sum(s.binlog.num_events for s in self._shards)

    def to_text(self) -> str:
        sections = []
        for idx, shard in enumerate(self._shards):
            sections.append(f"# shard {idx}\n{shard.binlog.to_text()}")
        return "\n".join(sections)

    def purge_before(self, timestamp: int) -> int:
        return sum(s.binlog.purge_before(timestamp) for s in self._shards)


class _CombinedWal:
    """Merged view of per-shard WAL managers.

    Segment names are shard-qualified (``shard0/wal.00000001.log``) so a
    snapshot of the combined surface reveals which shard wrote each byte —
    the same shard-distribution leak as ``shard_log_sizes``, now durable.
    """

    def __init__(self, shards: List[StorageEngine]) -> None:
        self._shards = shards

    def segments(self) -> Dict[str, bytes]:
        out: Dict[str, bytes] = {}
        for idx, shard in enumerate(self._shards):
            for name, data in shard.wal.segments().items():
                out[f"shard{idx}/{name}"] = data
        return out

    def flush(self) -> int:
        return sum(shard.wal.flush() for shard in self._shards)

    @property
    def stats(self) -> Dict[str, object]:
        totals: Dict[str, object] = {}
        for shard in self._shards:
            for key, value in shard.wal.stats.items():
                if isinstance(value, int) and not isinstance(value, bool):
                    totals[key] = totals.get(key, 0) + value
        totals["shards"] = len(self._shards)
        return totals


class _CombinedBufferPool:
    """Merged view of per-shard buffer pools."""

    def __init__(self, shards: List[StorageEngine]) -> None:
        self._shards = shards

    @property
    def stats(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for shard in self._shards:
            for key, value in shard.buffer_pool.stats.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    @property
    def resident_pages(self) -> int:
        return sum(s.buffer_pool.resident_pages for s in self._shards)

    def dump(self) -> BufferPoolDump:
        entries = []
        for shard in self._shards:
            entries.extend(shard.buffer_pool.dump().entries)
        return BufferPoolDump(entries=tuple(entries))

    def clear(self) -> None:
        for shard in self._shards:
            shard.buffer_pool.clear()


class ShardedEngine:
    """N hash-sharded :class:`StorageEngine` instances behind one facade."""

    def __init__(
        self,
        num_shards: int,
        clock: Optional[SimClock] = None,
        buffer_pool_capacity: int = BufferPoolManager.DEFAULT_CAPACITY,
        redo_capacity: Optional[int] = None,
        undo_capacity: Optional[int] = None,
        binlog_enabled: bool = False,
        instrumentation: Optional[Instrumentation] = None,
        mvcc: bool = True,
        data_dir: Optional[str] = None,
        buffer_pool_policy: str = "lru",
        wal_segment_bytes: Optional[int] = None,
        wal_sync: bool = True,
    ) -> None:
        if num_shards < 2:
            raise EngineError(
                f"a sharded engine needs >= 2 shards, got {num_shards}; "
                "use StorageEngine for the single-shard case"
            )
        self.clock = clock or SimClock()
        self.router = ShardRouter(num_shards)
        kwargs = dict(
            clock=self.clock,
            buffer_pool_capacity=buffer_pool_capacity,
            binlog_enabled=binlog_enabled,
            instrumentation=instrumentation,
            mvcc=mvcc,
            buffer_pool_policy=buffer_pool_policy,
            wal_sync=wal_sync,
        )
        if redo_capacity is not None:
            kwargs["redo_capacity"] = redo_capacity
        if undo_capacity is not None:
            kwargs["undo_capacity"] = undo_capacity
        if wal_segment_bytes is not None:
            kwargs["wal_segment_bytes"] = wal_segment_bytes
        # With an explicit data_dir each shard gets its own shard<i>/
        # subdirectory so page files never collide. With no data_dir every
        # shard creates (and later removes) a private tempdir of its own.
        self._shards: List[StorageEngine] = [
            StorageEngine(
                space_id_base=i * SPACE_ID_STRIDE,
                data_dir=(
                    os.path.join(data_dir, f"shard{i}")
                    if data_dir is not None
                    else None
                ),
                **kwargs,
            )
            for i in range(num_shards)
        ]
        self._mvcc_enabled = mvcc
        self._next_txn_id = 1
        self._active_txn_ids: set = set()
        self.lsn = _CombinedLsn(self._shards)
        self.redo_log = _CombinedLog(self._shards, "redo_log")
        self.undo_log = _CombinedLog(self._shards, "undo_log")
        self.binlog = _CombinedBinlog(self._shards)
        self.buffer_pool = _CombinedBufferPool(self._shards)
        self.wal = _CombinedWal(self._shards)
        #: Set by :func:`repro.wal.recovery.recover_sharded_engine`.
        self.last_recovery_report = None

    # -- shard access ---------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> Tuple[StorageEngine, ...]:
        return tuple(self._shards)

    def shard(self, index: int) -> StorageEngine:
        return self._shards[index]

    def shard_of(self, key: int) -> int:
        return self.router.shard_of(key)

    @property
    def mvcc(self):
        """Non-``None`` when MVCC is on (same check as StorageEngine.mvcc)."""
        return self._shards[0].mvcc

    # -- table management -----------------------------------------------------

    def register_table(self, name: str) -> None:
        for shard in self._shards:
            shard.register_table(name)

    def has_table(self, name: str) -> bool:
        return self._shards[0].has_table(name)

    @property
    def table_names(self) -> List[str]:
        return self._shards[0].table_names

    def tablespace(self, name: str, shard: Optional[int] = None):
        if shard is None:
            raise EngineError(
                f"table {name!r} is sharded over {self.num_shards} engines; "
                "pass shard=<index> (or use tablespace_images())"
            )
        return self._shards[shard].tablespace(name)

    def btree(self, name: str, shard: Optional[int] = None):
        if shard is None:
            raise EngineError(
                f"table {name!r} is sharded over {self.num_shards} engines; "
                "pass shard=<index>"
            )
        return self._shards[shard].btree(name)

    # -- transactions ---------------------------------------------------------

    def begin(self, txn_id: Optional[int] = None) -> ShardedTransaction:
        """Open a cross-shard transaction (branches begin lazily)."""
        if not self._mvcc_enabled and self._active_txn_ids:
            raise ConcurrentTransactionError(
                f"sharded engine is running without MVCC and transaction(s) "
                f"{sorted(self._active_txn_ids)} are still active"
            )
        if txn_id is None:
            txn_id = self._next_txn_id
        self._next_txn_id = max(self._next_txn_id, txn_id) + 1
        txn = ShardedTransaction(txn_id)
        self._active_txn_ids.add(txn.txn_id)
        return txn

    def commit(self, txn: ShardedTransaction) -> None:
        for shard_idx in sorted(txn.branches):
            self._shards[shard_idx].commit(txn.branches[shard_idx])
        txn.mark_committed()
        self._active_txn_ids.discard(txn.txn_id)

    def rollback(self, txn: ShardedTransaction) -> None:
        for shard_idx in sorted(txn.branches):
            self._shards[shard_idx].rollback(txn.branches[shard_idx])
        txn.mark_rolled_back()
        self._active_txn_ids.discard(txn.txn_id)

    def log_ddl(self, timestamp: int, statement: str) -> None:
        """DDL goes to every shard's binlog (each shard replays all DDL)."""
        for shard in self._shards:
            shard.log_ddl(timestamp, statement)

    # -- writes ---------------------------------------------------------------

    def insert(self, txn: ShardedTransaction, table: str, key: int, row: bytes) -> AccessPath:
        shard_idx = self.router.shard_of(key)
        branch = txn.branch(shard_idx, self._shards[shard_idx])
        return self._shards[shard_idx].insert(branch, table, key, row)

    def update(self, txn: ShardedTransaction, table: str, key: int, row: bytes) -> AccessPath:
        shard_idx = self.router.shard_of(key)
        branch = txn.branch(shard_idx, self._shards[shard_idx])
        return self._shards[shard_idx].update(branch, table, key, row)

    def delete(self, txn: ShardedTransaction, table: str, key: int) -> AccessPath:
        shard_idx = self.router.shard_of(key)
        branch = txn.branch(shard_idx, self._shards[shard_idx])
        return self._shards[shard_idx].delete(branch, table, key)

    # -- reads ----------------------------------------------------------------

    def _read_branch(
        self, txn: Optional[ShardedTransaction], shard_idx: int
    ) -> Optional[Transaction]:
        """The branch a read should use: open one on first touch so the
        shard snapshot is pinned no later than the first read."""
        if txn is None:
            return None
        return txn.branch(shard_idx, self._shards[shard_idx])

    def get(
        self, table: str, key: int, txn: Optional[ShardedTransaction] = None
    ) -> Tuple[Optional[bytes], AccessPath]:
        shard_idx = self.router.shard_of(key)
        branch = self._read_branch(txn, shard_idx)
        return self._shards[shard_idx].get(table, key, txn=branch)

    def range(
        self,
        table: str,
        low: Optional[int],
        high: Optional[int],
        txn: Optional[ShardedTransaction] = None,
    ) -> Tuple[List[Tuple[int, bytes]], AccessPath]:
        entries: List[Tuple[int, bytes]] = []
        path = AccessPath()
        for shard_idx, shard in enumerate(self._shards):
            branch = self._read_branch(txn, shard_idx)
            shard_entries, shard_path = shard.range(table, low, high, txn=branch)
            entries.extend(shard_entries)
            path.page_ids.extend(shard_path.page_ids)
        entries.sort(key=lambda kv: kv[0])
        return entries, path

    def scan(self, table: str) -> List[Tuple[int, bytes]]:
        entries: List[Tuple[int, bytes]] = []
        for shard in self._shards:
            entries.extend(shard.scan(table))
        entries.sort(key=lambda kv: kv[0])
        return entries

    def full_scan(
        self, table: str, txn: Optional[ShardedTransaction] = None
    ) -> Tuple[List[Tuple[int, bytes]], AccessPath]:
        entries: List[Tuple[int, bytes]] = []
        path = AccessPath()
        for shard_idx, shard in enumerate(self._shards):
            branch = self._read_branch(txn, shard_idx)
            shard_entries, shard_path = shard.full_scan(table, txn=branch)
            entries.extend(shard_entries)
            path.page_ids.extend(shard_path.page_ids)
        entries.sort(key=lambda kv: kv[0])
        return entries, path

    # -- maintenance ----------------------------------------------------------

    def checkpoint(self) -> int:
        """Checkpoint every shard; returns the max shard checkpoint LSN."""
        return max(shard.checkpoint() for shard in self._shards)

    def close(self) -> None:
        for shard in self._shards:
            shard.close()

    def simulate_crash(self) -> None:
        """Kill every shard at this instant (failure-injection hook)."""
        for shard in self._shards:
            shard.simulate_crash()

    def wal_segments(self) -> Dict[str, bytes]:
        """Shard-qualified flushed WAL segments: ``shardN/wal.*.log``."""
        return self.wal.segments()

    def dirty_page_table(self) -> Tuple[Tuple[str, int, int], ...]:
        """Shard-qualified dirty-page table: ``(table@shardN, page, lsn)``."""
        entries = []
        for idx, shard in enumerate(self._shards):
            for name, page_id, rec_lsn in shard.dirty_page_table():
                entries.append((f"{name}@shard{idx}", page_id, rec_lsn))
        return tuple(sorted(entries))

    def register_secondary_index(
        self,
        table: str,
        index_name: str,
        extractor: Callable[[bytes], Optional[int]],
    ) -> None:
        """Create the secondary index on every shard (rows are hashed)."""
        for shard in self._shards:
            shard.register_secondary_index(table, index_name, extractor)

    def secondary_lookup(
        self, table: str, index_name: str, value: int
    ) -> Tuple[List[int], AccessPath]:
        """Union of per-shard postings, sorted by primary key."""
        pks: List[int] = []
        path = AccessPath()
        for shard in self._shards:
            shard_pks, shard_path = shard.secondary_lookup(
                table, index_name, value
            )
            pks.extend(shard_pks)
            path.page_ids.extend(shard_path.page_ids)
        pks.sort()
        return pks, path

    def free_list_info(self) -> Dict[str, List[int]]:
        """Shard-qualified freed-page chains: ``table@shardN``."""
        info: Dict[str, List[int]] = {}
        for idx, shard in enumerate(self._shards):
            for name, chain in shard.free_list_info().items():
                info[f"{name}@shard{idx}"] = chain
        return info

    def checkpoint_lsns(self) -> Dict[str, int]:
        """Shard-qualified header checkpoint LSNs: ``table@shardN``."""
        lsns: Dict[str, int] = {}
        for idx, shard in enumerate(self._shards):
            for name, lsn in shard.checkpoint_lsns().items():
                lsns[f"{name}@shard{idx}"] = lsn
        return lsns

    # -- introspection / artifacts --------------------------------------------

    def tablespace_images(self) -> Dict[str, bytes]:
        """Per-shard-qualified tablespace bytes: ``table@shardN``."""
        images: Dict[str, bytes] = {}
        for idx, shard in enumerate(self._shards):
            for name, data in shard.tablespace_images().items():
                images[f"{name}@shard{idx}"] = data
        return images

    def mvcc_chain_stats(self) -> Tuple[MvccChainStat, ...]:
        """Version-chain summaries across all shards (keys are disjoint)."""
        stats: List[MvccChainStat] = []
        for shard in self._shards:
            stats.extend(shard.mvcc_chain_stats())
        stats.sort(key=lambda s: (s.table, s.key))
        return tuple(stats)

    def shard_stats(self) -> Tuple[ShardStat, ...]:
        """Per-shard log sizes — the shard-key-distribution leakage artifact."""
        stats = []
        for idx, shard in enumerate(self._shards):
            rows = sum(len(shard.scan(name)) for name in shard.table_names)
            stats.append(
                ShardStat(
                    shard=idx,
                    redo_bytes=shard.redo_log.used_bytes,
                    undo_bytes=shard.undo_log.used_bytes,
                    binlog_events=shard.binlog.num_events,
                    buffer_pool_resident=shard.buffer_pool.stats["resident"],
                    rows=rows,
                )
            )
        return tuple(stats)


__all__ = [
    "SPACE_ID_STRIDE",
    "ShardRouter",
    "ShardStat",
    "ShardedEngine",
    "ShardedTransaction",
]
