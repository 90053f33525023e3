"""Hash-sharded execution: N per-shard storage engines behind one router.

A :class:`ShardedEngine` routes each row (by clustering key) to one of N
:class:`~repro.engine.engine.StorageEngine` instances. Every shard keeps its
**own** redo log, undo log, binlog, and buffer pool — which multiplies the
paper's §3 artifact surface by N and adds a new one: the *distribution* of
rows and statements across shard logs reveals the shard key's hash
histogram (registered as the ``shard_log_sizes`` snapshot artifact, and
noted in EXPERIMENTS.md as shard-key-distribution leakage).

Transactions span shards: the sharded engine allocates a globally-unique
id and lazily opens a per-shard transaction the first time a statement
touches a shard, tagging the statement text onto that shard's transaction
so commit writes it to *that shard's* binlog — exactly the per-shard
statement placement a forensic reader can diff across shards.

Every engine exposes ``shards``: a :class:`StorageEngine` is its own single
shard, a :class:`ShardedEngine` has N. Artifact providers and the server
read a single engine's value as it is and, when there are several shards,
merge every shard's value in shard order. How a merged surface names and
orders things is decided here: :func:`qualify` names tables ``t@shard3``
and WAL segments ``shard3/wal.00000001.log``,
:func:`merge_binlog_events` orders events by (timestamp, txn, shard), and
:func:`binlog_sections` heads each shard's binlog text ``# shard N``.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from ..clock import SimClock
from ..engine import StorageEngine
from ..engine.binlog import BinlogEvent
from ..engine.mvcc import MvccChainStat
from ..engine.transaction import Transaction, TransactionState
from ..errors import EngineError, TransactionError
from ..obs.instrumentation import Instrumentation
from ..storage.paged import AccessPath, BufferPoolDump, BufferPoolManager

#: Space-id stride between shards: shard ``i`` owns ids in
#: ``[i * stride + 1, (i + 1) * stride]``, so combined buffer-pool dumps
#: identify the serving shard unambiguously (a leak in its own right).
SPACE_ID_STRIDE = 1 << 10

#: How a merged surface names a shard's table (``t@shard3``) and WAL
#: segment (``shard3/wal.00000001.log``): a snapshot of it reveals which
#: shard wrote each byte, the same shard-distribution leak as
#: ``shard_log_sizes``, now durable.
TABLE_NAME = "{name}@shard{shard}"
WAL_SEGMENT_NAME = "shard{shard}/{name}"

V = TypeVar("V")


def qualify(maps: List[Dict[str, V]], template: str = TABLE_NAME) -> Dict[str, V]:
    """Per-shard name-keyed maps as one, each name qualified by its shard."""
    return {
        template.format(name=name, shard=index): value
        for index, named in enumerate(maps)
        for name, value in named.items()
    }


def qualify_dirty_pages(
    tables: List[Tuple[Tuple[str, int, int], ...]],
) -> Tuple[Tuple[str, int, int], ...]:
    """Per-shard ``(table, page, rec-LSN)`` tables as one sorted table,
    each table name qualified as :func:`qualify` qualifies it."""
    return tuple(
        sorted(
            (TABLE_NAME.format(name=name, shard=index), page, lsn)
            for index, table in enumerate(tables)
            for name, page, lsn in table
        )
    )


def merge_binlog_events(
    logs: List[Tuple[BinlogEvent, ...]],
) -> Tuple[BinlogEvent, ...]:
    """Per-shard binlog events as one log, ordered by (timestamp, txn,
    shard). A single engine's log is not passed through here: commits that
    share a timestamp keep their append order there."""
    merged = [
        (event.timestamp, event.txn_id, index, event)
        for index, events in enumerate(logs)
        for event in events
    ]
    merged.sort(key=lambda entry: entry[:3])
    return tuple(entry[3] for entry in merged)


def binlog_sections(texts: List[str]) -> str:
    """Per-shard binlog texts as one, under a ``# shard N`` header each."""
    return "\n".join(f"# shard {index}\n{text}" for index, text in enumerate(texts))


def merge_chain_stats(
    stats: List[Tuple[MvccChainStat, ...]],
) -> Tuple[MvccChainStat, ...]:
    """Per-shard MVCC chain summaries as one, sorted by (table, key) as
    each shard sorts its own (shards hold disjoint keys)."""
    merged = [stat for shard_stats in stats for stat in shard_stats]
    return tuple(sorted(merged, key=lambda stat: (stat.table, stat.key)))


def merge_pool_dumps(dumps: List[BufferPoolDump]) -> BufferPoolDump:
    """Per-shard buffer-pool dumps as one, in shard order."""
    return BufferPoolDump(entries=tuple(ref for dump in dumps for ref in dump.entries))


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


class ShardedEngine:
    """N hash-sharded :class:`StorageEngine` instances behind one router."""

    def __init__(
        self,
        num_shards: int,
        clock: Optional[SimClock] = None,
        buffer_pool_capacity: int = BufferPoolManager.DEFAULT_CAPACITY,
        redo_capacity: Optional[int] = None,
        undo_capacity: Optional[int] = None,
        binlog_enabled: bool = False,
        instrumentation: Optional[Instrumentation] = None,
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
        self._next_txn_id = 1
        #: Set by :func:`repro.wal.recovery.recover_sharded_engine`.
        self.last_recovery_report = None

    # -- shard access ---------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> Tuple[StorageEngine, ...]:
        """The engines, in shard order."""
        return tuple(self._shards)

    def shard(self, index: int) -> StorageEngine:
        return self._shards[index]

    def shard_of(self, key: int) -> int:
        return self.router.shard_of(key)

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
                "pass shard=<index>"
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
        if txn_id is None:
            txn_id = self._next_txn_id
        self._next_txn_id = max(self._next_txn_id, txn_id) + 1
        return ShardedTransaction(txn_id)

    def commit(self, txn: ShardedTransaction) -> None:
        for shard_idx in sorted(txn.branches):
            self._shards[shard_idx].commit(txn.branches[shard_idx])
        txn.mark_committed()

    def rollback(self, txn: ShardedTransaction) -> None:
        for shard_idx in sorted(txn.branches):
            self._shards[shard_idx].rollback(txn.branches[shard_idx])
        txn.mark_rolled_back()

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
    "TABLE_NAME",
    "WAL_SEGMENT_NAME",
    "ShardRouter",
    "ShardStat",
    "ShardedEngine",
    "ShardedTransaction",
    "binlog_sections",
    "merge_binlog_events",
    "qualify",
    "qualify_dirty_pages",
]
