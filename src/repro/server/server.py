"""The MySQL-like server facade.

``MySQLServer.execute`` runs one statement end-to-end and — deliberately —
leaves behind every artifact the paper catalogs:

* statement text copied into the session's **net buffer** and **mem_root
  arena** (plus lexer/parser/executor string copies) — Section 5;
* **redo/undo** byte-level change records and **binlog** events for writes —
  Section 3;
* **general** / **slow** query log entries — Section 3;
* **performance_schema** current/history/digest rows and
  **information_schema.processlist** visibility — Section 4;
* **buffer pool** page touches along B+-tree access paths — Section 3;
* **query cache** and **adaptive hash index** state — Section 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..clock import SimClock
from ..engine import StorageEngine
from ..engine.query_logs import GeneralQueryLog, QueryLogEntry, SlowQueryLog
from ..errors import CatalogError, ServerError
from ..memory import SimulatedHeap
from ..obs import Instrumentation, MetricsRegistry, Tracer
from ..sql.ast import ColumnDef, Literal
from ..sql.fastpath import ScannedStatement, StatementCache, scan
from ..storage import BufferPoolDump, BufferPoolManager, decode_row
from ..wal.log_manager import DEFAULT_SEGMENT_BYTES
from .adaptive_hash import AdaptiveHashIndex
from .catalog import Catalog, TableSchema
from .executor import prepare
from .information_schema import InformationSchema
from .performance_schema import DEFAULT_HISTORY_SIZE, PerformanceSchema
from .query_cache import QueryCache
from .session import Session
from .sharding import ShardedEngine, merge_pool_dumps

Row = Tuple[Literal, ...]

#: Rows the per-server decode memo keeps. Its job is rescans of unchanged
#: tables, and the largest table an experiment rescans is E7's corpus at
#: 2,000 rows (every carved tag is replayed as a MATCH full scan), so it
#: fits twice over; a scan of a larger table cycles the memo and decodes
#: every row, as it would without one.
DECODE_MEMO_ROWS = 4096


_STATEMENT_EVENT_COLUMNS = (
    ("thread_id", "INT"),
    ("event_id", "INT"),
    ("sql_text", "TEXT"),
    ("digest", "TEXT"),
    ("timer_start", "INT"),
    ("timer_wait_us", "INT"),
    ("rows_examined", "INT"),
    ("rows_sent", "INT"),
)

#: Every diagnostic table's columns, (name, type) in row order.
_VIRTUAL_COLUMNS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "information_schema.processlist": (
        ("id", "INT"),
        ("user", "TEXT"),
        ("command", "TEXT"),
        ("time", "INT"),
        ("state", "TEXT"),
        ("info", "TEXT"),
    ),
    "performance_schema.events_statements_current": _STATEMENT_EVENT_COLUMNS,
    "performance_schema.events_statements_history": _STATEMENT_EVENT_COLUMNS,
    "performance_schema.events_statements_summary_by_digest": (
        ("digest", "TEXT"),
        ("digest_text", "TEXT"),
        ("count_star", "INT"),
        ("sum_rows_examined", "INT"),
        ("sum_rows_sent", "INT"),
        ("first_seen", "INT"),
        ("last_seen", "INT"),
    ),
    "performance_schema.global_status": (
        ("variable_name", "TEXT"),
        ("variable_value", "INT"),
    ),
}


def _decode_payload(payload: bytes) -> Row:
    return decode_row(payload)[0]


@dataclass(frozen=True)
class ServerConfig:
    """Tunable server configuration (defaults mirror production MySQL).

    ``binlog_enabled`` defaults ``True`` because the paper's threat analysis
    targets production servers, where the binlog "will be present on the
    disk" (Section 3); flip it off to model a fresh install.

    ``wal_sync`` is the one default that does not mirror production: a
    group flush writes the WAL segment but does not ``fdatasync`` it. Flushed
    frames still survive :meth:`~repro.engine.StorageEngine.simulate_crash`
    and :func:`~repro.wal.recovery.recover_engine`, and every artifact is
    byte-identical either way; only the disk barrier, the largest cost of
    a write statement, is skipped. Pass ``wal_sync=True`` to measure
    durable commits.
    """

    binlog_enabled: bool = True
    general_log_enabled: bool = False
    slow_log_enabled: bool = True
    long_query_time: float = 1.0
    query_cache_enabled: bool = False
    query_cache_size: int = 1024
    perf_schema_enabled: bool = True
    perf_schema_history_size: int = DEFAULT_HISTORY_SIZE
    buffer_pool_capacity: int = BufferPoolManager.DEFAULT_CAPACITY
    redo_capacity: int = 25 * 1000 * 1000
    undo_capacity: int = 25 * 1000 * 1000
    secure_delete: bool = False
    ahi_enabled: bool = True
    ahi_threshold: int = 16
    base_cost_seconds: float = 1e-4
    row_cost_seconds: float = 1e-6
    obs_enabled: bool = False
    obs_trace_capacity: int = 512
    #: Number of hash shards; 1 = the classic single engine.
    num_shards: int = 1
    #: Directory for the .ibd files and WAL segments (None = private tempdir).
    data_dir: Optional[str] = None
    #: WAL segment file size and roll threshold.
    wal_segment_bytes: int = DEFAULT_SEGMENT_BYTES
    #: fdatasync the active WAL segment on every group flush (see above: off
    #: by default, unlike production).
    wal_sync: bool = False


class QueryResult(NamedTuple):
    """What the client gets back from one statement."""

    statement: str
    columns: Tuple[str, ...]
    rows: Tuple[Row, ...]
    rows_examined: int
    rows_affected: int
    duration: float
    from_cache: bool = False

    @property
    def rows_sent(self) -> int:
        return len(self.rows)


class MySQLServer:
    """A single simulated DBMS instance."""

    def __init__(
        self, config: Optional[ServerConfig] = None, clock: Optional[SimClock] = None
    ) -> None:
        self.config = config or ServerConfig()
        self.clock = clock or SimClock()
        self.heap = SimulatedHeap(secure_delete=self.config.secure_delete)
        # Observability: spans/metrics for every statement when enabled,
        # ``None`` otherwise. The trace ring allocates from the server
        # heap, so span records (and their eviction residue) are part of
        # any memory dump.
        self.obs: Optional[Instrumentation] = None
        self._tracer: Optional[Tracer] = None
        self._metrics: Optional[MetricsRegistry] = None
        if self.config.obs_enabled:
            self.obs = Instrumentation(
                clock=self.clock,
                heap=self.heap,
                trace_capacity=self.config.obs_trace_capacity,
            )
            self._tracer = self.obs.tracer
            self._metrics = self.obs.metrics
        engine_kwargs = dict(
            clock=self.clock,
            buffer_pool_capacity=self.config.buffer_pool_capacity,
            redo_capacity=self.config.redo_capacity,
            undo_capacity=self.config.undo_capacity,
            binlog_enabled=self.config.binlog_enabled,
            instrumentation=self.obs,
            data_dir=self.config.data_dir,
            wal_segment_bytes=self.config.wal_segment_bytes,
            wal_sync=self.config.wal_sync,
        )
        if self.config.num_shards > 1:
            self.engine = ShardedEngine(self.config.num_shards, **engine_kwargs)
        else:
            self.engine = StorageEngine(**engine_kwargs)
        self.catalog = Catalog()
        # Executors per statement shape: out of band, no artifact sees it.
        self.statement_cache = StatementCache()
        # Decoded rows per stored payload, also out of band: it lives in
        # Python memory, not the simulated heap, so no dump sees it. It is
        # exact: a row is a pure function of its immutable bytes and a
        # tuple of immutable values, and lru_cache never caches an
        # exception, so a corrupt payload raises RecordError every time.
        self.decode_memo = lru_cache(maxsize=DECODE_MEMO_ROWS)(_decode_payload)
        self.general_log = GeneralQueryLog(enabled=self.config.general_log_enabled)
        self.slow_log = SlowQueryLog(
            enabled=self.config.slow_log_enabled,
            long_query_time=self.config.long_query_time,
        )
        self.query_cache = QueryCache(
            self.heap,
            enabled=self.config.query_cache_enabled,
            max_entries=self.config.query_cache_size,
        )
        self.perf_schema = PerformanceSchema(
            self.heap,
            history_size=self.config.perf_schema_history_size,
            enabled=self.config.perf_schema_enabled,
        )
        self.info_schema = InformationSchema()
        self.adaptive_hash = AdaptiveHashIndex(
            enabled=self.config.ahi_enabled,
            promotion_threshold=self.config.ahi_threshold,
        )
        self._sessions: Dict[int, Session] = {}
        #: Server-side UDFs by lower-cased name, looked up per row.
        self.udfs: Dict[str, object] = {}
        self._next_session_id = 1
        self._buffer_pool_dump: Optional[BufferPoolDump] = None
        #: Attached session scheduler (set by ServerFrontend); its queue
        #: telemetry becomes the ``scheduler_queue`` snapshot artifact.
        self.frontend = None

    def attach_frontend(self, frontend) -> None:
        """Register the connection front end serving this server."""
        self.frontend = frontend

    # -- connections -----------------------------------------------------------

    def register_udf(self, name: str, fn) -> None:
        """Install a server-side UDF predicate (CryptDB-style extension)."""
        if not name or not name.isidentifier():
            raise ServerError(f"bad UDF name {name!r}")
        self.udfs[name.lower()] = fn

    def connect(self, user: str = "app") -> Session:
        """Open a client connection."""
        session = Session(self._next_session_id, user, self.heap)
        session.connected_at = self.clock.timestamp()
        self._next_session_id += 1
        self._sessions[session.session_id] = session
        self.info_schema.register_session(session)
        return session

    def disconnect(self, session: Session) -> None:
        """Close a client connection (buffers freed, not zeroed).

        An open transaction is rolled back first — MySQL semantics: a
        dropped connection implicitly aborts its transaction. Leaving it
        live would hold MVCC versions and undo records for a session that
        can never commit.
        """
        if session.active_txn is not None:
            self.engine.rollback(session.active_txn)
            session.active_txn = None
        session.close()
        self.info_schema.unregister_session(session.session_id)
        self._sessions.pop(session.session_id, None)

    @property
    def sessions(self) -> List[Session]:
        return [self._sessions[sid] for sid in sorted(self._sessions)]

    # -- statement execution -------------------------------------------------------

    def execute(self, session: Session, sql: str) -> QueryResult:
        """Run one SQL statement on ``session``.

        The statement's shape is prepared once (parsed as a template and
        compiled against the catalog); every statement of the shape then
        runs the same executor with its own literals.
        """
        timestamp = self.clock.timestamp()
        session.begin_statement(sql, timestamp)
        scanned = self._spill_statement_strings(session, sql)
        tracer = self._tracer
        if tracer is not None:
            tracer.span("query")
            # Parsing moves no clock and opens no span: a mark records it.
            tracer.mark("parse")
        try:
            cache = self.statement_cache
            prepared = cache.lookup(scanned, self.catalog)
            if prepared is None:
                template = cache.template(sql, scanned)
            # A template exists only when the lexer accepted the statement.
            literals = scanned.literals  # type: ignore[union-attr]
            detail = type(template).__name__ if prepared is None else prepared.statement
            if tracer is not None:
                tracer.span("execute", detail=detail)
            if prepared is None:
                prepared = prepare(self, template, literals)
                cache.store(scanned, prepared)  # type: ignore[arg-type]
            outcome = prepared.run(self, session, literals, sql)
            if tracer is not None:
                tracer.end()  # execute
        except Exception:
            # Failed statements still leave their trace (MySQL instruments
            # errored statements too), then surface the error. The session
            # must recover even if the accounting itself trips.
            if tracer is not None:
                # Close execute where the error left it, before the
                # accounting moves the clock.
                tracer.unwind()
            try:
                self._account_statement(
                    session, sql, timestamp, rows_examined=0, rows_sent=0,
                    scanned=scanned,
                )
            finally:
                if tracer is not None:
                    tracer.end(detail="error")
                    self._metrics.inc("server.errors")  # type: ignore[union-attr]
                session.abort_statement()
            raise
        columns, rows, rows_examined, rows_affected, from_cache = outcome
        duration, digest_value = self._account_statement(
            session,
            sql,
            timestamp,
            rows_examined=rows_examined,
            rows_sent=len(rows),
            scanned=scanned,
        )
        # The root span closes after accounting so its duration covers the
        # whole statement; its detail is the digest — the "query type"
        # identifier the trace-store forensics recovers.
        if tracer is not None:
            tracer.end(detail=digest_value)
        session.end_statement()
        return QueryResult(
            statement=sql,
            columns=columns,
            rows=rows,
            rows_examined=rows_examined,
            rows_affected=rows_affected,
            duration=duration,
            from_cache=from_cache,
        )

    # -- memory spill of statement strings (Section 5 mechanisms) -----------------

    def _spill_statement_strings(
        self, session: Session, sql: str
    ) -> Optional[ScannedStatement]:
        """Copy tokens into the session arena the way parser items do.

        The lexer keeps the raw token text, the parser keeps the parsed
        value: two independent copies per identifier/string literal, both
        living in the statement arena until overwritten.

        Returns the statement's one-pass scan, which parse and digest both
        reuse; ``None`` on lexer errors, which then surface from the parser
        (lexically invalid input leaves no token copies).
        """
        scanned = scan(sql)
        if scanned is not None:
            session.query_arena.alloc_strs(scanned.spill)
        return scanned

    def _account_statement(
        self,
        session: Session,
        sql: str,
        timestamp: int,
        rows_examined: int,
        rows_sent: int,
        scanned: Optional[ScannedStatement],
    ) -> Tuple[float, str]:
        """Clock, logs, and performance-schema bookkeeping for a statement.

        Returns ``(duration, digest)``. A statement the lexer rejected has
        no digest, so performance_schema never sees it.
        """
        duration = (
            self.config.base_cost_seconds
            + rows_examined * self.config.row_cost_seconds
        )
        self.clock.advance(duration)
        if self.general_log.keeps(duration) or self.slow_log.keeps(duration):
            entry = QueryLogEntry(
                timestamp=timestamp,
                session_id=session.session_id,
                statement=sql,
                duration=duration,
                rows_examined=rows_examined,
            )
            self.general_log.log(entry)
            self.slow_log.log(entry)
        if self._metrics is not None:
            self._metrics.inc("server.statements")
        if scanned is None:
            return duration, ""
        self.perf_schema.record_statement(
            thread_id=session.session_id,
            sql_text=sql,
            digest=scanned.digest,
            digest_text=scanned.canonical,
            timestamp=timestamp,
            duration=duration,
            rows_examined=rows_examined,
            rows_sent=rows_sent,
        )
        return duration, scanned.digest

    # -- virtual (diagnostic) tables ---------------------------------------------------

    def virtual_schema(self, name: str) -> TableSchema:
        """The schema of a diagnostic table (``CatalogError`` if unknown)."""
        columns = _VIRTUAL_COLUMNS.get(name)
        if columns is None:
            raise CatalogError(f"unknown diagnostic table {name!r}")
        return TableSchema(
            name=name,
            columns=tuple(ColumnDef(n, t) for n, t in columns),
            primary_key=None,
        )

    def virtual_rows(self, name: str) -> List[Row]:
        """A diagnostic table's rows now, in its schema's column order."""
        if name == "information_schema.processlist":
            return [
                (r.session_id, r.user, r.command, r.time, r.state, r.info)
                for r in self.info_schema.processlist(self.clock.timestamp())
            ]
        if name in (
            "performance_schema.events_statements_current",
            "performance_schema.events_statements_history",
        ):
            if name.endswith("current"):
                events = self.perf_schema.events_statements_current()
            else:
                events = self.perf_schema.events_statements_history()
            return [
                (
                    e.thread_id,
                    e.event_id,
                    e.sql_text,
                    e.digest,
                    e.timestamp,
                    int(e.duration * 1e6),
                    e.rows_examined,
                    e.rows_sent,
                )
                for e in events
            ]
        if name == "performance_schema.events_statements_summary_by_digest":
            return [
                (
                    s.digest,
                    s.digest_text,
                    s.count_star,
                    s.sum_rows_examined,
                    s.sum_rows_sent,
                    s.first_seen,
                    s.last_seen,
                )
                for s in self.perf_schema.events_statements_summary_by_digest()
            ]
        if name == "performance_schema.global_status":
            pools = [shard.buffer_pool.stats for shard in self.engine.shards]
            hits = sum(pool["hits"] for pool in pools)
            misses = sum(pool["misses"] for pool in pools)
            return [
                ("Queries", self.perf_schema.statements_total),
                ("Threads_connected", self.info_schema.active_connections),
                ("Innodb_buffer_pool_read_requests", hits + misses),
                ("Innodb_buffer_pool_reads", misses),
                (
                    "Innodb_buffer_pool_pages_data",
                    sum(pool["resident"] for pool in pools),
                ),
                ("Qcache_hits", self.query_cache.stats["hits"]),
            ]
        raise CatalogError(f"unknown diagnostic table {name!r}")

    # -- writes ------------------------------------------------------------------------

    def begin_write(self, session: Session, raw: str):
        """The statement's transaction: the session's open one, or a fresh
        autocommit transaction. Returns ``(txn, autocommit)``."""
        if session.active_txn is not None:
            session.active_txn.record_statement(raw)
            return session.active_txn, False
        txn = self.engine.begin()
        txn.record_statement(raw)
        return txn, True

    def write_failed(self, session: Session, txn, autocommit: bool) -> None:
        """Error cleanup: roll back the whole transaction (an error inside
        an explicit transaction aborts it, simplified vs MySQL's
        statement-level rollback)."""
        self.engine.rollback(txn)
        if not autocommit:
            session.active_txn = None

    # -- secondary indexes -------------------------------------------------------------

    def create_secondary_index(self, table: str, column: str) -> str:
        """Index an INT column of a table; returns the index name.

        The extractor decodes the stored row and pulls the column value —
        non-integer or NULL values are simply not indexed (posting lists
        cover integer-keyed values only, like our B+-tree keys).
        """
        schema = self.catalog.table(table)
        idx = schema.column_index(column)

        def extractor(payload: bytes) -> Optional[int]:
            row, _ = decode_row(payload)
            value = row[idx]
            if isinstance(value, int) and not isinstance(value, bool):
                return value
            return None

        index_name = f"idx_{table}_{column}"
        self.engine.register_secondary_index(table, index_name, extractor)
        return index_name

    def secondary_lookup(self, table: str, column: str, value: int) -> List[int]:
        """Primary keys where ``column = value``, via the secondary index."""
        pks, _ = self.engine.secondary_lookup(table, f"idx_{table}_{column}", value)
        return pks

    # -- maintenance -----------------------------------------------------------------------

    def close(self) -> None:
        """Release storage resources: checkpoint, then close the files."""
        self.engine.close()

    def dump_buffer_pool(self) -> BufferPoolDump:
        """Write the ``ib_buffer_pool`` dump file (shutdown / periodic)."""
        self._buffer_pool_dump = self.live_buffer_pool()
        return self._buffer_pool_dump

    def live_buffer_pool(self) -> BufferPoolDump:
        """The resident pages now: each shard's pool in shard order."""
        shards = self.engine.shards
        if len(shards) == 1:
            return shards[0].buffer_pool.dump()
        dumps = [shard.buffer_pool.dump() for shard in shards]
        return merge_pool_dumps(dumps)

    @property
    def last_buffer_pool_dump(self) -> Optional[BufferPoolDump]:
        """The most recent on-disk dump (what disk theft captures)."""
        return self._buffer_pool_dump

    def restart(self) -> None:
        """Bounce the server: volatile state resets, disk artifacts stay."""
        self.dump_buffer_pool()
        for shard in self.engine.shards:
            shard.buffer_pool.clear()
        self.perf_schema.restart()
        self.adaptive_hash.clear()
        for session in list(self._sessions.values()):
            self.disconnect(session)
