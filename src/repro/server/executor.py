"""Prepared statements: each statement shape compiled once against the catalog.

:func:`prepare` turns a statement *template* (its parse tree with every
literal a :class:`~repro.sql.ast.Slot`) into an executor. Everything that
depends only on the shape is resolved there, once: the table and its
schema, the checked column list, the result columns and projection, the
access path, the WHERE clause's columns and operators, INSERT's row
builder and UPDATE's assignment columns. ``run(server, session, literals,
sql)`` then does only what depends on the statement: it binds the
literals and does the work, with every artifact write, check and count in
the order the server has always done them.

Executors hold no statement text and no literal: only a schema, column
indexes, operators and literal positions, all of which the digest text
already shows. A table executor is valid only while the catalog still
holds the very schema it was prepared against (:meth:`is_current`).
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import CatalogError, DuplicateEntryError, DuplicateKeyError, PlanError
from ..errors import ServerError
from ..sql.ast import (
    Aggregate,
    BeginTxn,
    BetweenCondition,
    ColumnDef,
    CommitTxn,
    Comparison,
    CreateTable,
    Delete,
    FunctionCondition,
    Insert,
    Literal,
    MatchCondition,
    RollbackTxn,
    Select,
    Slot,
    Statement,
    Update,
    WhereClause,
)
from ..sql.planner import Bound, PlanKind, plan_shape
from ..storage import encode_row
from .catalog import Catalog, TableSchema
from .session import Session

if TYPE_CHECKING:
    from .server import MySQLServer

Row = Tuple[Literal, ...]

#: A server-side UDF predicate: ``(column_value, *args) -> bool``.
Udf = Callable[..., bool]
UdfRegistry = Dict[str, Udf]

#: A compiled WHERE clause: ``row -> bool``.
RowPredicate = Callable[[Row], bool]

#: What an executor's ``run`` returns: result columns, rows, rows examined,
#: rows affected, and whether the rows came from the query cache.
Outcome = Tuple[Tuple[str, ...], Tuple[Row, ...], int, int, bool]

_OPERATORS: Dict[str, Callable[[Literal, Literal], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_NO_ROWS: Outcome = ((), (), 0, 0, False)


def _never(row: Row) -> bool:
    return False


def _always(row: Row) -> bool:
    return True


def _bind(term: object, literals: Sequence[Literal]) -> Literal:
    """A template term's value: its literal if it is a slot, else itself."""
    return literals[term.index] if type(term) is Slot else term  # type: ignore[union-attr]


def _compile_comparison(
    idx: int, compare: Callable[[Literal, Literal], bool], constant: Literal
) -> RowPredicate:
    """SQL three-valued-ish comparison: NULL never matches.

    Cross-type comparisons (e.g. INT column vs string literal) never match
    in this dialect rather than coercing, so a row matches only when its
    value has exactly the constant's type.
    """
    if constant is None:
        return _never
    kind = type(constant)

    def comparison(row: Row) -> bool:
        value = row[idx]
        return type(value) is kind and compare(value, constant)

    return comparison


def _operator(op: str) -> Callable[[Literal, Literal], bool]:
    compare = _OPERATORS.get(op)
    if compare is None:
        raise ServerError(f"unknown comparison operator {op!r}")
    return compare



def _spill_term(term: object) -> Tuple[int, str]:
    """A constant's arena copy: (literal position, "") for a slot, else
    (-1, its string form)."""
    if type(term) is Slot:
        return term.index, ""  # type: ignore[union-attr]
    return -1, str(term)


# Condition kinds of a prepared WHERE clause.
_COMPARE, _BETWEEN, _MATCH, _FUNCTION = range(4)


class PreparedWhere:
    """A conjunctive WHERE clause resolved against a schema, once per shape.

    Each condition keeps its kind, its column index, its operator or UDF
    name, and its operands as terms: a slot, bound per statement to the
    literal at its position, or a constant (only NULL, in a template).
    Resolving raises :class:`CatalogError` for an unknown column.
    """

    __slots__ = ("_conditions", "_spill")

    def __init__(self, schema: TableSchema, where: WhereClause) -> None:
        conditions = []
        spill: List[Tuple[int, str]] = []
        for cond in where.conditions:
            idx = schema.column_index(cond.column)
            if isinstance(cond, Comparison):
                conditions.append((_COMPARE, idx, _operator(cond.op), cond.value))
                if cond.value is not None:
                    spill.append(_spill_term(cond.value))
            elif isinstance(cond, BetweenCondition):
                conditions.append((_BETWEEN, idx, cond.low, cond.high))
                spill += [_spill_term(cond.low), _spill_term(cond.high)]
            elif isinstance(cond, MatchCondition):
                conditions.append((_MATCH, idx, None, cond.keyword))
                spill.append(_spill_term(cond.keyword))
            elif isinstance(cond, FunctionCondition):
                conditions.append((_FUNCTION, idx, cond.function, cond.args))
                spill += [_spill_term(arg) for arg in cond.args if arg is not None]
            else:
                raise ServerError(f"unknown condition type {type(cond).__name__}")
        self._conditions = tuple(conditions)
        self._spill = tuple(spill)

    def constants(self, literals: Sequence[Literal]) -> List[str]:
        """The string forms of the clause's constants, in clause order: the
        copies the executor materializes once per query
        (``Item::val_str``)."""
        return [str(literals[i]) if i >= 0 else text for i, text in self._spill]

    def bind(
        self, literals: Sequence[Literal], udfs: Optional[UdfRegistry]
    ) -> RowPredicate:
        """The clause as one row predicate, with ``literals`` bound.

        The conditions run left to right and stop at the first that fails.
        """
        registry = udfs or {}
        predicates = [
            _condition(kind, idx, how, operand, literals, registry)
            for kind, idx, how, operand in self._conditions
        ]
        if len(predicates) == 1:
            return predicates[0]

        def conjunction(row: Row) -> bool:
            for predicate in predicates:
                if not predicate(row):
                    return False
            return True

        return conjunction


def _condition(
    kind: int,
    idx: int,
    how,
    operand,
    literals: Sequence[Literal],
    registry: UdfRegistry,
) -> RowPredicate:
    """One prepared WHERE condition as a row predicate."""
    if kind == _COMPARE:
        return _compile_comparison(idx, how, _bind(operand, literals))
    if kind == _BETWEEN:
        at_least = _compile_comparison(idx, operator.ge, _bind(how, literals))
        at_most = _compile_comparison(idx, operator.le, _bind(operand, literals))
        return lambda row: at_least(row) and at_most(row)
    if kind == _MATCH:
        keyword = _bind(operand, literals).lower()  # type: ignore[union-attr]

        def match(row: Row) -> bool:
            value = row[idx]
            # Word-boundary keyword containment (the SEARCH-onion semantic).
            return isinstance(value, str) and keyword in value.lower().split()

        return match
    args = tuple([_bind(arg, literals) for arg in operand])

    def function(row: Row) -> bool:
        # Looked up per row, so an unknown function raises only once a row
        # reaches this condition.
        udf = registry.get(how)
        if udf is None:
            raise ServerError(f"unknown function {how!r}")
        return bool(udf(row[idx], *args))

    return function


def compile_where(
    schema: TableSchema,
    where: Optional[WhereClause],
    udfs: Optional[UdfRegistry] = None,
) -> RowPredicate:
    """Compile a (conjunctive) WHERE clause into one row predicate.

    Column indexes, operators, constants and the lowered MATCH keyword are
    resolved once; the conditions still run left to right and stop at the
    first that fails. No clause matches everything.
    """
    if where is None:
        return _always
    return PreparedWhere(schema, where).bind((), udfs)


def filter_rows(
    schema: TableSchema,
    rows: Sequence[Row],
    where: Optional[WhereClause],
    udfs: Optional[UdfRegistry] = None,
) -> List[Row]:
    """Filter ``rows`` through a parsed WHERE clause (prepared SELECTs
    bind their clause instead)."""
    return list(filter(compile_where(schema, where, udfs), rows))


def project(schema: TableSchema, row: Row, stmt: Select) -> Row:
    """Apply the SELECT list of a parsed statement to a matching row
    (prepared SELECTs resolve their projection indexes once instead)."""
    if stmt.is_star:
        return row
    return tuple(row[schema.column_index(name)] for name in stmt.columns)


def result_columns(schema: TableSchema, stmt: Select) -> List[str]:
    """Column headers of the result set."""
    if stmt.aggregate is not None:
        if stmt.aggregate.func == "count":
            agg = "count(*)"
        else:
            agg = f"{stmt.aggregate.func}({stmt.aggregate.column})"
        if stmt.group_by is not None:
            return [stmt.group_by, agg]
        return [agg]
    if stmt.is_star:
        return schema.column_names
    return list(stmt.columns)


def _int_column_values(
    schema: TableSchema, rows: Sequence[Row], column: str, func: str
) -> List[int]:
    """Non-NULL integer values of ``column`` (aggregates skip NULLs)."""
    idx = schema.column_index(column)
    values = []
    for row in rows:
        value = row[idx]
        if value is None:
            continue
        if not isinstance(value, int):
            raise CatalogError(f"{func} over non-INT column {column!r}")
        values.append(value)
    return values


def aggregate_rows(
    schema: TableSchema, rows: Sequence[Row], aggregate: Aggregate
) -> List[Row]:
    """Evaluate one aggregate over the matching rows (NULLs skipped).

    ``ashe_sum`` is the server-side half of Seabed's additive aggregation:
    a plain integer sum over an INT column of ASHE ciphertext values. The
    server learns nothing from the masked values; only the client can strip
    the masks (see :mod:`repro.crypto.ashe`). ``avg`` returns the integer
    floor average (the dialect has no floats), ``None`` on empty input like
    ``min``/``max``.
    """
    if aggregate.func == "count":
        return [(len(rows),)]
    if aggregate.column is None:  # pragma: no cover - parser guarantees it
        raise ServerError(f"{aggregate.func} needs a column")
    values = _int_column_values(schema, rows, aggregate.column, aggregate.func)
    if aggregate.func in ("sum", "ashe_sum"):
        return [(sum(values),)]
    if aggregate.func == "min":
        return [(min(values) if values else None,)]
    if aggregate.func == "max":
        return [(max(values) if values else None,)]
    if aggregate.func == "avg":
        return [(sum(values) // len(values) if values else None,)]
    raise ServerError(f"unknown aggregate {aggregate.func!r}")


def aggregate_grouped(
    schema: TableSchema,
    rows: Sequence[Row],
    aggregate: Aggregate,
    group_by: str,
) -> List[Row]:
    """GROUP BY evaluation: one output row per group value, sorted."""
    idx = schema.column_index(group_by)
    groups: dict = {}
    for row in rows:
        groups.setdefault(row[idx], []).append(row)
    out: List[Row] = []
    for key in sorted(groups, key=lambda k: (k is None, repr(k))):
        out.append((key,) + aggregate_rows(schema, groups[key], aggregate)[0])
    return out


def validate_select(schema: TableSchema, stmt: Select) -> None:
    """Check every referenced column exists (raises CatalogError if not).

    This runs before execution, so a SELECT naming a random column fails
    exactly like the paper's Section 5 marker query — after its text has
    already been copied into the net buffer, arena, and statement tables.
    """
    for name in stmt.columns:
        schema.column(name)
    if stmt.aggregate is not None and stmt.aggregate.column is not None:
        schema.column(stmt.aggregate.column)
    if stmt.where is not None:
        for cond in stmt.where.conditions:
            schema.column(cond.column)
    if stmt.group_by is not None:
        schema.column(stmt.group_by)
    if stmt.order_by is not None:
        schema.column(stmt.order_by)


# -- prepared statements ------------------------------------------------------

_VIRTUAL_PREFIXES = ("information_schema.", "performance_schema.")


def prepare(
    server: MySQLServer, stmt: Statement, literals: Sequence[Literal]
) -> PreparedStatement:
    """Compile a statement template into its shape's executor.

    Raises what the statement's execution raises before it touches any
    state: an unknown table or column, a bad UPDATE assignment. ``literals``
    are the statement's own; only UPDATE reads them, to raise its errors in
    the statement's order.
    """
    catalog = server.catalog
    if isinstance(stmt, Select):
        if stmt.table.startswith(_VIRTUAL_PREFIXES):
            return PreparedVirtualSelect(server.virtual_schema(stmt.table), stmt)
        return PreparedTableSelect(catalog.table(stmt.table), stmt)
    if isinstance(stmt, Insert):
        return PreparedInsert(catalog.table(stmt.table), stmt)
    if isinstance(stmt, Update):
        return PreparedUpdate(catalog.table(stmt.table), stmt, literals)
    if isinstance(stmt, Delete):
        return PreparedDelete(catalog.table(stmt.table), stmt)
    if isinstance(stmt, CreateTable):
        return PreparedCreateTable(stmt)
    if isinstance(stmt, BeginTxn):
        return PreparedBegin()
    if isinstance(stmt, CommitTxn):
        return PreparedCommit()
    if isinstance(stmt, RollbackTxn):
        return PreparedRollback()
    raise ServerError(f"unhandled statement {type(stmt).__name__}")


class PreparedStatement:
    """One statement shape's executor.

    ``statement`` names the statement kind (the ``execute`` span's detail).
    Each kind defines ``run(server, session, literals, sql) -> Outcome``.
    """

    __slots__ = ()

    statement = ""

    def is_current(self, catalog: Catalog) -> bool:
        """Whether the executor still matches the catalog."""
        return True


class _TableStatement(PreparedStatement):
    """An executor over one user table, prepared against its schema."""

    __slots__ = ("table", "schema")

    def __init__(self, schema: TableSchema) -> None:
        self.table = schema.name
        self.schema = schema

    def is_current(self, catalog: Catalog) -> bool:
        return catalog.get(self.table) is self.schema


class PreparedSelect(_TableStatement):
    """What every SELECT shape resolves once: the checked column list, the
    result columns, the WHERE clause, the projection and ORDER BY indexes,
    LIMIT's literal position and the aggregate."""

    __slots__ = (
        "columns", "where", "projection", "order_index", "limit", "aggregate",
        "group_by",
    )

    statement = "Select"

    def __init__(self, schema: TableSchema, stmt: Select) -> None:
        validate_select(schema, stmt)
        super().__init__(schema)
        self.columns = tuple(result_columns(schema, stmt))
        self.where = None if stmt.where is None else PreparedWhere(schema, stmt.where)
        self.projection = (
            None if stmt.is_star or stmt.aggregate is not None
            else tuple(schema.column_index(name) for name in stmt.columns)
        )
        self.order_index = (
            None if stmt.order_by is None else schema.column_index(stmt.order_by)
        )
        # LIMIT takes a number literal, so it is always a slot here.
        self.limit = None if stmt.limit is None else stmt.limit.index  # type: ignore[union-attr]
        self.aggregate = stmt.aggregate
        self.group_by = stmt.group_by

    def _filter(
        self, server: MySQLServer, rows: List, literals: Sequence[Literal]
    ) -> List:
        """The rows the WHERE clause keeps, with filter-stage metrics."""
        where = self.where
        if where is None:
            matching = list(rows)
        else:
            matching = list(filter(where.bind(literals, server.udfs), rows))
        obs = server.obs
        if obs is not None:
            obs.metrics.inc("executor.rows_examined", n=len(rows))
            obs.metrics.inc("executor.rows_matched", n=len(matching))
        return matching

    def _output(self, matching: List, literals: Sequence[Literal]) -> List[Row]:
        """ORDER BY, LIMIT, then the aggregate or the projection."""
        if self.order_index is not None:
            idx = self.order_index
            matching.sort(key=lambda r: (r[idx] is None, r[idx]))
        if self.limit is not None:
            matching = matching[: literals[self.limit]]
        if self.aggregate is not None:
            if self.group_by is not None:
                return aggregate_grouped(
                    self.schema, matching, self.aggregate, self.group_by
                )
            return aggregate_rows(self.schema, matching, self.aggregate)
        projection = self.projection
        if projection is None:
            return matching
        return [tuple([row[i] for i in projection]) for row in matching]


class PreparedVirtualSelect(PreparedSelect):
    """A SELECT over a diagnostic table, whose rows are rebuilt per statement."""

    __slots__ = ()

    def is_current(self, catalog: Catalog) -> bool:
        return True  # not a catalog table

    def run(
        self,
        server: MySQLServer,
        session: Session,
        literals: Sequence[Literal],
        sql: str,
    ) -> Outcome:
        rows = server.virtual_rows(self.table)
        matching = self._filter(server, rows, literals)
        out_rows = self._output(matching, literals)
        return self.columns, tuple(out_rows), len(rows), 0, False


class PreparedTableSelect(PreparedSelect):
    """A SELECT over a user table: query cache, access path, filter."""

    __slots__ = ("plan", "count_only")

    def __init__(self, schema: TableSchema, stmt: Select) -> None:
        super().__init__(schema, stmt)
        self.plan = plan_shape(stmt.where, schema.primary_key)
        # COUNT(*) of every row counts the scan's entries without decoding
        # them; ORDER BY cannot change a count.
        self.count_only = (
            stmt.aggregate is not None
            and stmt.aggregate.func == "count"
            and stmt.where is None
            and stmt.group_by is None
        )
        if self.count_only:
            self.order_index = None

    def run(
        self,
        server: MySQLServer,
        session: Session,
        literals: Sequence[Literal],
        sql: str,
    ) -> Outcome:
        txn = session.active_txn
        # Only autocommit reads see exactly the committed state, so only
        # they may read or fill the query cache.
        if txn is None:
            cached = server.query_cache.lookup(sql)
            if cached is not None:
                return self.columns, cached.rows, 0, 0, True
        table = self.table
        plan = self.plan
        engine = server.engine
        obs = server.obs
        if obs is not None:
            # The plan was chosen when the shape was prepared: the span
            # marks the step and names the table.
            obs.tracer.mark("plan", table=table)
        if plan.error is not None:
            raise PlanError(plan.error)
        if plan.kind is PlanKind.PK_LOOKUP:
            key = literals[plan.key]  # type: ignore[index]
            payload, _ = engine.get(table, key, txn=txn)
            server.adaptive_hash.record_lookup(table, key)
            rows = [] if payload is None else [server.decode_memo(payload)]
        else:
            if plan.kind is PlanKind.PK_RANGE:
                entries, _ = engine.range(
                    table, _bound(plan.low, literals), _bound(plan.high, literals),
                    txn=txn,
                )
            else:
                entries, _ = engine.full_scan(table, txn=txn)
            if self.count_only:
                rows = entries
            else:
                decode = server.decode_memo
                rows = [decode(payload) for _, payload in entries]
        # Executor string copies: the comparison constants of the WHERE
        # clause are materialized once per query (Item::val_str style).
        if self.where is not None:
            alloc = session.query_arena.alloc_str
            for value in self.where.constants(literals):
                alloc(value)
        matching = self._filter(server, rows, literals)
        out_rows = self._output(matching, literals)
        if txn is None:
            server.query_cache.store(sql, (table,), out_rows)
        return self.columns, tuple(out_rows), len(rows), 0, False


def _bound(bound: Optional[Bound], literals: Sequence[Literal]) -> Optional[int]:
    if bound is None:
        return None
    index, offset = bound
    return literals[index] + offset  # type: ignore[operator]


class PreparedInsert(_TableStatement):
    """An INSERT: the row builder and the key column are resolved once, rows
    bound per statement."""

    __slots__ = ("build_row", "key_of", "rows")

    statement = "Insert"

    def __init__(self, schema: TableSchema, stmt: Insert) -> None:
        super().__init__(schema)
        self.build_row = schema.row_builder(stmt.columns)
        self.key_of = schema.clustering_key_of()
        # Each VALUES tuple as the slice of the literals it spans, or as its
        # terms when it holds a NULL.
        rows: List[object] = []
        for values in stmt.rows:
            if all(type(v) is Slot for v in values):
                first = values[0].index  # type: ignore[union-attr]
                rows.append(slice(first, first + len(values)))
            else:
                rows.append(values)
        self.rows = tuple(rows)

    def run(
        self,
        server: MySQLServer,
        session: Session,
        literals: Sequence[Literal],
        sql: str,
    ) -> Outcome:
        table = self.table
        build_row = self.build_row
        key_of = self.key_of
        engine = server.engine
        txn, autocommit = server.begin_write(session, sql)
        inserted = 0
        try:
            for spec in self.rows:
                if type(spec) is slice:
                    values = literals[spec]
                else:
                    values = tuple([_bind(term, literals) for term in spec])
                row = build_row(values)
                key = key_of(row)
                try:
                    engine.insert(txn, table, key, encode_row(row))
                except DuplicateEntryError as exc:
                    raise DuplicateKeyError(
                        f"duplicate primary key {key} in {table!r}"
                    ) from exc
                inserted += 1
        except Exception:
            server.write_failed(session, txn, autocommit)
            raise
        if autocommit:
            engine.commit(txn)
        server.query_cache.invalidate_table(table)
        return (), (), 0, inserted, False


class _ScanWrite(_TableStatement):
    """UPDATE and DELETE: a full scan that changes the rows WHERE keeps."""

    __slots__ = ("where",)

    def _matches(
        self, server: MySQLServer, literals: Sequence[Literal]
    ) -> RowPredicate:
        if self.where is None:
            return _always
        return self.where.bind(literals, server.udfs)


class PreparedUpdate(_ScanWrite):
    """An UPDATE: assignment columns checked once, values per statement."""

    __slots__ = ("assigned", "indexes", "terms")

    statement = "Update"

    def __init__(
        self, schema: TableSchema, stmt: Update, literals: Sequence[Literal]
    ) -> None:
        super().__init__(schema)
        assigned: List[ColumnDef] = []
        try:
            for column, _ in stmt.assignments:
                col = schema.column(column)
                if col.primary_key:
                    raise CatalogError("updating the primary key is not supported")
                assigned.append(col)
            self.where = (
                None if stmt.where is None else PreparedWhere(schema, stmt.where)
            )
        except CatalogError:
            # A statement checks each assignment's value right after its
            # column, and the WHERE columns after every assignment: the
            # values before the failing check fail first.
            for col, (_, term) in zip(assigned, stmt.assignments):
                schema.validate_value(col, _bind(term, literals))
            raise
        self.assigned = tuple(assigned)
        self.indexes = tuple(schema.column_index(col.name) for col in assigned)
        self.terms = tuple(term for _, term in stmt.assignments)

    def run(
        self,
        server: MySQLServer,
        session: Session,
        literals: Sequence[Literal],
        sql: str,
    ) -> Outcome:
        schema = self.schema
        values = [_bind(term, literals) for term in self.terms]
        for col, value in zip(self.assigned, values):
            schema.validate_value(col, value)
        matches = self._matches(server, literals)
        assignments = list(zip(self.indexes, values))
        table = self.table
        engine = server.engine
        txn, autocommit = server.begin_write(session, sql)
        affected = 0
        examined = 0
        try:
            entries, _ = engine.full_scan(table, txn=txn)
            for key, payload in entries:
                examined += 1
                row = server.decode_memo(payload)
                if not matches(row):
                    continue
                new_row = list(row)
                for idx, value in assignments:
                    new_row[idx] = value
                engine.update(txn, table, key, encode_row(tuple(new_row)))
                affected += 1
        except Exception:
            server.write_failed(session, txn, autocommit)
            raise
        if autocommit:
            engine.commit(txn)
        if affected:
            server.query_cache.invalidate_table(table)
        return (), (), examined, affected, False


class PreparedDelete(_ScanWrite):
    """A DELETE: every row is examined, the matching ones deleted."""

    __slots__ = ()

    statement = "Delete"

    def __init__(self, schema: TableSchema, stmt: Delete) -> None:
        super().__init__(schema)
        self.where = None if stmt.where is None else PreparedWhere(schema, stmt.where)

    def run(
        self,
        server: MySQLServer,
        session: Session,
        literals: Sequence[Literal],
        sql: str,
    ) -> Outcome:
        matches = self._matches(server, literals)
        table = self.table
        engine = server.engine
        txn, autocommit = server.begin_write(session, sql)
        affected = 0
        examined = 0
        try:
            entries, _ = engine.full_scan(table, txn=txn)
            for key, payload in entries:
                examined += 1
                row = server.decode_memo(payload)
                if not matches(row):
                    continue
                engine.delete(txn, table, key)
                affected += 1
        except Exception:
            server.write_failed(session, txn, autocommit)
            raise
        if autocommit:
            engine.commit(txn)
        if affected:
            server.query_cache.invalidate_table(table)
        return (), (), examined, affected, False


class PreparedCreateTable(PreparedStatement):
    """A CREATE TABLE: the table's name and column definitions."""

    __slots__ = ("table", "columns", "primary_key")

    statement = "CreateTable"

    def __init__(self, stmt: CreateTable) -> None:
        self.table = stmt.table
        self.columns = stmt.columns
        self.primary_key = stmt.primary_key

    def run(
        self,
        server: MySQLServer,
        session: Session,
        literals: Sequence[Literal],
        sql: str,
    ) -> Outcome:
        server.catalog.create_table(self.table, self.columns, self.primary_key)
        server.engine.register_table(self.table)
        # DDL goes to the binlog like any replicated statement (but never
        # opens a transaction — see StorageEngine.log_ddl).
        server.engine.log_ddl(server.clock.timestamp(), sql)
        return _NO_ROWS


class PreparedBegin(PreparedStatement):
    __slots__ = ()

    statement = "BeginTxn"

    def run(
        self,
        server: MySQLServer,
        session: Session,
        literals: Sequence[Literal],
        sql: str,
    ) -> Outcome:
        if session.active_txn is not None:
            raise ServerError("transaction already open on this session")
        session.active_txn = server.engine.begin()
        return _NO_ROWS


class PreparedCommit(PreparedStatement):
    __slots__ = ()

    statement = "CommitTxn"

    def run(
        self,
        server: MySQLServer,
        session: Session,
        literals: Sequence[Literal],
        sql: str,
    ) -> Outcome:
        txn = session.active_txn
        if txn is None:
            raise ServerError("no open transaction to commit")
        written = txn.tables_written
        server.engine.commit(txn)
        session.active_txn = None
        # Autocommit reads cached while the transaction was open saw none
        # of its rows; they are stale now.
        for table in written:
            server.query_cache.invalidate_table(table)
        return _NO_ROWS


class PreparedRollback(PreparedStatement):
    __slots__ = ()

    statement = "RollbackTxn"

    def run(
        self,
        server: MySQLServer,
        session: Session,
        literals: Sequence[Literal],
        sql: str,
    ) -> Outcome:
        if session.active_txn is None:
            raise ServerError("no open transaction to roll back")
        server.engine.rollback(session.active_txn)
        session.active_txn = None
        return _NO_ROWS
