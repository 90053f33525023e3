"""Row-level predicate evaluation and projection for SELECT execution."""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import CatalogError, ServerError
from ..obs.instrumentation import Instrumentation
from ..sql.ast import (
    Aggregate,
    BetweenCondition,
    Comparison,
    Condition,
    FunctionCondition,
    Literal,
    MatchCondition,
    Select,
    WhereClause,
)
from .catalog import TableSchema

Row = Tuple[Literal, ...]

#: A server-side UDF predicate: ``(column_value, *args) -> bool``.
Udf = Callable[..., bool]
UdfRegistry = Dict[str, Udf]

#: A compiled WHERE clause: ``row -> bool``.
RowPredicate = Callable[[Row], bool]

_OPERATORS: Dict[str, Callable[[Literal, Literal], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _never(row: Row) -> bool:
    return False


def _always(row: Row) -> bool:
    return True


def _compile_comparison(idx: int, op: str, constant: Literal) -> RowPredicate:
    """SQL three-valued-ish comparison: NULL never matches.

    Cross-type comparisons (e.g. INT column vs string literal) never match
    in this dialect rather than coercing, so a row matches only when its
    value has exactly the constant's type.
    """
    compare = _OPERATORS.get(op)
    if compare is None:
        raise ServerError(f"unknown comparison operator {op!r}")
    if constant is None:
        return _never
    kind = type(constant)

    def comparison(row: Row) -> bool:
        value = row[idx]
        return type(value) is kind and compare(value, constant)

    return comparison


def _compile_condition(
    schema: TableSchema, condition: Condition, udfs: Optional[UdfRegistry]
) -> RowPredicate:
    """One WHERE condition as a row predicate, its constants bound once."""
    idx = schema.column_index(condition.column)
    if isinstance(condition, Comparison):
        return _compile_comparison(idx, condition.op, condition.value)
    if isinstance(condition, BetweenCondition):
        at_least = _compile_comparison(idx, ">=", condition.low)
        at_most = _compile_comparison(idx, "<=", condition.high)
        return lambda row: at_least(row) and at_most(row)
    if isinstance(condition, MatchCondition):
        keyword = condition.keyword.lower()

        def match(row: Row) -> bool:
            value = row[idx]
            # Word-boundary keyword containment (the SEARCH-onion semantic).
            return isinstance(value, str) and keyword in value.lower().split()

        return match
    if isinstance(condition, FunctionCondition):
        registry = udfs or {}
        name, args = condition.function, condition.args

        def function(row: Row) -> bool:
            # Looked up per row, so an unknown function raises only once a
            # row reaches this condition.
            udf = registry.get(name)
            if udf is None:
                raise ServerError(f"unknown function {name!r}")
            return bool(udf(row[idx], *args))

        return function
    raise ServerError(f"unknown condition type {type(condition).__name__}")


def compile_where(
    schema: TableSchema,
    where: Optional[WhereClause],
    udfs: Optional[UdfRegistry] = None,
) -> RowPredicate:
    """Compile a (conjunctive) WHERE clause into one row predicate.

    Column indexes, operators, constants and the lowered MATCH keyword are
    resolved once per statement; the conditions still run left to right
    and stop at the first that fails. No clause matches everything.
    """
    if where is None:
        return _always
    predicates = [
        _compile_condition(schema, cond, udfs) for cond in where.conditions
    ]
    if len(predicates) == 1:
        return predicates[0]

    def conjunction(row: Row) -> bool:
        for predicate in predicates:
            if not predicate(row):
                return False
        return True

    return conjunction


def filter_rows(
    schema: TableSchema,
    rows: Sequence[Row],
    where: Optional[WhereClause],
    udfs: Optional[UdfRegistry] = None,
    instr: Optional[Instrumentation] = None,
) -> List[Row]:
    """Filter ``rows`` through the WHERE clause, with filter-stage metrics.

    The aggregate examined/matched counters land in the observability
    registry once per query (not per row), so instrumented filtering costs
    the same as the bare list comprehension it replaces.
    """
    matching = list(filter(compile_where(schema, where, udfs), rows))
    if instr is not None:
        instr.count("executor.rows_examined", n=len(rows))
        instr.count("executor.rows_matched", n=len(matching))
    return matching


def project(schema: TableSchema, row: Row, stmt: Select) -> Row:
    """Apply the SELECT list to a matching row."""
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
