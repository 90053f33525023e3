"""AST node definitions for the SQL dialect.

All nodes are frozen dataclasses; each statement keeps its original SQL text
(``raw``) because the DBMS logs, caches, and diagnostic tables all record the
*text* of queries, not their parse trees — that fidelity is what the paper's
snapshot attacks exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

Literal = Union[int, str, bytes, None]


@dataclass(frozen=True)
class Slot:
    """Stands for the ``index``-th literal of a statement template.

    A prepared statement's template is parsed with every literal replaced by
    a slot; ``kind`` is the literal's kind (``n``umber, ``s``tring, ``h``ex),
    which the digest text does not show but the template's shape fixes.
    """

    index: int
    kind: str


@dataclass(frozen=True)
class Comparison:
    """``column OP literal`` with OP in ``= != < <= > >=``."""

    column: str
    op: str
    value: Literal


@dataclass(frozen=True)
class BetweenCondition:
    """``column BETWEEN low AND high`` (inclusive range)."""

    column: str
    low: Literal
    high: Literal


@dataclass(frozen=True)
class MatchCondition:
    """``MATCH(column, 'keyword')`` — keyword containment (search onion)."""

    column: str
    keyword: str


@dataclass(frozen=True)
class FunctionCondition:
    """``fn(column, arg, ...)`` — a server-side UDF predicate.

    Encrypted databases install UDFs (CryptDB's ``ORE_CMP`` etc.) and pass
    tokens as literal arguments; the literals therefore flow through every
    statement-text artifact like any other query constant.
    """

    function: str
    column: str
    args: Tuple[Literal, ...]


Condition = Union[Comparison, BetweenCondition, MatchCondition, FunctionCondition]


@dataclass(frozen=True)
class WhereClause:
    """A conjunction of conditions (the dialect has no OR)."""

    conditions: Tuple[Condition, ...]

    @property
    def columns(self) -> Tuple[str, ...]:
        return tuple(c.column for c in self.conditions)


@dataclass(frozen=True)
class Aggregate:
    """An aggregate in the select list.

    ``func`` is one of ``count`` (column ``None``), ``sum``, ``min``,
    ``max``, ``avg``, or ``ashe_sum`` (the Seabed server-side summation).
    """

    func: str
    column: Optional[str]  # None only for count(*)


@dataclass(frozen=True)
class ColumnDef:
    """A column in a CREATE TABLE: name, type, primary-key flag."""

    name: str
    type: str  # "INT" | "TEXT" | "BLOB"
    primary_key: bool = False


@dataclass(frozen=True)
class CreateTable:
    raw: str
    table: str
    columns: Tuple[ColumnDef, ...]

    @property
    def primary_key(self) -> Optional[str]:
        for col in self.columns:
            if col.primary_key:
                return col.name
        return None


@dataclass(frozen=True)
class Insert:
    raw: str
    table: str
    columns: Tuple[str, ...]
    rows: Tuple[Tuple[Literal, ...], ...]


@dataclass(frozen=True)
class Select:
    raw: str
    table: str
    columns: Tuple[str, ...]  # empty means "*"
    aggregate: Optional[Aggregate]
    where: Optional[WhereClause]
    group_by: Optional[str] = None
    order_by: Optional[str] = None
    limit: Optional[int] = None

    @property
    def is_star(self) -> bool:
        return not self.columns and self.aggregate is None


@dataclass(frozen=True)
class Update:
    raw: str
    table: str
    assignments: Tuple[Tuple[str, Literal], ...]
    where: Optional[WhereClause]


@dataclass(frozen=True)
class Delete:
    raw: str
    table: str
    where: Optional[WhereClause]


@dataclass(frozen=True)
class BeginTxn:
    raw: str


@dataclass(frozen=True)
class CommitTxn:
    raw: str


@dataclass(frozen=True)
class RollbackTxn:
    raw: str


Statement = Union[
    CreateTable, Insert, Select, Update, Delete, BeginTxn, CommitTxn, RollbackTxn
]


def is_write(statement: Statement) -> bool:
    """True for statements that modify table data (binlog-worthy)."""
    return isinstance(statement, (Insert, Update, Delete))
