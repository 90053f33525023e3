"""Table catalog: schemas, primary keys, row validation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import CatalogError
from ..sql.ast import ColumnDef, Literal

#: The Python type each column type stores.
_COLUMN_TYPES = {"INT": int, "TEXT": str, "BLOB": bytes}


@dataclass
class TableSchema:
    """Schema of one user table.

    Rows are stored keyed by an integer clustering key: the declared INT
    PRIMARY KEY if there is one, else a hidden auto-increment row id (like
    InnoDB's ``DB_ROW_ID``).
    """

    name: str
    columns: Tuple[ColumnDef, ...]
    primary_key: Optional[str]
    _next_hidden_rowid: int = 1

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in table {self.name!r}")
        if self.primary_key is not None:
            pk_col = self.column(self.primary_key)
            if pk_col.type != "INT":
                raise CatalogError(
                    f"primary key {self.primary_key!r} must be INT, "
                    f"is {pk_col.type}"
                )

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> ColumnDef:
        for col in self.columns:
            if col.name == name:
                return col
        raise CatalogError(f"table {self.name!r} has no column {name!r}")

    def column_index(self, name: str) -> int:
        for idx, col in enumerate(self.columns):
            if col.name == name:
                return idx
        raise CatalogError(f"table {self.name!r} has no column {name!r}")

    def validate_value(self, column: ColumnDef, value: Literal) -> None:
        """Type-check one value against its column definition."""
        if value is None:
            if column.primary_key:
                raise CatalogError(
                    f"primary key {column.name!r} cannot be NULL"
                )
            return
        expected = _COLUMN_TYPES[column.type]
        if not isinstance(value, expected):
            raise CatalogError(
                f"column {self.name}.{column.name} expects {column.type}, "
                f"got {type(value).__name__}"
            )

    def row_builder(
        self, insert_columns: Sequence[str]
    ) -> Callable[[Sequence[Literal]], Tuple[Literal, ...]]:
        """Compile an INSERT's column list into a per-row builder.

        The columns are resolved once per statement; the builder turns
        each VALUES tuple into a full row, NULL for every column not
        listed. An empty list means every column in table order. Each row
        raises, in order: a count mismatch, an unknown or repeated column,
        then the first type or NULL-key error in schema order.
        """
        columns = tuple(insert_columns) or tuple(self.column_names)
        width = len(columns)
        column_error = None
        unknown = set(columns) - set(self.column_names)
        if unknown:
            column_error = (
                f"unknown column(s) {sorted(unknown)} in INSERT into {self.name!r}"
            )
        elif len(set(columns)) != width:
            repeated = next(n for i, n in enumerate(columns) if n in columns[:i])
            column_error = (
                f"column {repeated!r} specified twice in INSERT into {self.name!r}"
            )
        slots = [
            (
                columns.index(col.name) if col.name in columns else -1,
                col,
                _COLUMN_TYPES[col.type],
            )
            for col in self.columns
        ]

        def build(values: Sequence[Literal]) -> Tuple[Literal, ...]:
            if len(values) != width:
                raise CatalogError(f"{width} columns but {len(values)} values")
            if column_error is not None:
                raise CatalogError(column_error)
            row = []
            for position, column, expected in slots:
                value = values[position] if position >= 0 else None
                if value is None:
                    if column.primary_key:
                        self.validate_value(column, value)  # raises
                elif not isinstance(value, expected):
                    self.validate_value(column, value)  # raises
                row.append(value)
            return tuple(row)

        return build

    def clustering_key(self, row: Sequence[Literal]) -> int:
        """The integer key a row is stored under (PK or hidden rowid)."""
        if self.primary_key is not None:
            value = row[self.column_index(self.primary_key)]
            if not isinstance(value, int):
                raise CatalogError(
                    f"primary key value for {self.name!r} must be an int"
                )
            return value
        rowid = self._next_hidden_rowid
        self._next_hidden_rowid += 1
        return rowid


class Catalog:
    """All user-table schemas known to the server."""

    def __init__(self) -> None:
        self._tables: Dict[str, TableSchema] = {}

    def create_table(
        self, name: str, columns: Sequence[ColumnDef], primary_key: Optional[str]
    ) -> TableSchema:
        if name in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        schema = TableSchema(
            name=name, columns=tuple(columns), primary_key=primary_key
        )
        self._tables[name] = schema
        return schema

    def table(self, name: str) -> TableSchema:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def get(self, name: str) -> Optional[TableSchema]:
        """The table's schema, or ``None`` if there is no such table."""
        return self._tables.get(name)

    def has_table(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> List[str]:
        return sorted(self._tables)
