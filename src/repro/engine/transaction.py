"""Transaction lifecycle.

A :class:`Transaction` collects row changes; the engine writes redo/undo
records as changes are applied and appends the statement to the binlog at
commit. Rollback replays undo images in reverse — the ACID ability the
paper points at as the root cause of on-disk write-history leakage.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, NamedTuple

from ..errors import TransactionError


class TransactionState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ROLLED_BACK = "rolled_back"


class _Change(NamedTuple):
    """One applied row change, kept for rollback."""

    table: str
    op: str  # insert | update | delete
    key: int
    before_image: bytes  # b"" for insert
    after_image: bytes   # b"" for delete


@dataclass
class Transaction:
    """A unit of work over the storage engine.

    Under MVCC the engine's :class:`~repro.engine.mvcc.MVCCManager` fixes
    the snapshot this transaction reads when it begins.
    """

    txn_id: int
    statements: List[str] = field(default_factory=list)
    state: TransactionState = TransactionState.ACTIVE
    #: LSNs of this transaction's first and last redo records (-1 while the
    #: transaction has written nothing) — the ARIES per-txn log span.
    first_lsn: int = -1
    last_lsn: int = -1
    _changes: List[_Change] = field(default_factory=list)

    def note_lsn(self, lsn: int) -> None:
        """Record that a redo record at ``lsn`` belongs to this transaction."""
        if self.first_lsn < 0:
            self.first_lsn = lsn
        self.last_lsn = lsn

    def record_change(
        self, table: str, op: str, key: int, before_image: bytes, after_image: bytes
    ) -> None:
        """Remember an applied change (engine-internal)."""
        self._ensure_active()
        self._changes.append(_Change(table, op, key, before_image, after_image))

    def record_statement(self, statement: str) -> None:
        """Remember the SQL text driving this transaction (for the binlog)."""
        self._ensure_active()
        self.statements.append(statement)

    @property
    def changes(self) -> List[_Change]:
        return list(self._changes)

    @property
    def num_changes(self) -> int:
        return len(self._changes)

    @property
    def is_write(self) -> bool:
        return bool(self._changes)

    @property
    def tables_written(self) -> List[str]:
        """The tables this transaction changed, sorted."""
        return sorted({change.table for change in self._changes})

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
