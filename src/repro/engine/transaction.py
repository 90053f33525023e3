"""Transaction lifecycle.

A :class:`Transaction` names the rows it wrote; the engine writes redo/undo
records as changes are applied and appends the statement to the binlog at
commit. Each change's before-image lives once, on the row's MVCC version
chain (:mod:`repro.engine.mvcc`): rollback undoes from there in reverse —
the ACID ability the paper points at as the root cause of on-disk
write-history leakage.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Tuple

from ..errors import TransactionError


class TransactionState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ROLLED_BACK = "rolled_back"


@dataclass
class Transaction:
    """A unit of work over the storage engine.

    Under MVCC the engine's :class:`~repro.engine.mvcc.MVCCManager` fixes
    the snapshot this transaction reads when it begins.
    """

    txn_id: int
    statements: List[str] = field(default_factory=list)
    state: TransactionState = TransactionState.ACTIVE
    #: ``(table, key)`` of every row change, in write order (a row written
    #: twice appears twice); the MVCC manager appends to it.
    writes: List[Tuple[str, int]] = field(default_factory=list)

    def record_statement(self, statement: str) -> None:
        """Remember the SQL text driving this transaction (for the binlog)."""
        self._ensure_active()
        self.statements.append(statement)

    @property
    def is_write(self) -> bool:
        return bool(self.writes)

    @property
    def tables_written(self) -> List[str]:
        """The tables this transaction changed, sorted."""
        return sorted({table for table, _ in self.writes})

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
