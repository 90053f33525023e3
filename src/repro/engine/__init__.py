"""InnoDB-like transactional storage engine.

This package produces the on-disk write-history artifacts of paper Section 3:

* the redo and undo logs — circular byte-level change logs with LSNs
  ("record changes to the individual database records at the byte
  level"). They live in :mod:`repro.wal`: every append goes through the
  engine's :class:`~repro.wal.log_manager.LogManager`, which keeps each
  record once, in its log. ``StorageEngine.redo_log`` / ``undo_log`` are
  fixed-capacity windows that the manager computes from that log when
  they are read: the newest bodies that fit, so old entries age out
  exactly like InnoDB's 50 MB defaults.
* :mod:`.binlog` — the statement binlog with UNIX timestamps, never purged
  unless an administrator runs ``PURGE``.
* :mod:`.query_logs` — the general query log (off by default, like MySQL)
  and the slow-query log.
* :mod:`.transaction` — transaction lifecycle gluing row changes to log
  writes.
* :mod:`.engine` — the facade the server layer drives.
"""

from .binlog import Binlog, BinlogEvent
from .query_logs import GeneralQueryLog, SlowQueryLog, QueryLogEntry
from .transaction import Transaction, TransactionState
from .engine import StorageEngine, ChangeOp

__all__ = [
    "Binlog",
    "BinlogEvent",
    "GeneralQueryLog",
    "SlowQueryLog",
    "QueryLogEntry",
    "Transaction",
    "TransactionState",
    "StorageEngine",
    "ChangeOp",
]
