"""Exception hierarchy for the repro library.

Every subsystem raises exceptions derived from :class:`ReproError` so callers
can catch library failures without masking programming errors (``TypeError``,
``AttributeError``, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SQLError(ReproError):
    """Base class for SQL-layer errors."""


class LexerError(SQLError):
    """Raised when the SQL lexer encounters an invalid character sequence."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ParseError(SQLError):
    """Raised when the SQL parser cannot produce a statement from tokens."""


class PlanError(SQLError):
    """Raised when no executable plan exists for a parsed statement."""


class StorageError(ReproError):
    """Base class for storage-layer errors."""


class DuplicateEntryError(StorageError):
    """Raised when an index insert finds its key already present."""


class PageError(StorageError):
    """Raised on invalid page operations (overflow, bad slot, bad id)."""


class BufferPoolError(StorageError):
    """Raised on invalid buffer-pool operations."""


class RecordError(StorageError):
    """Raised when a record cannot be encoded or decoded."""


class EngineError(ReproError):
    """Base class for transactional-engine errors."""


class TransactionError(EngineError):
    """Raised on invalid transaction state transitions."""


class WriteConflictError(TransactionError):
    """Raised on a write-write conflict under MVCC (first-writer-wins).

    The transaction that touches a row second — while the first writer is
    uncommitted, or after a conflicting commit newer than its snapshot —
    is aborted at write time.
    """




class LogError(EngineError):
    """Raised when a log (redo/undo/binlog) rejects an operation."""


class WalError(LogError):
    """Raised by the write-ahead log on malformed frames or misuse."""


class RecoveryError(EngineError):
    """Raised when ARIES restart recovery cannot proceed."""


class ServerError(ReproError):
    """Base class for server-layer errors."""


class SessionError(ServerError):
    """Raised on invalid session/connection operations."""


class SchedulerError(ServerError):
    """Raised by the session scheduler on invalid admission or dispatch."""


class CatalogError(ServerError):
    """Raised when a statement references an unknown table or column."""


class DuplicateKeyError(ServerError):
    """Raised when an insert violates a primary-key constraint."""


class MemoryModelError(ReproError):
    """Raised by the simulated process-heap on invalid alloc/free."""


class CryptoError(ReproError):
    """Base class for crypto-layer errors."""


class DecryptionError(CryptoError):
    """Raised when a ciphertext fails authentication or decoding."""


class EDBError(ReproError):
    """Base class for encrypted-database-layer errors."""


class ObsError(ReproError):
    """Raised by the observability layer on invalid configuration or use."""


class SnapshotError(ReproError):
    """Raised when a snapshot scenario is asked for state it cannot see."""


class ForensicsError(ReproError):
    """Raised when an artifact parser receives malformed input."""


class AttackError(ReproError):
    """Raised when an inference attack is given unusable leakage."""


class WorkloadError(ReproError):
    """Raised by workload generators on invalid parameters."""


class AnalysisError(ReproError):
    """Raised by the static leakage analyzer on unusable input.

    Covers malformed leakage specs, unparseable source files, and bad
    analyzer configuration — *not* leakage findings, which are reported,
    never raised.
    """
