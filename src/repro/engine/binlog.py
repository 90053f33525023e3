"""The binary log (binlog): full statement text with UNIX timestamps.

Paper §3: "Binlog stores the text of every transaction that modifies any row
of the database, along with its UNIX timestamp. It is not enabled upon
installation but must be turned on for high availability and therefore will
be present on the disk of production MySQL servers. ... Its contents are
never purged unless the administrator executes a special command."

Each event also records the engine LSN at commit time — the pairing the
timestamp-correlation attack (E3) regresses to date redo/undo entries that
have aged out of the binlog.
"""

from __future__ import annotations

from typing import List, NamedTuple

from ..errors import LogError


class BinlogEvent(NamedTuple):
    """One committed write transaction: time, statement text, LSN, txn id."""

    timestamp: int
    txn_id: int
    statement: str
    lsn: int


class Binlog:
    """Append-only statement log, MySQL-style.

    ``enabled`` defaults to ``False`` like a fresh MySQL install; production
    deployments (and all experiments here) turn it on for replication /
    point-in-time recovery.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._events: List[BinlogEvent] = []
        #: Events :meth:`purge_before` dropped. A position counts every
        #: event ever logged, so it names the same event after a purge.
        self._purged = 0

    def log(self, timestamp: int, txn_id: int, statement: str, lsn: int) -> None:
        """Record a committed write transaction (no-op while disabled)."""
        if not self.enabled:
            return
        if self._events and timestamp < self._events[-1].timestamp:
            raise LogError(
                f"binlog timestamps must be monotone: {timestamp} after "
                f"{self._events[-1].timestamp}"
            )
        self._events.append(BinlogEvent(timestamp, txn_id, statement, lsn))

    @property
    def events(self) -> List[BinlogEvent]:
        """All retained events, oldest first."""
        return list(self._events)

    def events_since(self, position: int) -> List[BinlogEvent]:
        """The retained events from absolute ``position`` on, oldest first:
        a replica's unshipped tail, without copying the whole log."""
        return self._events[max(position - self._purged, 0) :]

    @property
    def num_events(self) -> int:
        """Events retained (not purged)."""
        return len(self._events)

    @property
    def end_position(self) -> int:
        """The position of the next event: every event ever logged."""
        return self._purged + len(self._events)

    def purge_before(self, timestamp: int) -> int:
        """The administrator's special purge command; returns events dropped."""
        kept = [e for e in self._events if e.timestamp >= timestamp]
        dropped = len(self._events) - len(kept)
        self._events = kept
        self._purged += dropped
        return dropped

    def to_text(self) -> str:
        """Render the ``mysqlbinlog``-utility view of the log."""
        lines = ["# repro binlog dump"]
        for event in self._events:
            lines.append(f"# at lsn {event.lsn}")
            lines.append(f"#{event.timestamp} server id 1  Xid = {event.txn_id}")
            lines.append(f"SET TIMESTAMP={event.timestamp};")
            lines.append(event.statement.rstrip(";") + ";")
        return "\n".join(lines) + "\n"
