"""The general query log and the slow query log.

Paper §3, "Inferring reads": "In MySQL, the general query log records every
query, including SELECT, but few systems enable it because it takes huge
amounts of disk space. Instead, on many production MySQL systems, the 'slow
query' log records transactions that take an unusually long time."

The general log is disabled by default (matching MySQL); the slow log is
enabled with a configurable ``long_query_time`` threshold.
"""

from __future__ import annotations

from typing import List, NamedTuple

from ..errors import LogError


class QueryLogEntry(NamedTuple):
    """A logged query: time, session, text, duration, rows examined."""

    timestamp: int
    session_id: int
    statement: str
    duration: float
    rows_examined: int


class GeneralQueryLog:
    """Records *every* statement when enabled (default: disabled)."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._entries: List[QueryLogEntry] = []

    def keeps(self, duration: float) -> bool:
        """Whether a statement that took ``duration`` would be logged."""
        return self.enabled

    def log(self, entry: QueryLogEntry) -> None:
        if self.keeps(entry.duration):
            self._entries.append(entry)

    @property
    def entries(self) -> List[QueryLogEntry]:
        return list(self._entries)

    def to_text(self) -> str:
        """Render MySQL's general-log text format."""
        lines = ["# repro general query log"]
        for e in self._entries:
            lines.append(f"{e.timestamp}\t{e.session_id} Query\t{e.statement}")
        return "\n".join(lines) + "\n"


class SlowQueryLog:
    """Records statements whose duration exceeds ``long_query_time``."""

    def __init__(self, enabled: bool = True, long_query_time: float = 1.0) -> None:
        if long_query_time < 0:
            raise LogError(
                f"long_query_time must be non-negative, got {long_query_time}"
            )
        self.enabled = enabled
        self.long_query_time = long_query_time
        self._entries: List[QueryLogEntry] = []

    def keeps(self, duration: float) -> bool:
        """Whether a statement that took ``duration`` would be logged."""
        return self.enabled and duration >= self.long_query_time

    def log(self, entry: QueryLogEntry) -> None:
        if self.keeps(entry.duration):
            self._entries.append(entry)

    @property
    def entries(self) -> List[QueryLogEntry]:
        return list(self._entries)

    def to_text(self) -> str:
        """Render MySQL's slow-log text format."""
        lines = ["# repro slow query log"]
        for e in self._entries:
            lines.append(f"# Time: {e.timestamp}")
            lines.append(
                f"# Query_time: {e.duration:.6f}  Rows_examined: {e.rows_examined}"
            )
            lines.append(e.statement.rstrip(";") + ";")
        return "\n".join(lines) + "\n"
