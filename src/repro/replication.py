"""Statement-based replication: every replica is a full leak surface.

Paper §2: "For simplicity, we assume the database is not sharded across
multiple machines, i.e., even if the database is replicated, every machine
has a full copy of the data." — and §3 notes the binlog exists precisely
"to support replicated transactions".

:class:`ReplicatedDeployment` models that deployment: one primary plus N
replicas, with the primary's binlog shipped and replayed statement-by-
statement (MySQL's classic statement-based replication). Consequences the
attack-surface benchmark quantifies:

* every replica materializes the full data *and its own* redo/undo logs,
  binlog copy, statement history, and heap residue — compromising **any one
  machine** yields everything a primary snapshot would;
* replication is exactly why the binlog (the paper's richest timing
  artifact) must exist at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .clock import SimClock
from .engine.binlog import BinlogEvent
from .errors import ReproError
from .server import MySQLServer, QueryResult, ServerConfig, Session
from .snapshot.registry import ArtifactProvider
from .snapshot.scenario import StateQuadrant


class RelayLog:
    """A replica's relay log: the shipped binlog events, persisted again.

    MySQL replicas write every event received from the primary to an
    on-disk relay log before applying it — one more durable copy of every
    statement, on every machine. Snapshot of *any* replica yields it.
    """

    def __init__(self) -> None:
        self.entries: List[BinlogEvent] = []

    def append(self, event: BinlogEvent) -> None:
        self.entries.append(event)

    @property
    def num_events(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ReplicationStatus:
    """Replication lag/health summary."""

    replicas: int
    primary_binlog_events: int
    applied_per_replica: List[int]

    @property
    def in_sync(self) -> bool:
        return all(n == self.primary_binlog_events for n in self.applied_per_replica)


class ReplicatedDeployment:
    """A primary with ``num_replicas`` statement-replicating followers."""

    def __init__(
        self,
        num_replicas: int = 2,
        config: Optional[ServerConfig] = None,
        clock: Optional[SimClock] = None,
    ) -> None:
        if num_replicas < 0:
            raise ReproError(f"num_replicas must be >= 0, got {num_replicas}")
        self.clock = clock or SimClock()
        # Replication requires the binlog on the primary (the paper's point
        # about why production disks always carry it).
        base = config or ServerConfig()
        if not base.binlog_enabled:
            raise ReproError("replication requires binlog_enabled=True")
        # The paper's deployment is not sharded (§2), and replay reads one
        # engine's binlog: each shard logs every DDL, so a merged binlog
        # would replay each DDL (and each cross-shard write) once per shard.
        if base.num_shards > 1:
            raise ReproError(
                f"replication needs an unsharded primary, got "
                f"num_shards={base.num_shards}"
            )
        self.primary = MySQLServer(base, clock=self.clock)
        self.replicas: List[MySQLServer] = [
            MySQLServer(base, clock=self.clock) for _ in range(num_replicas)
        ]
        for replica in self.replicas:
            replica.relay_log = RelayLog()
        self._replica_sessions: List[Session] = [
            replica.connect("replication") for replica in self.replicas
        ]
        self._applied = [0] * num_replicas
        self._shipped = 0

    # -- client path -----------------------------------------------------------

    def execute(self, session: Session, sql: str) -> QueryResult:
        """Run a statement on the primary, then ship new binlog events."""
        result = self.primary.execute(session, sql)
        self.ship_binlog()
        return result

    def connect(self, user: str = "app") -> Session:
        return self.primary.connect(user)

    # -- replication -----------------------------------------------------------

    def ship_binlog(self) -> int:
        """Replay any unshipped primary binlog events on every replica."""
        events = self.primary.engine.binlog.events
        new_events = events[self._shipped :]
        for event in new_events:
            for index, replica in enumerate(self.replicas):
                replica.relay_log.append(event)
                replica.execute(self._replica_sessions[index], event.statement)
                self._applied[index] += 1
        self._shipped = len(events)
        return len(new_events)

    def status(self) -> ReplicationStatus:
        return ReplicationStatus(
            replicas=len(self.replicas),
            primary_binlog_events=self.primary.engine.binlog.num_events,
            applied_per_replica=list(self._applied),
        )

    # -- attack surface ------------------------------------------------------------

    @property
    def all_machines(self) -> List[MySQLServer]:
        """Primary + replicas: each one an independent, complete target."""
        return [self.primary, *self.replicas]


# -- snapshot artifacts ------------------------------------------------------


def _has_relay_log(server: MySQLServer) -> bool:
    return getattr(server, "relay_log", None) is not None


def _capture_relay_log(server: MySQLServer) -> tuple:
    return tuple(server.relay_log.entries)


def providers() -> Tuple[ArtifactProvider, ...]:
    """The replication layer's registered leakage surface.

    Only replicas carry a relay log, so the provider is gated on the
    target actually having one — snapshotting a standalone primary yields
    no ``relay_log_events`` artifact.
    """
    return (
        ArtifactProvider(
            name="relay_log_events",
            backend="mysql",
            quadrant=StateQuadrant.PERSISTENT_DB,
            artifact_class="logs",
            capture=_capture_relay_log,
            enabled=_has_relay_log,
            spec_sinks=("binlog",),
            forensic_reader="repro.forensics.binlog_reader.fit_lsn_timestamp_model",
        ),
    )
