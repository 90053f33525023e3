"""E2 — redo/undo retention: "16 days' worth of inserts" (paper §3).

Paper: "with 1 write modifying a 20-byte field per second, the undo and redo
logs of default size (50 Mb) store 16 days' worth of inserts."

The paper's arithmetic implies ~36 bytes of combined log space per write
(50e6 / (16 x 86,400) ≈ 36) — InnoDB's byte-level change records are lean.
Our simulated records carry explicit framing and both images, so the bytes
per write differ; what must (and does) hold is the *relationship*:

    retention_seconds = combined_capacity / (write_rate x bytes_per_write)

``run_log_retention`` measures bytes-per-write empirically by driving the
real server with the paper's workload, verifies retention against a
scaled-down log empirically, and reports the projected retention at the
paper's 50 MB alongside the paper's own 16-day figure.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..clock import SimClock
from ..forensics import reconstruct_modifications
from ..server import MySQLServer, ServerConfig
from ..snapshot import AttackScenario, capture

#: The paper's parameters.
PAPER_CAPACITY_BYTES = 50 * 1000 * 1000
PAPER_RETENTION_DAYS = 16.0
PAPER_FIELD_BYTES = 20
PAPER_WRITE_RATE_PER_SEC = 1.0


@dataclass(frozen=True)
class RetentionResult:
    """Measured and projected retention windows."""

    bytes_per_write: float          # combined redo+undo bytes per UPDATE
    measured_capacity: int          # the scaled-down log used empirically
    measured_retention_seconds: float
    predicted_retention_seconds: float  # capacity / (rate * bytes_per_write)
    projected_days_at_paper_capacity: float
    paper_days: float
    reconstructed_fraction: float   # writes recoverable from the window

    @property
    def prediction_error(self) -> float:
        """Relative error of the linear model on the measured window."""
        return abs(
            self.measured_retention_seconds - self.predicted_retention_seconds
        ) / self.predicted_retention_seconds


def run_log_retention(
    num_writes: int = 4_000,
    capacity_bytes: int = 120_000,
    write_rate_per_sec: float = PAPER_WRITE_RATE_PER_SEC,
    field_bytes: int = PAPER_FIELD_BYTES,
) -> RetentionResult:
    """Drive the paper's workload and measure the retention window.

    One row's 20-byte field is updated once per simulated second;
    ``capacity_bytes`` is split evenly between redo and undo (as the paper's
    "50 Mb" combined figure is).
    """
    clock = SimClock()
    server = MySQLServer(
        ServerConfig(
            redo_capacity=capacity_bytes // 2,
            undo_capacity=capacity_bytes // 2,
        ),
        clock=clock,
    )
    session = server.connect("writer")
    server.execute(session, "CREATE TABLE events (id INT PRIMARY KEY, payload TEXT)")
    server.execute(
        session,
        f"INSERT INTO events (id, payload) VALUES (1, '{'x' * field_bytes}')",
    )

    interval = 1.0 / write_rate_per_sec
    first_write_time = clock.now
    write_times = []
    for i in range(num_writes):
        payload = format(i, f"0{field_bytes}d")  # exactly field_bytes chars
        write_times.append(clock.now)
        server.execute(
            session, f"UPDATE events SET payload = '{payload}' WHERE id = 1"
        )
        # The server already advanced the clock by the statement cost; pad
        # to the workload's 1-write-per-interval cadence.
        elapsed = clock.now - write_times[-1]
        if elapsed < interval:
            clock.advance(interval - elapsed)

    engine = server.engine
    # Combined redo+undo bytes per write, averaged over the retained window
    # (the one-off DDL/seed records are amortized away).
    bytes_per_write = (
        engine.redo_log.used_bytes / max(engine.redo_log.num_records, 1)
    ) + (engine.undo_log.used_bytes / max(engine.undo_log.num_records, 1))

    snap = capture(server, AttackScenario.DISK_THEFT)
    events = reconstruct_modifications(
        snap.get("redo_log_raw"), snap.get("undo_log_raw")
    )
    updates = [e for e in events if e.op == "update"]
    # Retention window: oldest retained update's issue time to now.
    retained = len({e.lsn for e in updates})
    oldest_index = num_writes - min(retained, num_writes)
    measured_retention = clock.now - write_times[oldest_index]
    predicted = capacity_bytes / (write_rate_per_sec * bytes_per_write)

    projected_days = (
        PAPER_CAPACITY_BYTES / (write_rate_per_sec * bytes_per_write) / 86_400
    )
    return RetentionResult(
        bytes_per_write=bytes_per_write,
        measured_capacity=capacity_bytes,
        measured_retention_seconds=measured_retention,
        predicted_retention_seconds=predicted,
        projected_days_at_paper_capacity=projected_days,
        paper_days=PAPER_RETENTION_DAYS,
        reconstructed_fraction=min(retained, num_writes) / num_writes,
    )
