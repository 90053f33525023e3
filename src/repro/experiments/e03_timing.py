"""E3 — dating aged-out log entries via binlog LSN-timestamp correlation.

Paper §3: the binlog pairs every write transaction's text with a UNIX
timestamp and (implicitly) an LSN position. "The attacker can thus infer the
approximate timestamps for the transactions in the undo and redo logs that
are no longer present in the binlog."

Protocol: run a steady write workload (with rate jitter), purge the binlog's
early window (the administrator's retention command), fit the correlation
model on the surviving tail, then date the *purged-era* modifications
reconstructed from the redo/undo logs and score against ground truth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from ..clock import SimClock
from ..forensics import (
    fit_lsn_timestamp_model,
    reconstruct_modifications,
)
from ..server import MySQLServer
from ..snapshot import AttackScenario, capture


@dataclass(frozen=True)
class TimingResult:
    """Timestamp-recovery error for entries outside the binlog window."""

    num_writes: int
    purged_fraction: float
    mean_abs_error_seconds: float
    max_abs_error_seconds: float
    mean_interval_seconds: float

    @property
    def error_in_intervals(self) -> float:
        """Mean error normalized by the workload's write interval."""
        return self.mean_abs_error_seconds / self.mean_interval_seconds


def run_binlog_timing(
    num_writes: int = 300,
    mean_interval: float = 60.0,
    jitter: float = 0.3,
    purged_fraction: float = 0.5,
    seed: int = 0,
) -> TimingResult:
    """Measure how well the fitted model dates purged-window writes."""
    rng = random.Random(seed)
    clock = SimClock()
    server = MySQLServer(clock=clock)
    session = server.connect("writer")
    server.execute(session, "CREATE TABLE log (id INT PRIMARY KEY, v INT)")

    truth: Dict[int, float] = {}  # lsn-at-commit -> true time
    for i in range(num_writes):
        server.execute(session, f"INSERT INTO log (id, v) VALUES ({i}, {i})")
        truth[server.engine.lsn.current] = clock.now
        clock.advance(mean_interval * rng.uniform(1 - jitter, 1 + jitter))

    events = server.engine.binlog.events
    cutoff_index = int(len(events) * purged_fraction)
    cutoff_time = events[cutoff_index].timestamp
    server.engine.binlog.purge_before(cutoff_time)

    snap = capture(server, AttackScenario.DISK_THEFT)
    model = fit_lsn_timestamp_model(snap.get("binlog_events"))
    mods = reconstruct_modifications(snap.get("redo_log_raw"), snap.get("undo_log_raw"))

    # Score only entries older than the surviving binlog window.
    errors: List[float] = []
    surviving_min_lsn = min(e.lsn for e in snap.get("binlog_events"))
    commit_lsns = sorted(truth)
    for event in mods:
        if event.op != "insert" or event.table != "log":
            continue
        # Ground truth keyed by the commit-point LSN >= the record's LSN.
        idx = _first_at_least(commit_lsns, event.lsn)
        if idx is None:
            continue
        commit_lsn = commit_lsns[idx]
        if commit_lsn >= surviving_min_lsn:
            continue  # still inside the binlog window - trivially dated
        estimate = model.timestamp_for(event.lsn)
        errors.append(abs(estimate - truth[commit_lsn]))

    if not errors:
        raise ValueError("no purged-window events to score; lower purged_fraction")
    return TimingResult(
        num_writes=num_writes,
        purged_fraction=purged_fraction,
        mean_abs_error_seconds=sum(errors) / len(errors),
        max_abs_error_seconds=max(errors),
        mean_interval_seconds=mean_interval,
    )


def _first_at_least(sorted_values: List[int], target: int):
    lo, hi = 0, len(sorted_values)
    while lo < hi:
        mid = (lo + hi) // 2
        if sorted_values[mid] < target:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo < len(sorted_values) else None
