#!/usr/bin/env python
"""Disk theft: reconstruct the write history from stolen disk files.

Paper Section 3: an attacker who steals only the persistent storage parses
the circular redo/undo logs (byte-level change records) and the binlog
(statement text + timestamps), then dates the log entries that have already
aged out of the binlog via LSN-timestamp correlation.

Run: ``python examples/disk_theft_forensics.py``
"""

import random

from repro import AttackScenario, MySQLServer, SimClock, capture
from repro.forensics import (
    fit_lsn_timestamp_model,
    reconstruct_modifications,
    reconstruct_statements,
)
from repro.forensics.binlog_reader import date_modifications


def main() -> None:
    rng = random.Random(0)
    clock = SimClock()
    server = MySQLServer(clock=clock)
    session = server.connect("payroll-app")

    print("== victim workload: a payroll table, edited over several hours ==")
    server.execute(
        session,
        "CREATE TABLE salaries (id INT PRIMARY KEY, employee TEXT, cents INT)",
    )
    for i in range(1, 31):
        server.execute(
            session,
            f"INSERT INTO salaries (id, employee, cents) "
            f"VALUES ({i}, 'emp{i}', {rng.randint(40, 200) * 1000})",
        )
        clock.advance(300)  # one write every 5 minutes
    server.execute(session, "UPDATE salaries SET cents = 999000 WHERE id = 7")
    clock.advance(300)
    server.execute(session, "DELETE FROM salaries WHERE id = 13")
    clock.advance(300)
    # The administrator prunes the binlog's early history...
    cutoff = server.engine.binlog.events[20].timestamp
    dropped = server.engine.binlog.purge_before(cutoff)
    print(f"(admin purged {dropped} early binlog events)")

    print("\n== the attacker steals the disk ==")
    snapshot = capture(server, AttackScenario.DISK_THEFT)
    assert snapshot.get("memory_dump") is None  # no volatile state in this scenario

    events = reconstruct_modifications(
        snapshot.get("redo_log_raw"), snapshot.get("undo_log_raw")
    )
    print(f"modifications reconstructed from redo/undo: {len(events)}")

    update = [e for e in events if e.op == "update"][0]
    print(f"salary change recovered: {update.before} -> {update.after}")
    delete = [e for e in events if e.op == "delete"][0]
    print(f"deleted employee recovered: {delete.before}")

    print("\n== dating entries older than the binlog window ==")
    binlog = snapshot.require("binlog_events")
    model = fit_lsn_timestamp_model(binlog)
    dated = date_modifications(model, events)
    oldest = dated[0]
    print(
        f"oldest log entry (key={oldest.key}) estimated at "
        f"t={oldest.estimated_timestamp:,.0f} "
        f"(binlog window starts at t={binlog[0].timestamp:,})"
    )

    print("\n== pseudo-SQL of the stolen history (first 5) ==")
    for statement in reconstruct_statements(events)[:5]:
        print(f"  {statement}")


if __name__ == "__main__":
    main()
