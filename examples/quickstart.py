#!/usr/bin/env python
"""Quickstart: spin up the simulated DBMS, run queries, take a snapshot.

Demonstrates the library's core loop in ~60 lines:

1. start a :class:`repro.MySQLServer` and run ordinary SQL;
2. capture a VM-snapshot-style observation of the system;
3. show that the snapshot contains the *history* of what was asked —
   the paper's thesis that "snapshot attacker" is a myth.

Run: ``python examples/quickstart.py``
"""

from repro import AttackScenario, MySQLServer, ServerConfig, capture
from repro.forensics import reconstruct_modifications, reconstruct_statements


def main() -> None:
    server = MySQLServer(ServerConfig(query_cache_enabled=True))
    session = server.connect("app")

    print("== 1. ordinary database work ==")
    server.execute(
        session,
        "CREATE TABLE patients (id INT PRIMARY KEY, name TEXT, diagnosis TEXT)",
    )
    server.execute(
        session,
        "INSERT INTO patients (id, name, diagnosis) VALUES "
        "(1, 'alice', 'flu'), (2, 'bob', 'fracture'), (3, 'carol', 'flu')",
    )
    result = server.execute(
        session, "SELECT name FROM patients WHERE diagnosis = 'flu'"
    )
    print(f"flu patients: {[row[0] for row in result.rows]}")
    server.execute(session, "UPDATE patients SET diagnosis = 'recovered' WHERE id = 1")
    server.execute(session, "DELETE FROM patients WHERE id = 2")

    print("\n== 2. a single static snapshot (VM image leak) ==")
    snapshot = capture(server, AttackScenario.VM_SNAPSHOT)

    print("\n== 3. what the 'snapshot attacker' actually sees ==")
    # (a) Past queries, verbatim, from the statement history.
    texts = [event.sql_text for event in snapshot.get("statements_history")]
    print(f"statement history holds {len(texts)} past statements, e.g.:")
    print(f"  {texts[2]!r}")

    # (b) The deleted row, reconstructed from the transaction logs.
    events = reconstruct_modifications(
        snapshot.get("redo_log_raw"), snapshot.get("undo_log_raw")
    )
    deleted = [e for e in events if e.op == "delete"][0]
    print(f"deleted row recovered from the undo log: {deleted.before}")

    # (c) Every write statement, with timestamps, from the binlog.
    print(f"binlog retains {len(snapshot.get('binlog_events'))} timestamped writes")

    # (d) Query text in the process heap.
    dump = snapshot.require("memory_dump")
    hits = dump.count_locations("SELECT name FROM patients WHERE diagnosis = 'flu'")
    print(f"the SELECT's full text appears at {hits} heap locations")

    # (e) Full write history as pseudo-SQL.
    print("\nreconstructed write history:")
    for statement in reconstruct_statements(events)[:4]:
        print(f"  {statement}")


if __name__ == "__main__":
    main()
