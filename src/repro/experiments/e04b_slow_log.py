"""E4b — §3: the slow query log leaks read queries to disk.

Paper §3, "Inferring reads": "on many production MySQL systems, the 'slow
query' log records transactions that take an unusually long time."

Protocol: a mixed workload — fast OLTP point lookups and occasional
sensitive analytic scans — runs with a production-style ``long_query_time``.
Disk theft then yields the slow log; the measurement is which side of the
workload it captured: the scans (full statement text) land on disk, the
point lookups do not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from ..server import MySQLServer, ServerConfig
from ..snapshot import AttackScenario, capture


@dataclass(frozen=True)
class SlowLogResult:
    """What the on-disk slow log captured."""

    oltp_queries: int
    analytic_queries: int
    slow_entries_on_disk: int
    analytic_recovered: int
    oltp_leaked: int

    @property
    def analytic_recovery_rate(self) -> float:
        return self.analytic_recovered / max(self.analytic_queries, 1)


def run_slow_log_inference(
    table_rows: int = 3_000,
    oltp_queries: int = 200,
    analytic_queries: int = 12,
    seed: int = 0,
) -> SlowLogResult:
    """Mixed workload; read the slow log from a disk-theft snapshot."""
    rng = random.Random(seed)
    # Threshold between the point-lookup cost (~0.1 ms simulated) and the
    # full-scan cost (rows x 1 us), as a tuned production system would set.
    config = ServerConfig(long_query_time=table_rows * 0.5e-6)
    server = MySQLServer(config)
    session = server.connect("app")
    server.execute(
        session, "CREATE TABLE ledger (id INT PRIMARY KEY, account TEXT, cents INT)"
    )
    for start in range(0, table_rows, 100):
        values = ", ".join(
            f"({i}, 'acct{i % 97}', {i * 3})"
            for i in range(start, min(start + 100, table_rows))
        )
        server.execute(session, f"INSERT INTO ledger (id, account, cents) VALUES {values}")

    analytic_texts: List[str] = []
    issued_oltp = 0
    plan: List[str] = ["oltp"] * oltp_queries + ["scan"] * analytic_queries
    rng.shuffle(plan)
    for kind in plan:
        if kind == "oltp":
            key = rng.randrange(table_rows)
            server.execute(session, f"SELECT cents FROM ledger WHERE id = {key}")
            issued_oltp += 1
        else:
            account = f"acct{rng.randrange(97)}"
            statement = (
                f"SELECT count(*) FROM ledger WHERE account = '{account}'"
            )
            server.execute(session, statement)
            analytic_texts.append(statement)

    snap = capture(server, AttackScenario.DISK_THEFT)
    entries = snap.get("slow_log_entries") or ()
    on_disk = {e.statement for e in entries}
    analytic_recovered = sum(1 for text in analytic_texts if text in on_disk)
    oltp_leaked = sum(
        1 for e in entries if "WHERE id =" in e.statement
    )
    return SlowLogResult(
        oltp_queries=issued_oltp,
        analytic_queries=len(analytic_texts),
        slow_entries_on_disk=len(entries),
        analytic_recovered=analytic_recovered,
        oltp_leaked=oltp_leaked,
    )
