"""WAL throughput: append staging cost and the group-flush boundary.

Two records land in ``BENCH_wal.json``:

* ``wal_append`` — staged row-change throughput (changes/s) with
  per-change latency percentiles: encode an insert's undo and redo bodies
  and ``append_row_change`` them, as ``StorageEngine.insert`` does.
  Appends only frame + stage bytes in memory (nothing reaches the segment
  files until a flush), so this is the upper bound every transaction
  pays per change.
* ``wal_group_flush`` — committed-transaction throughput through a paged
  engine with the durable on-disk WAL (``wal_sync=False``: the group-flush
  write path without the fsync constant, which a shared CI container
  cannot measure stably). Latency percentiles are per commit, i.e. per
  group flush.

The ±20% ``tools/bench_diff.py`` gate keeps both honest across commits.
"""

from __future__ import annotations

import time
from typing import List

from repro.engine import StorageEngine
from repro.wal import LogManager
from repro.wal.records import _encode_body

N_APPENDS = 50_000
N_COMMITS = 1_500
PAYLOAD = b"r" * 64


def test_wal_append_throughput(bench_json, report, tmp_path):
    manager = LogManager(wal_dir=str(tmp_path))
    latencies: List[float] = []
    for i in range(N_APPENDS):
        start = time.perf_counter()
        undo = _encode_body(1, "t", "insert", i, b"")
        redo = _encode_body(1, "t", "insert", i, PAYLOAD)
        manager.append_row_change("t", undo, redo)
        latencies.append(time.perf_counter() - start)
    ops = N_APPENDS / sum(latencies)

    bench_json("wal", "wal_append", ops_per_sec=ops, latencies=latencies)
    report(
        "bench_wal_append",
        [
            f"row changes              {N_APPENDS}",
            f"row changes/s            {ops:,.0f}",
            f"staged frames            {manager.stats['pending_frames']}",
        ],
    )
    manager.close()


def test_wal_group_flush_throughput(bench_json, report, tmp_path):
    engine = StorageEngine(data_dir=str(tmp_path / "db"), wal_sync=False)
    engine.register_table("t")
    latencies: List[float] = []
    for i in range(N_COMMITS):
        txn = engine.begin()
        engine.insert(txn, "t", i, PAYLOAD)
        start = time.perf_counter()
        engine.commit(txn)  # group flush of the txn's staged frames
        latencies.append(time.perf_counter() - start)
    ops = N_COMMITS / sum(latencies)
    flushes = engine.wal.stats["flushes"]
    engine.close()

    bench_json("wal", "wal_group_flush", ops_per_sec=ops, latencies=latencies)
    report(
        "bench_wal_group_flush",
        [
            f"commits                  {N_COMMITS}",
            f"commits/s                {ops:,.0f}",
            f"group flushes            {flushes}",
        ],
    )
