"""Paged storage at 1M rows: O(log n) lookups vs an O(n) scan.

The gate: the paged B+-tree behind the frame pool must make point lookups
at least ``MIN_SPEEDUP``× faster than a linear scan for the key through
the same engine (``engine.scan`` walks the whole leaf chain).

Four records land in ``BENCH_storage.json``:

* ``paged_bulk_load_1m`` — sorted bottom-up load throughput (rows/s).
* ``paged_point_lookup_1m`` — random ``engine.get`` through the clustered
  index at 1M rows, with per-op latency percentiles.
* ``paged_range_scan_100`` — 100-row range scans through the pool.
* ``seed_scan_lookup_1m`` — the baseline: point lookup implemented as a
  linear scan over the same 1M-row paged table.

The ±20% ``tools/bench_diff.py`` gate keeps these honest across commits.
"""

from __future__ import annotations

import random
import time
from typing import List

from repro.engine import StorageEngine

N_ROWS = 1_000_000
N_POINT_LOOKUPS = 2_000
N_RANGE_SCANS = 200
RANGE_SPAN = 100
N_SCAN_LOOKUPS = 3
PAYLOAD = b"r" * 40
MIN_SPEEDUP = 10.0


def _build_paged() -> StorageEngine:
    engine = StorageEngine(mvcc=False)
    engine.register_table("t")
    return engine


def _scan_lookup(engine: StorageEngine, key: int) -> bytes:
    """Point lookup without the index: walk the leaf chain until the key."""
    for candidate, value in engine.scan("t"):
        if candidate == key:
            return value
    raise AssertionError(f"key {key} not found by scan")


def test_storage_paged_1m(bench_json, report):
    rng = random.Random(17)

    paged = _build_paged()
    start = time.perf_counter()
    loaded = paged.bulk_load("t", ((k, PAYLOAD) for k in range(N_ROWS)))
    load_elapsed = time.perf_counter() - start
    assert loaded == N_ROWS

    point_latencies: List[float] = []
    for _ in range(N_POINT_LOOKUPS):
        key = rng.randrange(N_ROWS)
        start = time.perf_counter()
        value, _ = paged.get("t", key)
        point_latencies.append(time.perf_counter() - start)
        assert value == PAYLOAD
    point_ops = N_POINT_LOOKUPS / sum(point_latencies)

    range_latencies: List[float] = []
    for _ in range(N_RANGE_SCANS):
        low = rng.randrange(N_ROWS - RANGE_SPAN)
        start = time.perf_counter()
        entries, _ = paged.range("t", low, low + RANGE_SPAN - 1)
        range_latencies.append(time.perf_counter() - start)
        assert len(entries) == RANGE_SPAN
    range_ops = N_RANGE_SCANS / sum(range_latencies)

    scan_latencies: List[float] = []
    for _ in range(N_SCAN_LOOKUPS):
        key = rng.randrange(N_ROWS)
        start = time.perf_counter()
        value = _scan_lookup(paged, key)
        scan_latencies.append(time.perf_counter() - start)
        assert value == PAYLOAD
    scan_ops = N_SCAN_LOOKUPS / sum(scan_latencies)
    paged.close()

    speedup = point_ops / scan_ops
    assert speedup >= MIN_SPEEDUP, (
        f"paged point lookup only {speedup:.1f}x a linear scan "
        f"({point_ops:.0f} vs {scan_ops:.2f} ops/s); gate is {MIN_SPEEDUP}x"
    )

    bench_json(
        "storage",
        "paged_bulk_load_1m",
        ops_per_sec=N_ROWS / load_elapsed,
    )
    bench_json(
        "storage",
        "paged_point_lookup_1m",
        ops_per_sec=point_ops,
        latencies=point_latencies,
    )
    bench_json(
        "storage",
        "paged_range_scan_100",
        ops_per_sec=range_ops,
        latencies=range_latencies,
    )
    bench_json(
        "storage",
        "seed_scan_lookup_1m",
        ops_per_sec=scan_ops,
        latencies=scan_latencies,
    )
    report(
        "storage_paged_1m",
        [
            f"rows loaded               {N_ROWS} in {load_elapsed:.1f}s "
            f"({N_ROWS / load_elapsed:,.0f} rows/s)",
            f"paged point lookup        {point_ops:,.0f} ops/s",
            f"paged 100-row range scan  {range_ops:,.0f} ops/s",
            f"linear-scan lookup        {scan_ops:.2f} ops/s",
            f"speedup (gate >= {MIN_SPEEDUP:.0f}x)    {speedup:,.0f}x",
        ],
    )
