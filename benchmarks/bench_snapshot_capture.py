"""Snapshot capture cost: the registry walk must be as cheap as the monolith.

The registry refactor replaced the seed's hand-written ``capture()`` body
(one big function that knew every artifact) with a generic walk over
registered :class:`~repro.snapshot.registry.ArtifactProvider` entries. The
walk adds indirection — provider filtering, predicate checks, one callable
dispatch per artifact — and this benchmark bounds that indirection: on the
heaviest scenario (FULL_COMPROMISE, every quadrant revealed) the registry
walk must cost no more than 10% over a hand-inlined monolith that performs
the identical artifact reads.

Also reported: full ``capture()`` latency for every attack scenario, and
the per-provider capture cost, so a newly registered surface that is
accidentally expensive shows up in ``benchmarks/results/``.
"""

from __future__ import annotations

import time

from repro.memory import MemoryDump
from repro.server import MySQLServer, ServerConfig
from repro.snapshot import AttackScenario, Snapshot, capture, default_registry

#: Calls per timing sample; captures are micro-scale, so batch them.
_BATCH = 10
#: Samples per measurement; the minimum damps scheduler noise.
_SAMPLES = 15

#: Registry-walk overhead budget versus the hand-inlined monolith.
MAX_REGISTRY_OVERHEAD = 0.10


def _loaded_server() -> MySQLServer:
    """The E1 workload: enough traffic to populate every artifact."""
    server = MySQLServer(ServerConfig(query_cache_enabled=True))
    session = server.connect("app")
    server.execute(
        session, "CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, cents INT)"
    )
    for i in range(1, 21):
        server.execute(
            session,
            f"INSERT INTO accounts (id, owner, cents) VALUES ({i}, 'user{i}', {i * 100})",
        )
    server.execute(session, "SELECT owner FROM accounts WHERE id = 7")
    server.execute(session, "SELECT count(*) FROM accounts WHERE cents >= 500")
    server.dump_buffer_pool()
    return server


def _direct_full_capture(server: MySQLServer) -> Snapshot:
    """The seed's FULL_COMPROMISE capture body, hand-inlined.

    This reproduces what ``capture()`` did before the registry existed:
    every artifact read spelled out, no provider table, no predicate
    dispatch. It is the baseline the registry walk is measured against.
    """
    now = server.clock.timestamp()
    artifacts: dict = {
        "redo_log_raw": server.engine.redo_log.raw_bytes(),
        "undo_log_raw": server.engine.undo_log.raw_bytes(),
        "binlog_events": tuple(server.engine.binlog.events),
        "binlog_text": server.engine.binlog.to_text(),
        "general_log_entries": tuple(server.general_log.entries),
        "slow_log_entries": tuple(server.slow_log.entries),
        "buffer_pool_dump": server.last_buffer_pool_dump,
        "tablespace_images": {
            name: server.engine.tablespace(name).to_bytes()
            for name in server.engine.table_names
        },
        "statements_current": tuple(server.perf_schema.events_statements_current()),
        "statements_history": tuple(server.perf_schema.events_statements_history()),
        "digest_summaries": tuple(
            server.perf_schema.events_statements_summary_by_digest()
        ),
        "processlist": tuple(server.info_schema.processlist(now)),
        "memory_dump": MemoryDump(server.heap.snapshot()),
        "query_cache_statements": tuple(server.query_cache.statements),
        "adaptive_hash_hot_keys": tuple(server.adaptive_hash.hot_keys()),
        "live_buffer_pool": server.engine.buffer_pool.dump(),
        "page_free_list": server.engine.free_list_info(),
        "checkpoint_lsn": server.engine.checkpoint_lsns(),
        "wal_segments": server.engine.wal_segments(),
        "dirty_page_table": server.engine.dirty_page_table(),
        "mvcc_version_chains": server.engine.mvcc_chain_stats(),
    }
    if server.obs is not None:
        artifacts["obs_metrics"] = server.obs.metrics_dump()
        artifacts["obs_trace_raw"] = server.obs.trace_raw()
    return Snapshot(
        scenario=AttackScenario.FULL_COMPROMISE,
        captured_at=now,
        artifacts={k: v for k, v in artifacts.items() if v is not None},
    )


def _batch_times(fn) -> list:
    """Per-call seconds for ``_SAMPLES`` batches of ``_BATCH`` calls each."""
    fn()  # warm-up, untimed
    samples = []
    for _ in range(_SAMPLES):
        start = time.perf_counter()
        for _ in range(_BATCH):
            fn()
        samples.append((time.perf_counter() - start) / _BATCH)
    return samples


def _best_batch_time(fn) -> float:
    """Seconds per call, best of ``_SAMPLES`` batches of ``_BATCH`` calls."""
    return min(_batch_times(fn))


def test_registry_capture_overhead(report, bench_json):
    server = _loaded_server()

    # The two paths must haul the identical artifact set before the
    # timing comparison means anything.
    registry_snap = capture(server, AttackScenario.FULL_COMPROMISE)
    direct_snap = _direct_full_capture(server)
    assert set(registry_snap.artifacts) == set(direct_snap.artifacts)

    direct_samples = _batch_times(lambda: _direct_full_capture(server))
    registry_samples = _batch_times(
        lambda: capture(server, AttackScenario.FULL_COMPROMISE)
    )
    direct = min(direct_samples)
    registry = min(registry_samples)
    overhead = registry / direct - 1.0

    bench_json(
        "snapshot", "full_compromise_direct_monolith",
        ops_per_sec=1.0 / direct, latencies=direct_samples,
    )
    bench_json(
        "snapshot", "full_compromise_registry_walk",
        ops_per_sec=1.0 / registry, latencies=registry_samples,
    )

    scenario_lines = []
    for scenario in AttackScenario:
        seconds = _best_batch_time(lambda s=scenario: capture(server, s, escalated=True))
        count = len(capture(server, scenario, escalated=True).artifacts)
        scenario_lines.append(
            f"{scenario.value:20s} {seconds * 1e3:>9.3f} ms  {count:>2d} artifacts"
        )

    provider_costs = []
    for provider in default_registry().providers(backend="mysql"):
        if provider.enabled is not None and not provider.enabled(server):
            continue
        seconds = _best_batch_time(lambda p=provider: p.capture(server))
        provider_costs.append((seconds, provider.name))
    provider_lines = [
        f"{name:28s} {seconds * 1e6:>9.1f} us"
        for seconds, name in sorted(provider_costs, reverse=True)
    ]

    report(
        "snapshot_capture",
        [
            "snapshot capture cost (best of "
            f"{_SAMPLES} x {_BATCH}-call batches, E1 workload)",
            "",
            "full_compromise: registry walk vs hand-inlined monolith",
            f"{'direct (seed monolith)':28s} {direct * 1e3:>9.3f} ms",
            f"{'registry walk':28s} {registry * 1e3:>9.3f} ms  "
            f"({overhead:+.1%} vs direct)",
            f"budget: registry overhead < {MAX_REGISTRY_OVERHEAD:.0%}",
            "",
            "capture() latency per scenario (escalated):",
            *scenario_lines,
            "",
            "per-provider capture cost (descending):",
            *provider_lines,
        ],
    )

    assert overhead < MAX_REGISTRY_OVERHEAD, (
        f"registry walk overhead {overhead:+.1%} exceeds "
        f"{MAX_REGISTRY_OVERHEAD:.0%} budget over the hand-inlined monolith"
    )
