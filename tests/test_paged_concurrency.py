"""Paged storage under the concurrent front end (satellite of ROADMAP 2).

Runs the sharded engine in paged mode with a deliberately tiny frame
budget so eviction happens *during* the concurrent workload, then checks
the pool discipline held (no pins leaked, dirty pages written back — every
committed row is readable back from actual page files) and that the
scheduler front end leaves byte-identical artifacts to a serial run, paged
artifacts included.
"""

from repro.server import ServerConfig

from tests.harness import (
    artifact_fingerprint,
    round_robin_scripts,
    run_frontend,
    run_serial,
)

SETUP = ["CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"]

#: Fat rows (~400 bytes) so a handful of rows fills a 4 KB page and an
#: 8-frame budget per shard forces eviction mid-workload.
PAD = 400


def paged_config(**kw):
    return ServerConfig(
        buffer_pool_capacity=kw.pop("buffer_pool_capacity", 8), **kw
    )


def write_heavy_statements(n=240):
    statements = []
    for i in range(n):
        payload = format(i, "d").rjust(PAD, "x")
        statements.append(f"INSERT INTO t (id, v) VALUES ({i}, '{payload}')")
    for i in range(0, n, 4):
        payload = format(i * 5, "d").rjust(PAD, "u")
        statements.append(f"UPDATE t SET v = '{payload}' WHERE id = {i}")
    for i in range(0, n, 9):
        statements.append(f"DELETE FROM t WHERE id = {i}")
    return statements


def pool_stats(server):
    """Frame-pool stats; the sharded engine merges per-shard pools."""
    return server.engine.buffer_pool.stats


class TestEvictionUnderConcurrency:
    def test_tiny_pool_evicts_but_stays_consistent(self):
        scripts = round_robin_scripts(write_heavy_statements(), 6)
        server = run_serial(scripts, setup=SETUP, config=paged_config(num_shards=4))
        stats = pool_stats(server)
        assert stats["evictions"] > 0, "8-frame budget must force eviction"
        assert stats["pinned"] == 0, "no operation may leak a pin"
        assert stats["writebacks"] > 0

        # Dirty-page write-back correctness: flush everything, then read
        # every surviving row back from the on-disk page files.
        engine = server.engine
        engine.checkpoint()
        survivors = dict(engine.scan("t"))
        engine.buffer_pool.clear()
        assert dict(engine.scan("t")) == survivors

    def test_deep_eviction_via_frontend(self):
        scripts = round_robin_scripts(write_heavy_statements(), 6)
        server, _, completed = run_frontend(
            scripts, setup=SETUP, config=paged_config(num_shards=4)
        )
        stats = pool_stats(server)
        assert stats["evictions"] > 0
        assert stats["pinned"] == 0
        assert len(completed) == sum(len(s) for s in scripts)


class TestSerialFrontendEquivalence:
    def test_artifacts_byte_identical_paged(self):
        scripts = round_robin_scripts(write_heavy_statements(), 6)
        config = paged_config(num_shards=4)
        serial = run_serial(scripts, setup=SETUP, config=config)
        concurrent, _, _ = run_frontend(scripts, setup=SETUP, config=config)
        serial_fp = artifact_fingerprint(serial)
        concurrent_fp = artifact_fingerprint(concurrent)
        assert set(serial_fp) == set(concurrent_fp)
        diffs = [
            name
            for name in serial_fp
            if serial_fp[name] != concurrent_fp[name]
        ]
        assert not diffs, f"artifacts diverged between serial/frontend: {diffs}"
        # The paged-only artifacts must actually be part of the comparison.
        for name in ("tablespace_images", "page_free_list", "checkpoint_lsn"):
            assert name in serial_fp

    def test_artifacts_byte_identical_single_engine_paged(self):
        scripts = round_robin_scripts(write_heavy_statements(80), 3)
        config = paged_config()
        serial_fp = artifact_fingerprint(
            run_serial(scripts, setup=SETUP, config=config)
        )
        concurrent_fp = artifact_fingerprint(
            run_frontend(scripts, setup=SETUP, config=config)[0]
        )
        assert serial_fp == concurrent_fp
