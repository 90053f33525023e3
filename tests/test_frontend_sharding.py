"""Connection front end (scheduler) and hash-sharded engine unit tests."""

import pytest

from repro.errors import EngineError, SchedulerError
from repro.server import MySQLServer, ServerConfig
from repro.server.frontend import (
    SchedulingPolicy,
    ServerFrontend,
    SessionScheduler,
)
from repro.server.sharding import (
    SPACE_ID_STRIDE,
    ShardRouter,
    ShardedEngine,
    qualify,
)
from repro.snapshot import AttackScenario, capture


class TestSessionScheduler:
    def test_fifo_is_global_arrival_order(self):
        sched = SessionScheduler(policy=SchedulingPolicy.FIFO)
        for sid, sql in [(1, "a"), (2, "b"), (1, "c"), (3, "d")]:
            sched.submit(sid, sql, arrival_ts=0)
        order = []
        while True:
            req = sched.next_request()
            if req is None:
                break
            order.append(req.sql)
        assert order == ["a", "b", "c", "d"]

    def test_fair_round_robins_sessions(self):
        sched = SessionScheduler(policy=SchedulingPolicy.FAIR)
        for sql in ("a1", "a2", "a3"):
            sched.submit(1, sql, arrival_ts=0)
        for sql in ("b1", "b2"):
            sched.submit(2, sql, arrival_ts=0)
        order = []
        while True:
            req = sched.next_request()
            if req is None:
                break
            order.append(req.sql)
        assert order == ["a1", "b1", "a2", "b2", "a3"]

    def test_random_policy_is_seed_deterministic(self):
        def drain(seed):
            sched = SessionScheduler(policy=SchedulingPolicy.RANDOM, seed=seed)
            for sid in (1, 2, 3):
                for i in range(4):
                    sched.submit(sid, f"s{sid}-{i}", arrival_ts=0)
            order = []
            while True:
                req = sched.next_request()
                if req is None:
                    break
                order.append(req.sql)
            return order

        assert drain(7) == drain(7)
        assert any(drain(a) != drain(b) for a, b in [(1, 2), (2, 3), (1, 3)])

    def test_per_session_order_always_preserved(self):
        for policy in SchedulingPolicy:
            sched = SessionScheduler(policy=policy, seed=3)
            for sid in (1, 2):
                for i in range(5):
                    sched.submit(sid, f"{sid}:{i}", arrival_ts=0)
            seen = {1: [], 2: []}
            while True:
                req = sched.next_request()
                if req is None:
                    break
                seen[req.session_id].append(req.sql)
            for sid in (1, 2):
                assert seen[sid] == [f"{sid}:{i}" for i in range(5)]

    def test_bounded_queue_rejects_loudly(self):
        sched = SessionScheduler(capacity=2)
        sched.submit(1, "a", arrival_ts=0)
        sched.submit(1, "b", arrival_ts=0)
        with pytest.raises(SchedulerError):
            sched.submit(2, "c", arrival_ts=0)
        assert sched.telemetry.rejected == 1
        # Dispatch frees a slot.
        assert sched.next_request() is not None
        sched.submit(2, "c", arrival_ts=1)

    def test_depth_telemetry_tracks_admissions_and_dispatches(self):
        sched = SessionScheduler()
        sched.submit(1, "a", arrival_ts=5)
        sched.submit(1, "b", arrival_ts=6)
        sched.next_request()
        assert sched.telemetry.depth_samples == [1, 2, 1]
        assert sched.telemetry.arrivals == [(0, 1, 5), (1, 1, 6)]


class TestServerFrontend:
    def make(self, **kwargs):
        server = MySQLServer()
        frontend = ServerFrontend(server, **kwargs)
        return server, frontend

    def test_admits_thousands_of_sessions(self):
        _, frontend = self.make(max_sessions=5000)
        sessions = [frontend.open_session(f"u{i}") for i in range(2048)]
        assert frontend.num_sessions == 2048
        for session in sessions:
            frontend.close_session(session)
        assert frontend.num_sessions == 0

    def test_session_cap_rejects_loudly(self):
        _, frontend = self.make(max_sessions=2)
        frontend.open_session("a")
        frontend.open_session("b")
        with pytest.raises(SchedulerError):
            frontend.open_session("c")

    def test_statement_errors_are_captured_not_raised(self):
        _, frontend = self.make()
        session = frontend.open_session()
        frontend.submit(session, "SELECT id FROM missing_table")
        (done,) = frontend.drain()
        assert done.result is None
        assert done.error is not None
        assert "missing_table" in done.error

    def test_drain_reports_dispatch_count(self):
        server, frontend = self.make()
        session = frontend.open_session()
        frontend.submit(
            session, "CREATE TABLE t (id INT PRIMARY KEY, v INT)"
        )
        for i in range(9):
            frontend.submit(
                session, f"INSERT INTO t (id, v) VALUES ({i}, {i})"
            )
        completed = frontend.drain()
        assert len(completed) == 10
        assert [c.request.seq for c in completed] == list(range(10))
        assert all(c.error is None for c in completed)
        assert completed[-1].result.rows_affected == 1
        result = server.execute(
            server.connect("check"), "SELECT COUNT(*) FROM t"
        )
        assert result.rows == ((9,),)

    def test_attaches_scheduler_queue_artifact(self):
        server, frontend = self.make()
        assert server.frontend is frontend
        telemetry = frontend.queue_telemetry()
        assert set(telemetry) == {
            "arrivals", "depth_samples", "dispatched", "rejected",
        }


class TestShardRouter:
    def test_routing_is_stable_and_in_range(self):
        router = ShardRouter(8)
        first = [router.shard_of(k) for k in range(256)]
        second = [router.shard_of(k) for k in range(256)]
        assert first == second
        assert all(0 <= s < 8 for s in first)

    def test_negative_keys_route(self):
        router = ShardRouter(4)
        assert 0 <= router.shard_of(-12345) < 4

    def test_distribution_is_not_degenerate(self):
        router = ShardRouter(8)
        used = {router.shard_of(k) for k in range(1024)}
        assert used == set(range(8))


class TestShardedEngine:
    def make(self, num_shards=4):
        engine = ShardedEngine(num_shards=num_shards, binlog_enabled=True)
        engine.register_table("t")
        return engine

    def test_requires_at_least_two_shards(self):
        with pytest.raises(EngineError):
            ShardedEngine(num_shards=1)

    def test_per_shard_space_id_ranges_are_disjoint(self):
        engine = self.make()
        for i, shard in enumerate(engine.shards):
            space_id = shard.tablespace("t").space_id
            assert i * SPACE_ID_STRIDE < space_id <= (i + 1) * SPACE_ID_STRIDE

    def test_rows_land_on_their_routed_shard_only(self):
        engine = self.make()
        txn = engine.begin()
        for key in range(32):
            engine.insert(txn, "t", key, b"v%d" % key)
        engine.commit(txn)
        for key in range(32):
            home = engine.shard_of(key)
            for i, shard in enumerate(engine.shards):
                value, _ = shard.get("t", key)
                assert (value is not None) == (i == home)

    def test_reads_merge_sorted_across_shards(self):
        engine = self.make()
        txn = engine.begin()
        for key in (9, 3, 27, 14, 1):
            engine.insert(txn, "t", key, b"x")
        engine.commit(txn)
        entries, path = engine.full_scan("t")
        assert [k for k, _ in entries] == [1, 3, 9, 14, 27]
        assert path.page_ids  # combined access path is populated

    def test_range_respects_bounds(self):
        engine = self.make()
        txn = engine.begin()
        for key in range(20):
            engine.insert(txn, "t", key, b"x")
        engine.commit(txn)
        entries, _ = engine.range("t", 5, 11)
        assert [k for k, _ in entries] == list(range(5, 12))

    def test_cross_shard_commit_is_atomic_per_branch(self):
        engine = self.make()
        txn = engine.begin()
        keys = list(range(16))
        for key in keys:
            engine.insert(txn, "t", key, b"v")
        touched = {engine.shard_of(k) for k in keys}
        assert len(touched) > 1
        engine.commit(txn)
        entries, _ = engine.full_scan("t")
        assert len(entries) == 16

    def test_cross_shard_rollback_undoes_every_branch(self):
        engine = self.make()
        txn = engine.begin()
        for key in range(16):
            engine.insert(txn, "t", key, b"v")
        engine.rollback(txn)
        entries, _ = engine.full_scan("t")
        assert entries == []

    def test_ddl_reaches_every_shard_binlog(self):
        engine = self.make()
        engine.log_ddl(0, "CREATE TABLE t (id INT PRIMARY KEY)")
        for shard in engine.shards:
            text = shard.binlog.to_text()
            assert "CREATE TABLE" in text

    def test_per_shard_binlogs_leak_key_distribution(self):
        # The leakage the sharding layer adds: per-shard event counts
        # reveal how the (encrypted) keys hash across shards.
        engine = self.make()
        for key in range(64):  # autocommit: one txn (one binlog event) per key
            txn = engine.begin()
            engine.insert(txn, "t", key, b"v")
            engine.commit(txn)
        counts = [shard.binlog.num_events for shard in engine.shards]
        expected = [
            sum(1 for k in range(64) if engine.shard_of(k) == i)
            for i in range(4)
        ]
        assert counts == expected
        assert sum(counts) == 64

    def test_shard_stats_expose_per_shard_log_sizes(self):
        engine = self.make()
        txn = engine.begin()
        for key in range(64):
            engine.insert(txn, "t", key, b"payload")
        engine.commit(txn)
        stats = engine.shard_stats()
        assert [s.shard for s in stats] == [0, 1, 2, 3]
        assert all(s.redo_bytes > 0 for s in stats)
        assert sum(s.rows for s in stats) == 64

    def test_tablespace_images_are_shard_qualified(self):
        engine = self.make()
        txn = engine.begin()
        engine.insert(txn, "t", 1, b"v")
        engine.commit(txn)
        images = qualify([shard.tablespace_images() for shard in engine.shards])
        assert set(images) == {f"t@shard{i}" for i in range(4)}
        for i, shard in enumerate(engine.shards):
            assert images[f"t@shard{i}"] == shard.tablespace("t").to_bytes()

    def test_tablespace_lookup_requires_shard_index(self):
        engine = self.make()
        with pytest.raises(EngineError):
            engine.tablespace("t")
        assert engine.tablespace("t", shard=0) is not None


class TestMergedSurfaces:
    def test_one_engine_keeps_binlog_append_order(self):
        # Two commits at one timestamp, the later-begun transaction first:
        # a (timestamp, txn) sort would swap them.
        server = MySQLServer()
        engine = server.engine
        engine.register_table("t")
        first, second = engine.begin(), engine.begin()
        engine.insert(first, "t", 1, b"a")
        engine.insert(second, "t", 2, b"b")
        engine.commit(second)
        engine.commit(first)
        snap = capture(server, AttackScenario.DISK_THEFT)
        events = snap.require("binlog_events")
        assert [e.txn_id for e in events] == [second.txn_id, first.txn_id]
        assert snap.require("binlog_text") == engine.binlog.to_text()

    def test_sharded_binlog_merges_by_timestamp_txn_shard(self):
        server = MySQLServer(ServerConfig(num_shards=4))
        session = server.connect("app")
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY)")
        for key in range(16):
            server.execute(session, f"INSERT INTO t (id) VALUES ({key})")
        snap = capture(server, AttackScenario.DISK_THEFT)
        shards = server.engine.shards
        events = snap.require("binlog_events")
        assert len(events) == sum(shard.binlog.num_events for shard in shards)
        order = [(e.timestamp, e.txn_id) for e in events]
        assert order == sorted(order)
        text = snap.require("binlog_text")
        for i, shard in enumerate(shards):
            assert f"# shard {i}\n{shard.binlog.to_text()}" in text

    def test_sharded_pool_and_chains_join_every_shard(self):
        server = MySQLServer(ServerConfig(num_shards=4))
        session = server.connect("app")
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for key in range(16):
            server.execute(session, f"INSERT INTO t (id, v) VALUES ({key}, 0)")
        server.execute(session, "BEGIN")
        for key in (9, 2, 14, 5):
            server.execute(session, f"UPDATE t SET v = 1 WHERE id = {key}")
        snap = capture(server, AttackScenario.VM_SNAPSHOT, escalated=True)
        shards = server.engine.shards
        chains = snap.require("mvcc_version_chains")
        assert [(stat.table, stat.key) for stat in chains] == [
            ("t", 2), ("t", 5), ("t", 9), ("t", 14)
        ]
        assert sorted(chains, key=lambda stat: stat.key) == sorted(
            (stat for shard in shards for stat in shard.mvcc_chain_stats()),
            key=lambda stat: stat.key,
        )
        pool = snap.require("live_buffer_pool")
        assert pool.entries == tuple(
            ref for shard in shards for ref in shard.buffer_pool.dump().entries
        )
        server.execute(session, "COMMIT")


class TestShardedServerIntegration:
    def test_server_with_shards_runs_sql(self):
        server = MySQLServer(ServerConfig(num_shards=4))
        session = server.connect("app")
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(24):
            server.execute(
                session, f"INSERT INTO t (id, v) VALUES ({i}, {i * 10})"
            )
        result = server.execute(
            session, "SELECT v FROM t WHERE id = 13"
        )
        assert result.rows == ((130,),)
        result = server.execute(session, "SELECT COUNT(*) FROM t")
        assert result.rows == ((24,),)

    def test_sharded_restart_persists_disk_state(self):
        server = MySQLServer(ServerConfig(num_shards=2))
        session = server.connect("app")
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        server.execute(session, "INSERT INTO t (id, v) VALUES (1, 7)")
        server.restart()
        session = server.connect("app")
        result = server.execute(session, "SELECT v FROM t WHERE id = 1")
        assert result.rows == ((7,),)
