import os

from repro.engine import StorageEngine
from repro.server import MySQLServer, ServerConfig
from repro.snapshot import AttackScenario, capture
from repro.storage.paged import PAGED_PAGE_SIZE


def paged_engine(**kwargs):
    return StorageEngine(**kwargs)


class TestEngineModes:
    def test_paged_mode_creates_tempdir(self):
        engine = paged_engine()
        data_dir = engine.data_dir
        engine.register_table("t")
        assert os.path.exists(os.path.join(data_dir, "t.ibd"))
        engine.close()
        assert not os.path.exists(data_dir)


class TestPagedTransactions:
    def test_insert_commit_read(self):
        engine = paged_engine()
        engine.register_table("t")
        txn = engine.begin()
        engine.insert(txn, "t", 1, b"hello")
        engine.commit(txn)
        value, _ = engine.get("t", 1)
        assert value == b"hello"
        engine.close()

    def test_rollback_restores_tree(self):
        engine = paged_engine()
        engine.register_table("t")
        txn = engine.begin()
        engine.insert(txn, "t", 1, b"keep")
        engine.commit(txn)

        txn = engine.begin()
        engine.insert(txn, "t", 2, b"drop")
        engine.update(txn, "t", 1, b"mutated")
        engine.rollback(txn)

        assert engine.get("t", 1)[0] == b"keep"
        assert engine.get("t", 2)[0] is None
        engine.close()

    def test_range_and_scan(self):
        engine = paged_engine()
        engine.register_table("t")
        txn = engine.begin()
        for k in range(50):
            engine.insert(txn, "t", k, f"row-{k}".encode())
        engine.commit(txn)
        entries, _ = engine.range("t", 10, 14)
        assert [k for k, _ in entries] == [10, 11, 12, 13, 14]
        assert len(engine.scan("t")) == 50
        engine.close()


class TestPagedMaintenance:
    def test_tablespace_images_are_page_aligned(self):
        engine = paged_engine()
        engine.register_table("t")
        txn = engine.begin()
        for k in range(20):
            engine.insert(txn, "t", k, b"x" * 100)
        engine.commit(txn)
        images = engine.tablespace_images()
        assert set(images) == {"t"}
        assert len(images["t"]) % PAGED_PAGE_SIZE == 0
        engine.close()

    def test_checkpoint_persists_lsn(self):
        engine = paged_engine()
        engine.register_table("t")
        txn = engine.begin()
        engine.insert(txn, "t", 1, b"v")
        engine.commit(txn)
        lsn = engine.checkpoint()
        assert lsn > 0
        assert engine.checkpoint_lsns() == {"t": lsn}
        engine.close()

    def test_free_list_grows_on_delete_churn(self):
        engine = paged_engine()
        engine.register_table("t")
        txn = engine.begin()
        for k in range(200):
            engine.insert(txn, "t", k, b"x" * 200)
        engine.commit(txn)
        txn = engine.begin()
        for k in range(150):
            engine.delete(txn, "t", k)
        engine.commit(txn)
        info = engine.free_list_info()
        assert info["t"], "emptied leaves should populate the free list"
        engine.close()

    def test_deleted_rows_leave_residue_after_checkpoint(self):
        engine = paged_engine()
        engine.register_table("t")
        txn = engine.begin()
        for k in range(100):
            engine.insert(txn, "t", k, f"SECRET-{k:03d}".encode() * 10)
        engine.commit(txn)
        engine.checkpoint()
        txn = engine.begin()
        for k in range(100):
            engine.delete(txn, "t", k)
        engine.commit(txn)
        blob = engine.tablespace_images()["t"]
        assert b"SECRET-007" in blob, "freed pages must keep pre-delete bytes"
        engine.close()

    def test_bulk_load_and_secondary(self):
        engine = paged_engine()
        engine.register_table("t")
        n = 2000
        assert engine.bulk_load(
            "t", ((k, b"p" * (50 + k % 10)) for k in range(n))
        ) == n
        assert engine.get("t", n - 1)[0] == b"p" * 59
        engine.register_secondary_index("t", "by_len", len)
        pks, _ = engine.secondary_lookup("t", "by_len", 53)
        assert pks == list(range(3, n, 10))
        engine.close()

    def test_dump_comes_from_resident_frames(self):
        engine = paged_engine(buffer_pool_capacity=8)
        engine.register_table("t")
        txn = engine.begin()
        for k in range(300):
            engine.insert(txn, "t", k, b"z" * 200)
        engine.commit(txn)
        dump = engine.buffer_pool.dump()
        assert 0 < len(dump.entries) <= 8
        assert engine.buffer_pool.stats["evictions"] > 0
        engine.close()


class TestServerPaged:
    def config(self, **kw):
        return ServerConfig(**kw)

    def test_sql_roundtrip(self):
        server = MySQLServer(self.config())
        session = server.connect("app")
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        server.execute(session, "INSERT INTO t (id, v) VALUES (1, 10), (2, 20)")
        result = server.execute(session, "SELECT v FROM t WHERE id = 2")
        assert list(result.rows) == [(20,)]
        server.execute(session, "DELETE FROM t WHERE id = 1")
        result = server.execute(session, "SELECT id, v FROM t")
        assert list(result.rows) == [(2, 20)]
        server.close()

    def test_paged_artifacts_registered_in_snapshot(self):
        server = MySQLServer(self.config())
        session = server.connect("app")
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        server.execute(session, "INSERT INTO t (id, v) VALUES (1, 10)")
        snap = capture(server, AttackScenario.FULL_COMPROMISE, escalated=True)
        assert "tablespace_images" in snap.artifacts
        assert "page_free_list" in snap.artifacts
        assert "checkpoint_lsn" in snap.artifacts
        blob = snap.artifacts["tablespace_images"]["t"]
        assert len(blob) % PAGED_PAGE_SIZE == 0
        server.close()

    def test_secondary_index_through_server(self):
        server = MySQLServer(self.config())
        session = server.connect("app")
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        server.execute(
            session, "INSERT INTO t (id, v) VALUES (1, 5), (2, 5), (3, 6)"
        )
        name = server.create_secondary_index("t", "v")
        assert name == "idx_t_v"
        assert server.secondary_lookup("t", "v", 5) == [1, 2]
        assert server.secondary_lookup("t", "v", 6) == [3]
        server.close()

    def test_explicit_data_dir(self, tmp_path):
        data_dir = str(tmp_path / "pages")
        server = MySQLServer(self.config(data_dir=data_dir))
        session = server.connect("app")
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        server.execute(session, "INSERT INTO t (id, v) VALUES (1, 10)")
        server.close()
        assert os.path.exists(os.path.join(data_dir, "t.ibd"))

    def test_clock_policy_through_config(self):
        server = MySQLServer(
            self.config(buffer_pool_policy="clock", buffer_pool_capacity=8)
        )
        session = server.connect("app")
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for start in range(0, 500, 100):
            values = ", ".join(f"({i}, {i})" for i in range(start, start + 100))
            server.execute(session, f"INSERT INTO t (id, v) VALUES {values}")
        assert server.engine.buffer_pool.stats["resident"] <= 8
        server.close()
