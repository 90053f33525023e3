"""Integration tests for the MySQL-like server facade."""

import pytest

from repro.errors import (
    CatalogError,
    DuplicateKeyError,
    ParseError,
    ServerError,
    SessionError,
    StorageError,
)
from repro.server import MySQLServer, ServerConfig


@pytest.fixture
def server():
    return MySQLServer()


@pytest.fixture
def session(server):
    return server.connect("app")


def seed_customers(server, session, n=20):
    server.execute(
        session,
        "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT, state TEXT, age INT)",
    )
    values = ", ".join(
        f"({i}, 'name{i}', '{'IN' if i % 2 else 'AZ'}', {20 + i})" for i in range(1, n + 1)
    )
    server.execute(
        session,
        f"INSERT INTO customers (id, name, state, age) VALUES {values}",
    )


class TestDdlAndDml:
    def test_create_insert_select(self, server, session):
        seed_customers(server, session)
        result = server.execute(session, "SELECT name FROM customers WHERE id = 3")
        assert result.rows == (("name3",),)

    def test_duplicate_table_rejected(self, server, session):
        seed_customers(server, session)
        with pytest.raises(CatalogError):
            server.execute(session, "CREATE TABLE customers (id INT PRIMARY KEY)")

    def test_duplicate_pk_rejected_and_rolled_back(self, server, session):
        seed_customers(server, session, n=5)
        with pytest.raises(DuplicateKeyError):
            server.execute(
                session,
                "INSERT INTO customers (id, name, state, age) "
                "VALUES (100, 'new', 'CA', 30), (3, 'dup', 'CA', 30)",
            )
        # The whole statement rolled back: row 100 must not exist.
        result = server.execute(session, "SELECT * FROM customers WHERE id = 100")
        assert result.rows == ()

    def test_oversized_row_is_not_a_duplicate_key(self, server, session):
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        with pytest.raises(StorageError) as caught:
            server.execute(
                session, f"INSERT INTO t (id, v) VALUES (1, '{'z' * 5000}')"
            )
        assert not isinstance(caught.value, DuplicateKeyError)
        assert "cannot fit" in str(caught.value)
        server.execute(session, "INSERT INTO t (id, v) VALUES (1, 'small')")
        with pytest.raises(DuplicateKeyError, match="duplicate primary key 1"):
            server.execute(session, "INSERT INTO t (id, v) VALUES (1, 'again')")

    def test_insert_wrong_type_rejected(self, server, session):
        seed_customers(server, session, n=1)
        with pytest.raises(CatalogError):
            server.execute(
                session,
                "INSERT INTO customers (id, name, state, age) "
                "VALUES (50, 'x', 'CA', 'notanint')",
            )

    def test_update(self, server, session):
        seed_customers(server, session, n=5)
        result = server.execute(
            session, "UPDATE customers SET state = 'TX' WHERE id = 2"
        )
        assert result.rows_affected == 1
        check = server.execute(session, "SELECT state FROM customers WHERE id = 2")
        assert check.rows == (("TX",),)

    def test_update_pk_rejected(self, server, session):
        seed_customers(server, session, n=2)
        with pytest.raises(CatalogError):
            server.execute(session, "UPDATE customers SET id = 99 WHERE id = 1")

    def test_delete(self, server, session):
        seed_customers(server, session, n=5)
        result = server.execute(session, "DELETE FROM customers WHERE age >= 24")
        assert result.rows_affected == 2
        remaining = server.execute(session, "SELECT count(*) FROM customers")
        assert remaining.rows == ((3,),)

    def test_unknown_table(self, server, session):
        with pytest.raises(CatalogError):
            server.execute(session, "SELECT * FROM nope")

    def test_unknown_column(self, server, session):
        seed_customers(server, session, n=1)
        with pytest.raises(CatalogError):
            server.execute(session, "SELECT qjxzzq FROM customers")

    def test_parse_error_surfaces(self, server, session):
        with pytest.raises(ParseError):
            server.execute(session, "SELEKT * FROM t")

    def test_hidden_rowid_table(self, server, session):
        server.execute(session, "CREATE TABLE nopk (a TEXT, b INT)")
        server.execute(session, "INSERT INTO nopk (a, b) VALUES ('x', 1), ('y', 2)")
        result = server.execute(session, "SELECT a FROM nopk WHERE b = 2")
        assert result.rows == (("y",),)


class TestSelectFeatures:
    def test_order_by_and_limit(self, server, session):
        seed_customers(server, session, n=10)
        result = server.execute(
            session, "SELECT id FROM customers ORDER BY age LIMIT 3"
        )
        assert [r[0] for r in result.rows] == [1, 2, 3]

    def test_between(self, server, session):
        seed_customers(server, session, n=10)
        result = server.execute(
            session, "SELECT id FROM customers WHERE id BETWEEN 4 AND 6"
        )
        assert [r[0] for r in result.rows] == [4, 5, 6]

    def test_pk_range_examines_fewer_rows(self, server, session):
        seed_customers(server, session, n=20)
        ranged = server.execute(
            session, "SELECT id FROM customers WHERE id BETWEEN 1 AND 3"
        )
        scanned = server.execute(
            session, "SELECT id FROM customers WHERE age >= 0"
        )
        assert ranged.rows_examined < scanned.rows_examined

    def test_count_star(self, server, session):
        seed_customers(server, session, n=7)
        result = server.execute(session, "SELECT count(*) FROM customers")
        assert result.rows == ((7,),)

    def test_match_keyword(self, server, session):
        server.execute(session, "CREATE TABLE docs (id INT PRIMARY KEY, body TEXT)")
        server.execute(
            session,
            "INSERT INTO docs (id, body) VALUES (1, 'alpha beta'), (2, 'gamma')",
        )
        result = server.execute(
            session, "SELECT id FROM docs WHERE MATCH(body, 'beta')"
        )
        assert result.rows == ((1,),)

    def test_null_never_matches(self, server, session):
        server.execute(session, "CREATE TABLE n (id INT PRIMARY KEY, v INT)")
        server.execute(session, "INSERT INTO n (id, v) VALUES (1, NULL), (2, 5)")
        result = server.execute(session, "SELECT id FROM n WHERE v >= 0")
        assert result.rows == ((2,),)


class TestQueryCache:
    def test_cache_hit(self):
        server = MySQLServer(ServerConfig(query_cache_enabled=True))
        session = server.connect()
        seed_customers(server, session, n=5)
        q = "SELECT name FROM customers WHERE id = 1"
        first = server.execute(session, q)
        second = server.execute(session, q)
        assert not first.from_cache
        assert second.from_cache
        assert second.rows == first.rows

    def test_write_invalidates(self):
        server = MySQLServer(ServerConfig(query_cache_enabled=True))
        session = server.connect()
        seed_customers(server, session, n=5)
        q = "SELECT count(*) FROM customers"
        server.execute(session, q)
        server.execute(
            session,
            "INSERT INTO customers (id, name, state, age) VALUES (99, 'n', 'CA', 30)",
        )
        result = server.execute(session, q)
        assert not result.from_cache
        assert result.rows == ((6,),)

    def test_disabled_by_default(self, server, session):
        seed_customers(server, session, n=2)
        q = "SELECT count(*) FROM customers"
        server.execute(session, q)
        assert not server.execute(session, q).from_cache

    def test_cached_statement_text_visible(self):
        server = MySQLServer(ServerConfig(query_cache_enabled=True))
        session = server.connect()
        seed_customers(server, session, n=2)
        q = "SELECT name FROM customers WHERE state = 'IN'"
        server.execute(session, q)
        assert q in server.query_cache.statements


class TestDiagnosticTables:
    def test_processlist_shows_own_query(self, server, session):
        result = server.execute(
            session, "SELECT * FROM information_schema.processlist"
        )
        assert result.rows[0][0] == session.session_id
        assert "processlist" in result.rows[0][5]

    def test_processlist_idle_sessions_sleep(self, server, session):
        other = server.connect("victim")
        seed_customers(server, session, n=1)
        result = server.execute(
            session, "SELECT command FROM information_schema.processlist"
        )
        commands = {row[0] for row in result.rows}
        assert "Sleep" in commands  # the idle victim
        assert "Query" in commands  # the attacker's own probe

    def test_statements_history_accumulates(self, server, session):
        seed_customers(server, session, n=1)
        server.execute(session, "SELECT * FROM customers")
        result = server.execute(
            session,
            "SELECT sql_text FROM performance_schema.events_statements_history",
        )
        texts = [row[0] for row in result.rows]
        assert any("SELECT * FROM customers" in t for t in texts)

    def test_history_bounded_per_thread(self):
        server = MySQLServer(ServerConfig(perf_schema_history_size=5))
        session = server.connect()
        seed_customers(server, session, n=1)
        for i in range(20):
            server.execute(session, f"SELECT * FROM customers WHERE id = {i}")
        history = server.perf_schema.events_statements_history(session.session_id)
        assert len(history) == 5

    def test_digest_summary_groups_by_type(self, server, session):
        seed_customers(server, session, n=1)
        server.execute(session, "SELECT * FROM customers WHERE state = 'IN'")
        server.execute(session, "SELECT * FROM customers WHERE state = 'AZ'")
        server.execute(session, "SELECT * FROM customers WHERE age >= 25")
        result = server.execute(
            session,
            "SELECT digest_text, count_star FROM "
            "performance_schema.events_statements_summary_by_digest "
            "WHERE count_star >= 2",
        )
        state_rows = [r for r in result.rows if "state" in r[0] and "age" not in r[0]]
        assert state_rows and state_rows[0][1] == 2

    def test_global_status(self, server, session):
        result = server.execute(
            session, "SELECT * FROM performance_schema.global_status"
        )
        names = {row[0] for row in result.rows}
        assert "Queries" in names
        assert "Threads_connected" in names

    def test_unknown_virtual_table(self, server, session):
        with pytest.raises(CatalogError):
            server.execute(session, "SELECT * FROM information_schema.nope")


class TestSessions:
    def test_two_sessions_isolated_arenas(self, server):
        a = server.connect("a")
        b = server.connect("b")
        server.execute(a, "CREATE TABLE t (id INT PRIMARY KEY)")
        server.execute(a, "INSERT INTO t (id) VALUES (1)")
        server.execute(b, "SELECT * FROM t")
        assert a.statements_executed == 2
        assert b.statements_executed == 1

    def test_closed_session_rejected(self, server, session):
        server.disconnect(session)
        with pytest.raises(SessionError):
            server.execute(session, "SELECT * FROM information_schema.processlist")

    def test_oversized_statement_rejected(self, server, session):
        with pytest.raises(SessionError):
            server.execute(session, "SELECT '" + "x" * 20000 + "' FROM t")

    def test_failed_statement_resets_session(self, server, session):
        with pytest.raises(CatalogError):
            server.execute(session, "SELECT * FROM missing")
        # Session must be usable again.
        result = server.execute(
            session, "SELECT * FROM information_schema.processlist"
        )
        assert result.rows


class TestUdf:
    def test_register_and_call(self, server, session):
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        server.execute(session, "INSERT INTO t (id, v) VALUES (1, 10), (2, 20)")
        server.register_udf("big", lambda v, threshold: v is not None and v > threshold)
        result = server.execute(session, "SELECT id FROM t WHERE big(v, 15)")
        assert result.rows == ((2,),)

    def test_unknown_udf_rejected(self, server, session):
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        server.execute(session, "INSERT INTO t (id, v) VALUES (1, 10)")
        with pytest.raises(ServerError):
            server.execute(session, "SELECT id FROM t WHERE nosuch(v, 1)")

    def test_bad_udf_name_rejected(self, server):
        with pytest.raises(ServerError):
            server.register_udf("not a name", lambda v: True)


class TestRestart:
    def test_restart_clears_volatile_keeps_disk(self, server, session):
        seed_customers(server, session, n=3)
        server.execute(session, "SELECT * FROM customers")
        assert server.perf_schema.statements_total > 0
        binlog_before = server.engine.binlog.num_events
        server.restart()
        assert server.perf_schema.statements_total == 0
        assert server.engine.buffer_pool.resident_pages == 0
        assert server.engine.binlog.num_events == binlog_before
        # The shutdown wrote a buffer-pool dump to disk.
        assert server.last_buffer_pool_dump is not None
