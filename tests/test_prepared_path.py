"""Prepared statements: each shape compiled once, literals bound per statement.

Preparing is a pure speed-up, so the central tests are equivalences: a
server whose executor cache is cleared before every statement (each
statement prepared afresh) against one whose cache is warm, compared result
by result and artifact by artifact. Around them: preparation failures, the
schema-identity guard, what executors may hold, the query cache under
transactions, the decode-free ``COUNT(*)``, and query-log entries built
only when a log keeps them.
"""

import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.query_logs import GeneralQueryLog, QueryLogEntry, SlowQueryLog
from repro.errors import CatalogError, ReproError
from repro.server import MySQLServer, ServerConfig, TableSchema
from repro.server import executor as executor_module
from repro.server import server as server_module
from repro.sql import ColumnDef, fastpath
from repro.sql.fastpath import scan
from tests.test_statement_fastpath import (
    _BEFORE_FAST_PATH,
    _fingerprint,
    _reachable,
    _statements,
    _workload_statements,
)

# -- a cold executor cache leaves what a warm one leaves ----------------------------


def _outcome(server, session, sql):
    try:
        return repr(server.execute(session, sql))
    except Exception as exc:  # UDFs may raise anything
        return f"{type(exc).__name__}: {exc}"


def _run_pinned_workload(kwargs, cold):
    """The pinned-hash workload, with every outcome and the fingerprint."""
    with tempfile.TemporaryDirectory() as tmp:
        server = MySQLServer(ServerConfig(**kwargs, data_dir=tmp))
        try:
            server.register_udf(
                "myudf", lambda value, *args: value is not None and value > args[0]
            )
            sessions = [server.connect(user) for user in ("alice", "bob", "carol")]
            outcomes, errors = [], []
            for i, sql in enumerate(_workload_statements()):
                if cold:
                    server.statement_cache._entries.clear()
                try:
                    outcomes.append(repr(server.execute(sessions[i % 3], sql)))
                except ReproError as exc:
                    errors.append(f"{type(exc).__name__}: {exc}")
                    outcomes.append(errors[-1])
            server.disconnect(sessions[2])
            if cold:
                server.statement_cache._entries.clear()
            server.execute(server.connect("dave"), "SELECT * FROM t WHERE id = 7")
            return outcomes, _fingerprint(server, errors, tmp), server.statement_cache
        finally:
            server.close()


class TestColdEqualsWarm:
    @pytest.mark.parametrize("label", sorted(_BEFORE_FAST_PATH))
    def test_cold_cache_leaves_the_pinned_artifacts(self, label):
        kwargs, want_artifacts, want_errors = _BEFORE_FAST_PATH[label]
        warm, warm_print, warm_cache = _run_pinned_workload(kwargs, cold=False)
        cold, cold_print, cold_cache = _run_pinned_workload(kwargs, cold=True)
        assert warm == cold
        assert warm_print == cold_print == (want_artifacts, want_errors)
        assert warm_cache.hits > warm_cache.misses
        assert cold_cache.hits == 0

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(_statements(), min_size=1, max_size=20),
        st.lists(st.integers(0, 1), min_size=1, max_size=20),
    )
    def test_generated_sequences_leave_identical_artifacts(self, statements, who):
        """Two sessions interleave (so transactions overlap); errors of
        every kind included; the warm cache is small enough to evict."""
        sequence = statements + statements[::-1]

        def run(cold):
            config = dict(
                obs_enabled=True, general_log_enabled=True,
                query_cache_enabled=True, long_query_time=0.0,
            )
            with tempfile.TemporaryDirectory() as tmp:
                server = MySQLServer(ServerConfig(**config, data_dir=tmp))
                try:
                    server.register_udf("udf", lambda value, *args: value in args)
                    sessions = [server.connect("a"), server.connect("b")]
                    server.execute(
                        sessions[0],
                        "CREATE TABLE t (id INT PRIMARY KEY, v INT, name TEXT, c_3 INT)",
                    )
                    outcomes = []
                    for i, sql in enumerate(sequence):
                        if cold:
                            server.statement_cache._entries.clear()
                        session = sessions[who[i % len(who)]]
                        outcomes.append(_outcome(server, session, sql))
                    return outcomes, _fingerprint(server, [], tmp)
                finally:
                    server.close()

        with mock.patch.object(fastpath, "CAPACITY", 6):
            warm = run(cold=False)
        assert warm == run(cold=True)


# -- preparation ----------------------------------------------------------------------


@pytest.fixture
def server():
    server = MySQLServer(ServerConfig(query_cache_enabled=True))
    yield server
    server.close()


class TestPreparation:
    def test_a_shape_that_failed_works_after_create_table(self, server):
        session = server.connect("app")
        cache = server.statement_cache
        shapes = [
            "INSERT INTO t (id, v) VALUES (1, 10)",
            "SELECT v FROM t WHERE id = 1",
            "UPDATE t SET v = 11 WHERE id = 1",
            "DELETE FROM t WHERE id = 2",
        ]
        for sql in shapes:
            with pytest.raises(CatalogError, match="unknown table"):
                server.execute(session, sql)
        assert len(cache) == 0
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for sql in shapes:
            server.execute(session, sql)
        assert len(cache) == 5
        assert server.execute(session, "SELECT v FROM t WHERE id = 1").rows == ((11,),)

    def test_update_raises_in_the_statements_order(self, server):
        """A value error before an unknown column wins, as it always did;
        an unknown WHERE column loses to every assignment's value error."""
        session = server.connect("app")
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v INT, s TEXT)")
        cases = [
            ("UPDATE t SET v = 'x', nope = 1", "expects INT"),
            ("UPDATE t SET v = 1, nope = 1", "no column 'nope'"),
            ("UPDATE t SET id = 1", "primary key is not supported"),
            ("UPDATE t SET s = 5 WHERE nope = 1", "expects TEXT"),
            ("UPDATE t SET s = 'ok' WHERE nope = 1", "no column 'nope'"),
        ]
        lsn = server.engine.lsn.current
        for sql, message in cases:
            for _ in range(2):  # the second one prepares again
                with pytest.raises(CatalogError, match=message):
                    server.execute(session, sql)
        assert server.engine.lsn.current == lsn  # no transaction opened

    def test_every_statement_of_a_shape_runs_one_executor(self, server):
        session = server.connect("app")
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(5):
            server.execute(session, f"INSERT INTO t (id, v) VALUES ({i}, {i * i})")
        executors = set()
        for i in range(5):
            scanned = scan(f"SELECT v FROM t WHERE id = {i}")
            server.execute(session, f"SELECT v FROM t WHERE id = {i}")
            executors.add(id(server.statement_cache.lookup(scanned, server.catalog)))
        assert len(executors) == 1


_GUARDED = (
    "SELECT a FROM t WHERE id = 1",
    "INSERT INTO t (id, a, b) VALUES (2, 1, 'y')",
    "UPDATE t SET a = 1 WHERE id = 5",
    "DELETE FROM t WHERE id = 5",
)


class TestSchemaIdentityGuard:
    def _setup(self, server):
        session = server.connect("app")
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, a INT, b TEXT)")
        server.execute(session, "INSERT INTO t (id, a, b) VALUES (1, 10, 'x')")
        for sql in _GUARDED:
            server.execute(session, sql)
        server.execute(session, "DELETE FROM t WHERE id = 2")
        assert server.execute(session, "SELECT a FROM t WHERE id = 1").rows == ((10,),)
        return session

    def test_a_replaced_schema_is_never_served_stale(self, server):
        session = self._setup(server)
        cache = server.statement_cache
        misses = cache.misses
        # What an ALTER TABLE would do: the same name, a new schema object
        # (here one that names the stored columns the other way round).
        server.catalog._tables["t"] = TableSchema(
            name="t",
            columns=(ColumnDef("id", "INT", True), ColumnDef("b", "INT"),
                     ColumnDef("a", "TEXT")),
            primary_key="id",
        )
        server.query_cache.invalidate_table("t")
        assert server.execute(session, "SELECT a FROM t WHERE id = 2").rows == ()
        assert server.execute(session, "SELECT a FROM t WHERE id = 1").rows == (("x",),)
        assert cache.misses == misses + 1

    def test_a_dropped_table_is_never_served(self, server):
        session = self._setup(server)
        del server.catalog._tables["t"]
        for sql in _GUARDED:
            with pytest.raises(CatalogError, match="unknown table"):
                server.execute(session, sql)

    def test_executors_check_the_schema_object(self, server):
        self._setup(server)
        entries = [executor for _, executor in server.statement_cache._entries.values()]
        table_executors = [e for e in entries if hasattr(e, "schema") and e.table == "t"]
        assert len(table_executors) == 4
        replacement = TableSchema(
            name="t", columns=server.catalog.table("t").columns, primary_key="id"
        )
        assert all(e.is_current(server.catalog) for e in table_executors)
        server.catalog._tables["t"] = replacement
        assert not any(e.is_current(server.catalog) for e in table_executors)


# -- executors are out of band: no statement text, no literal --------------------------

_BIG = st.integers(10**9, 10**12)
_MARKED = st.text(alphabet="abcXYZ", min_size=1, max_size=5).map(lambda s: "zq" + s)
_HEX = st.binary(min_size=3, max_size=4)


class TestOutOfBand:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(_BIG, _BIG, _MARKED, _HEX), min_size=1, max_size=4))
    def test_executors_hold_no_statement_text_or_literal(self, values):
        server = MySQLServer(ServerConfig(query_cache_enabled=True))
        try:
            server.register_udf("udf", lambda value, *args: True)
            session = server.connect("app")
            server.execute(
                session, "CREATE TABLE t (id INT PRIMARY KEY, n INT, s TEXT, b BLOB)"
            )
            texts, literals = [], set()
            for i, (big, other, marked, blob) in enumerate(values):
                hex_ = "x'" + blob.hex() + "'"
                statements = [
                    f"INSERT INTO t (id, n, s, b) VALUES ({big + i}, {other}, '{marked}', {hex_})",
                    f"INSERT INTO t (id, n, s, b) VALUES ({other + i}, NULL, '{marked}', NULL)",
                    f"SELECT * FROM t WHERE id = {big + i}",
                    f"SELECT s, n FROM t WHERE id BETWEEN {other} AND {big} LIMIT {big}",
                    f"SELECT COUNT(*) FROM t WHERE n > {other} AND s = '{marked}'",
                    f"SELECT * FROM t WHERE MATCH(s, '{marked}') AND b = {hex_}",
                    f"SELECT * FROM t WHERE udf(n, {other}, '{marked}', NULL)",
                    f"UPDATE t SET s = '{marked}', b = {hex_} WHERE n <= {big}",
                    f"DELETE FROM t WHERE id < {other} AND s != '{marked}'",
                    f"SELECT * FROM performance_schema.events_statements_history "
                    f"WHERE rows_sent = {big}",
                    "BEGIN", f"INSERT INTO t (id, s) VALUES ({big + 7}, '{marked}')",
                    "ROLLBACK",
                ]
                for sql in statements:
                    try:
                        server.execute(session, sql)
                    except ReproError:
                        pass
                    texts.append(sql)
                    literals.update(scan(sql).literals)
            executors = [e for _, e in server.statement_cache._entries.values()]
            assert len(executors) == 14  # every shape prepared
            held = _reachable(executors)
            assert "s" in held and "t" in held  # identifiers: in the digest text
            for value in held:
                assert value not in literals, value
                if isinstance(value, str):
                    assert "zq" not in value and value not in texts, value
        finally:
            server.close()


# -- the query cache and transactions ---------------------------------------------------


class TestQueryCacheTransactions:
    @pytest.fixture(params=[1, 2], ids=["one_engine", "two_shards"])
    def server(self, request):
        server = MySQLServer(
            ServerConfig(query_cache_enabled=True, num_shards=request.param)
        )
        yield server
        server.close()

    def _two_sessions(self, server):
        a, b = server.connect("a"), server.connect("b")
        server.execute(a, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        return a, b

    def test_uncommitted_and_rolled_back_rows_are_never_served(self, server):
        a, b = self._two_sessions(server)
        select = "SELECT * FROM t WHERE id = 5"
        server.execute(a, "BEGIN")
        server.execute(a, "INSERT INTO t (id, v) VALUES (5, 50)")
        assert server.execute(a, select).rows == ((5, 50),)
        assert server.execute(b, select).rows == ()
        server.execute(a, "ROLLBACK")
        assert server.execute(b, select).rows == ()
        assert server.execute(a, select).rows == ()

    def test_a_commit_invalidates_what_it_wrote(self, server):
        a, b = self._two_sessions(server)
        select = "SELECT * FROM t WHERE id = 5"
        server.execute(a, "BEGIN")
        server.execute(a, "INSERT INTO t (id, v) VALUES (5, 50)")
        assert server.execute(b, select).rows == ()
        assert server.query_cache.statements == [select]
        server.execute(a, "COMMIT")
        assert server.query_cache.statements == []
        result = server.execute(b, select)
        assert result.rows == ((5, 50),) and not result.from_cache
        assert server.execute(b, select).from_cache

    def test_a_snapshot_read_is_never_cached(self, server):
        a, b = self._two_sessions(server)
        select = "SELECT * FROM t WHERE id = 5"
        server.execute(b, "BEGIN")
        assert server.execute(b, "SELECT COUNT(*) FROM t").rows == ((0,),)
        server.execute(a, "INSERT INTO t (id, v) VALUES (5, 50)")
        assert server.execute(b, select).rows == ()  # b's snapshot
        assert server.query_cache.statements == []
        result = server.execute(a, select)
        assert result.rows == ((5, 50),) and not result.from_cache
        server.execute(b, "COMMIT")
        assert server.execute(b, select).rows == ((5, 50),)


# -- decode-free COUNT(*) ----------------------------------------------------------------


def _count_workload():
    """COUNT(*)s with and without LIMIT and ORDER BY, inside and outside a
    transaction whose uncommitted writes leave MVCC version chains."""
    app = ["CREATE TABLE t (id INT PRIMARY KEY, v INT, s TEXT)"]
    for start in range(0, 600, 100):
        app.append(
            "INSERT INTO t (id, v, s) VALUES "
            + ", ".join(f"({k}, {k % 7}, 's{k}')" for k in range(start, start + 100))
        )
    counts = [
        "SELECT COUNT(*) FROM t",
        "SELECT COUNT(*) FROM t LIMIT 0",
        "SELECT COUNT(*) FROM t LIMIT 3",
        "SELECT COUNT(*) FROM t LIMIT -1",
        "SELECT COUNT(*) FROM t LIMIT 100000",
        "SELECT COUNT(*) FROM t ORDER BY s",
        "SELECT COUNT(*) FROM t ORDER BY v LIMIT 2",
        "SELECT COUNT(*) FROM t WHERE v = 3",
        "SELECT COUNT(*) FROM t GROUP BY v",
    ]
    steps = [("app", s) for s in app + counts]
    steps += [
        ("other", "BEGIN"),
        ("other", "INSERT INTO t (id, v, s) VALUES (1000, 1, 'new')"),
        ("other", "UPDATE t SET v = 9 WHERE id = 7"),
        ("other", "DELETE FROM t WHERE id BETWEEN 10 AND 30"),
    ]
    steps += [("other", s) for s in counts] + [("app", s) for s in counts]
    steps += [("other", "COMMIT")] + [("app", s) for s in counts]
    steps += [("app", "DELETE FROM t WHERE v = 2")] + [("other", s) for s in counts]
    return steps


def _run_counts():
    with tempfile.TemporaryDirectory() as tmp:
        server = MySQLServer(ServerConfig(data_dir=tmp, buffer_pool_capacity=8))
        try:
            sessions = {"app": server.connect("app"), "other": server.connect("other")}
            results = []
            for who, sql in _count_workload():
                results.append(server.execute(sessions[who], sql))
                results.append(dict(server.engine.buffer_pool.stats))
            return results, _fingerprint(server, [], tmp), server.decode_memo.cache_info()
        finally:
            server.close()


class TestDecodeFreeCount:
    def test_count_matches_the_decoding_path(self):
        init = executor_module.PreparedTableSelect.__init__

        def decoding_init(self, schema, stmt):
            init(self, schema, stmt)
            self.count_only = False  # count decoded rows, as before

        with mock.patch.object(
            executor_module.PreparedTableSelect, "__init__", decoding_init
        ):
            want, want_print, want_memo = _run_counts()
        got, got_print, got_memo = _run_counts()
        assert got == want
        assert got_print == want_print
        # Rows went undecoded.
        assert got_memo.hits + got_memo.misses < want_memo.hits + want_memo.misses

    def test_counts_are_exact(self, server):
        session = server.connect("app")
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        server.execute(
            session, "INSERT INTO t (id, v) VALUES " + ", ".join(f"({i}, 1)" for i in range(9))
        )
        for limit, want in (("", 9), (" LIMIT 4", 4), (" LIMIT 0", 0), (" LIMIT -2", 7)):
            result = server.execute(session, "SELECT COUNT(*) FROM t" + limit)
            assert result.rows == ((want,),)
            assert result.rows_examined == 9


# -- query-log entries only when a log keeps them -----------------------------------------

_LOG_WORKLOAD = [
    "CREATE TABLE t (id INT PRIMARY KEY, v INT)",
    "INSERT INTO t (id, v) VALUES " + ", ".join(f"({i}, {i})" for i in range(300)),
    "SELECT * FROM t WHERE id = 3",
    "SELECT * FROM t",
    "SELECT * FROM nosuch",
    "UPDATE t SET v = 0 WHERE v > 100",
    "SELECT COUNT(*) FROM t WHERE v = 0",
]


def _log_run(config):
    """Both logs' entries and text, and how many entries were built."""
    built = []

    def counting_entry(**fields):
        built.append(fields)
        return QueryLogEntry(**fields)

    server = MySQLServer(config)
    try:
        session = server.connect("app")
        with mock.patch.object(server_module, "QueryLogEntry", side_effect=counting_entry):
            for sql in _LOG_WORKLOAD:
                try:
                    server.execute(session, sql)
                except ReproError:
                    pass
        return (
            server.general_log.entries, server.general_log.to_text(),
            server.slow_log.entries, server.slow_log.to_text(), len(built),
        )
    finally:
        server.close()


class TestQueryLogEntries:
    @pytest.mark.parametrize("general", [False, True])
    @pytest.mark.parametrize("slow", [False, True])
    @pytest.mark.parametrize("long_query_time", [0.0, 0.0003, 1.0])
    def test_entries_are_built_only_when_kept(self, general, slow, long_query_time):
        # Every statement's entry, from a server whose general log keeps all.
        everything = _log_run(ServerConfig(general_log_enabled=True, slow_log_enabled=False))
        all_entries = everything[0]
        assert len(all_entries) == len(_LOG_WORKLOAD) == everything[4]
        general_entries, general_text, slow_entries, slow_text, built = _log_run(
            ServerConfig(
                general_log_enabled=general, slow_log_enabled=slow,
                long_query_time=long_query_time,
            )
        )
        want_general = all_entries if general else []
        want_slow = [
            e for e in all_entries if slow and e.duration >= long_query_time
        ]
        assert general_entries == want_general
        assert slow_entries == want_slow
        assert built == len(
            [e for e in all_entries if general or (slow and e.duration >= long_query_time)]
        )
        expected_general = GeneralQueryLog(enabled=True)
        expected_slow = SlowQueryLog(long_query_time=long_query_time)
        for entry in want_general:
            expected_general.log(entry)
        for entry in want_slow:
            expected_slow.log(entry)
        assert general_text == expected_general.to_text()
        assert slow_text == expected_slow.to_text()
