"""The statement fast path: one-pass scan, prepared statements, batched
arena spill.

Every piece is a pure speed-up, so every test here is an equivalence: the
scan against the lexer and the digest, prepared statements against cold
runs that prepare every statement afresh, the batched spill against one
copy per string, and the server's artifacts against the ones the code
before the fast path left behind.
"""

import gc
import hashlib
import tempfile
import types
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError, ParseError, ReproError, ServerError, SQLError
from repro.memory import BumpArena, MemoryDump, SimulatedHeap
from repro.server import MySQLServer, ServerConfig
from repro.snapshot import AttackScenario, capture
from repro.sql import canonicalize, digest, tokenize
from repro.sql import fastpath
from repro.sql.fastpath import scan
from repro.sql.lexer import TokenType

# -- scan -------------------------------------------------------------------

_SQLISH = "SELECTFROMWHEREINSTVALUDxy_ \t\n*(),;.?=<>!-'0123456789ab☃é"


def _expected_scan(tokens):
    literals, shape, spill = [], "", []
    kinds = {TokenType.NUMBER: "n", TokenType.STRING: "s", TokenType.HEX: "h"}
    for token in tokens:
        if token.type in kinds:
            literals.append(token.value)
            shape += kinds[token.type]
        if token.type in (TokenType.IDENTIFIER, TokenType.STRING):
            spill += [token.text, str(token.value)]
    return tuple(literals), shape, spill


class TestScan:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.text(alphabet=_SQLISH, max_size=80), st.text(max_size=40)))
    def test_scan_matches_lexer_and_digest(self, text):
        scanned = scan(text)
        try:
            tokens = tokenize(text)
        except SQLError:
            assert scanned is None
            return
        assert scanned is not None
        assert scanned.canonical == canonicalize(text)
        assert scanned.digest == digest(text)
        assert (scanned.literals, scanned.shape, scanned.spill) == _expected_scan(tokens)

    def test_literal_kinds(self):
        scanned = scan("SELECT * FROM t WHERE a = -5 AND b = 'x y' AND c = x'00ff'")
        assert scanned.literals == (-5, "x y", b"\x00\xff")
        assert scanned.shape == "nsh"
        assert scanned.spill == ["t", "t", "a", "a", "b", "b", "'x y'", "x y", "c", "c"]


# -- prepared statements ------------------------------------------------------------

_IDENT = st.sampled_from(["id", "v", "name", "Body", "c_3"])
_NUMBER = st.integers(-10**6, 10**6).map(str)
_STRING = st.text(alphabet="abc XYZ_019é", max_size=6).map(lambda s: f"'{s}'")
_HEX = st.sampled_from(["x''", "x'00'", "x'abff'", "x'0'"])
_LITERAL = st.one_of(_NUMBER, _STRING, _HEX, st.just("NULL"), st.just("?"))


@st.composite
def _statements(draw):
    """Statements of every kind, some malformed on purpose."""
    lit = lambda: draw(_LITERAL)  # noqa: E731
    ident = lambda: draw(_IDENT)  # noqa: E731
    kw = draw(st.sampled_from([str.upper, str.lower]))
    kind = draw(st.integers(0, 9))
    if kind == 0:
        rows = ", ".join(
            f"({lit()}, {lit()})" for _ in range(draw(st.integers(1, 3)))
        )
        return f"{kw('INSERT INTO')} t (id, v) {kw('VALUES')} {rows}"
    if kind == 1:
        cond = draw(st.sampled_from(["=", "!=", "<>", "<", ">=", "BETWEEN"]))
        rhs = f"{lit()} AND {lit()}" if cond == "BETWEEN" else lit()
        tail = draw(st.sampled_from(["", f" ORDER BY {ident()}", f" LIMIT {lit()}", ";"]))
        return f"{kw('SELECT')} {ident()}, {ident()} FROM t WHERE {ident()} {cond} {rhs}{tail}"
    if kind == 2:
        func = draw(st.sampled_from(["COUNT(*)", "SUM(v)", "ashe_sum(c_3)", "MIN(v)"]))
        group = draw(st.sampled_from(["", " GROUP BY v"]))
        return f"SELECT {func} FROM t WHERE v > {lit()}{group}"
    if kind == 3:
        return f"SELECT * FROM docs WHERE MATCH(Body, {lit()}) AND id = {lit()}"
    if kind == 4:
        return f"SELECT * FROM t WHERE udf(v, {lit()}, {lit()})"
    if kind == 5:
        return f"UPDATE t SET v = {lit()}, name = {lit()} WHERE id = {lit()}"
    if kind == 6:
        return f"DELETE FROM t WHERE {ident()} <= {lit()}"
    if kind == 7:
        return draw(st.sampled_from(["BEGIN", "commit", "ROLLBACK;", "", "  "]))
    if kind == 8:
        return f"CREATE TABLE {ident()} (k INT PRIMARY KEY, w {kw('text')})"
    return draw(st.text(alphabet=_SQLISH, max_size=60))


def _outcome(server, session, sql):
    try:
        return repr(server.execute(session, sql))
    except Exception as exc:  # UDFs may raise anything
        return f"{type(exc).__name__}: {exc}"


def _new_server():
    server = MySQLServer(ServerConfig())
    server.register_udf("udf", lambda value, *args: value in args)
    session = server.connect("app")
    server.execute(
        session, "CREATE TABLE t (id INT PRIMARY KEY, v INT, name TEXT, c_3 INT)"
    )
    return server, session


def _run_statements(statements, cold):
    """Each statement's outcome on a fresh server; ``cold`` forgets every
    prepared statement before each one, so every statement is prepared."""
    server, session = _new_server()
    try:
        outcomes = []
        for sql in statements:
            if cold:
                server.statement_cache._entries.clear()
            outcomes.append(_outcome(server, session, sql))
        return outcomes, server.statement_cache
    finally:
        server.close()


class TestStatementCache:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_statements(), min_size=1, max_size=25))
    def test_prepared_runs_equal_cold_runs(self, statements):
        sequence = statements + statements[::-1]
        with mock.patch.object(fastpath, "CAPACITY", 8):  # evictions too
            warm, cache = _run_statements(sequence, cold=False)
        cold, _ = _run_statements(sequence, cold=True)
        assert warm == cold
        assert len(cache) <= 8

    def test_same_shape_hits(self):
        server, session = _new_server()
        cache = server.statement_cache
        before = (cache.hits, cache.misses, len(cache))
        first = "SELECT * FROM t WHERE id = 1 AND name = 'a'"
        second = "select *  FROM t where id = 99 and name = 'zz'"
        server.execute(session, first)
        server.execute(session, second)
        after = (cache.hits, cache.misses, len(cache))
        assert tuple(a - b for a, b in zip(after, before)) == (1, 1, 1)
        server.close()

    def test_hit_reports_the_digest(self):
        server, session = _new_server()
        for sql in ("SELECT * FROM t WHERE id = 1", "SELECT * FROM t WHERE id = 2"):
            server.execute(session, sql)
            scanned = scan(sql)
            assert server.statement_cache.lookup(scanned, server.catalog) is not None
            assert scanned.digest == digest(sql)
        history = server.perf_schema.events_statements_history()
        assert [e.digest for e in history[-2:]] == [digest("SELECT * FROM t WHERE id = 1")] * 2
        server.close()

    def test_literal_kinds_are_part_of_the_key(self):
        # One digest text, two literal kinds: only a number parses after LIMIT.
        server, session = _new_server()
        good, bad = "SELECT * FROM t LIMIT 5", "SELECT * FROM t LIMIT 'x'"
        assert scan(good).canonical == scan(bad).canonical
        server.execute(session, good)
        with pytest.raises(ParseError, match="LIMIT expects a number"):
            server.execute(session, bad)
        server.close()

    def test_placeholder_punctuation_never_binds(self):
        server, session = _new_server()
        good, bad = "SELECT * FROM t WHERE id = 5", "SELECT * FROM t WHERE id = ?"
        assert scan(good).canonical == scan(bad).canonical
        server.execute(session, good)
        with pytest.raises(ParseError):
            server.execute(session, bad)
        server.close()

    def test_errors_are_never_cached(self):
        server, session = _new_server()
        cache = server.statement_cache
        held, misses = len(cache), cache.misses
        for _ in range(2):
            with pytest.raises(ParseError):
                server.execute(session, "SELEC * FROM t")
            with pytest.raises(CatalogError):
                server.execute(session, "SELECT nope FROM t WHERE id = 1")
        assert len(cache) == held
        assert cache.misses == misses + 4
        server.close()

    def test_oldest_shape_is_evicted(self, monkeypatch):
        monkeypatch.setattr(fastpath, "CAPACITY", 2)
        server, session = _new_server()
        cache = server.statement_cache
        misses = cache.misses
        server.execute(session, "BEGIN")
        server.execute(session, "COMMIT")
        with pytest.raises(ServerError):
            server.execute(session, "ROLLBACK")  # a run error still caches
        assert len(cache) == 2
        server.execute(session, "BEGIN")  # evicted: prepared again
        assert cache.misses == misses + 4
        server.close()

    def test_cache_holds_no_statement_text_or_literal(self):
        server, session = _new_server()
        sql = "SELECT name FROM t WHERE id = 424242 AND name = 'hunter2secret'"
        server.execute(session, sql)
        held = _reachable(server.statement_cache._entries)
        assert "name" in held  # identifiers are in the digest text anyway
        assert 424242 not in held
        assert not any(isinstance(v, str) and "hunter2" in v for v in held)
        server.close()


def _reachable(root):
    """Scalars reachable from ``root`` through containers, objects and
    closures (not through modules or a function's globals)."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, (str, int, bytes)):
            found.append(obj)
        elif isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return found


# -- batched arena spill ------------------------------------------------------------

_PIECES = st.lists(
    st.one_of(
        st.text(alphabet="abc☃é", max_size=12),
        st.integers(0, 70).map(lambda n: "w" * n),
    ),
    max_size=30,
)


class TestArenaSpill:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_PIECES, min_size=1, max_size=4), st.integers(8, 64))
    def test_batched_spill_leaves_the_same_heap(self, statements, chunk_size):
        one, batched = SimulatedHeap(), SimulatedHeap()
        arena_one = BumpArena(one, chunk_size=chunk_size)
        arena_batched = BumpArena(batched, chunk_size=chunk_size)
        for pieces in statements:
            for piece in pieces:
                arena_one.alloc_str(piece)
            arena_batched.alloc_strs(pieces)
            assert batched.snapshot() == one.snapshot()
            assert batched.stats == one.stats
            assert arena_batched.num_chunks == arena_one.num_chunks
            arena_one.reset()
            arena_batched.reset()
        assert batched.snapshot() == one.snapshot()

    def test_hundred_row_insert_writes_once_per_chunk(self):
        # A 100-row INSERT's spill (2.2 KB in 208 strings) overflows the
        # default 4096-byte chunk that the statement text (2.9 KB) is in.
        sql = "INSERT INTO users (id, v, name) VALUES " + ", ".join(
            f"({2 * i}, {i * 7919 % 1000003}, 'user{i * 31 % 1000000:06d}')"
            for i in range(100)
        )
        spill = scan(sql).spill
        assert len(spill) == 208
        one, batched = SimulatedHeap(), SimulatedHeap()
        arena_one, arena_batched = BumpArena(one), BumpArena(batched)
        writes = []
        write = batched.write

        def counting_write(addr, data, offset=0):
            writes.append(addr)
            write(addr, data, offset)

        batched.write = counting_write
        # (spill, heap writes): one per chunk run; the oversized string is
        # its own chunk and write.
        cases = [(spill, 2), (spill[:40], 1), (["w" * 5000] + spill, 2)]
        for pieces, expected_writes in cases:
            for arena in (arena_one, arena_batched):
                arena.alloc_str(sql)  # the statement text, as the session does
            writes.clear()
            for piece in pieces:
                arena_one.alloc_str(piece)
            arena_batched.alloc_strs(pieces)
            assert len(writes) == expected_writes
            assert batched.snapshot() == one.snapshot()
            assert batched.stats == one.stats
            assert arena_batched.num_chunks == arena_one.num_chunks
            arena_one.reset()
            arena_batched.reset()


# -- the server's artifacts ------------------------------------------------------------


def _workload_statements():
    out = [
        "CREATE TABLE t (id INT PRIMARY KEY, v INT, name TEXT, b BLOB)",
        "CREATE TABLE docs (id INT PRIMARY KEY, body TEXT)",
        "create table lower_t (k INT PRIMARY KEY, w TEXT);",
    ]
    for i in range(30):
        out.append(
            f"INSERT INTO t (id, v, name, b) VALUES ({i}, {i * 7 - 50}, 'name{i}', x'{i:02x}ff')"
        )
    out += [
        "insert into t (id, v, name, b) values (100, -3, 'héllo ✓', NULL)",
        "INSERT  INTO t\n(id, v, name)\tVALUES (101, 0, '');",
        "INSERT INTO t (id, v, name) VALUES (102, 1, 'a'), (103, 2, 'b'), (104, 3, 'c')",
        "INSERT INTO docs (id, body) VALUES (1, 'alpha beta'), (2, 'beta gamma'), (3, 'gamma')",
        "INSERT INTO lower_t (k, w) VALUES (1, 'one')",
        "INSERT INTO t (id, v, name) VALUES (5, 1, 'dup')",
        "INSERT INTO t (id, v, name) VALUES ('x', 1, 'bad type')",
        "INSERT INTO nosuch (id) VALUES (1)",
        "INSERT INTO t (id, v, name) VALUES (105, 1, '" + "z" * 5000 + "')",
        "INSERT INTO t (id, v, name) VALUES "
        + ", ".join(f"({200 + i}, {i}, '{'w' * 150}{i}')" for i in range(40)),
    ]
    for i in range(0, 30, 3):
        out.append(f"SELECT * FROM t WHERE id = {i}")
        out.append(f"select id, v from t where id = {i + 1};")
        out.append(f"SELECT id, v FROM t WHERE id BETWEEN {i} AND {i + 5}")
        out.append(f"SELECT name FROM t WHERE v >= {i - 20} AND name = 'name{i}'")
    out += [
        "SELECT COUNT(*) FROM t",
        "SELECT SUM(v) FROM t WHERE v > 3",
        "SELECT AVG(v) FROM t", "SELECT MIN(v) FROM t", "SELECT MAX(v) FROM t",
        "SELECT COUNT(*) FROM t GROUP BY v",
        "SELECT id FROM t WHERE id < 20 ORDER BY v LIMIT 4",
        "SELECT id FROM t ORDER BY name LIMIT 2",
        "SELECT * FROM docs WHERE MATCH(body, 'beta')",
        "SELECT * FROM docs WHERE MATCH(body, 'gamma')",
        "SELECT * FROM t WHERE myudf(v, 3, 'k')",
        "SELECT * FROM t WHERE myudf(v, 9, 'q')",
        "SELECT * FROM t WHERE nosuchudf(v, 1)",
        "SELECT * FROM t WHERE v != 4", "SELECT * FROM t WHERE v <> 4",
        "SELECT * FROM t WHERE b = x'01ff'",
        "SELECT * FROM t WHERE id = 'abc'",
        "SELECT * FROM t WHERE id BETWEEN 'a' AND 'b'",
        "UPDATE t SET v = 5 WHERE id = 3",
        "UPDATE t SET v = 6, name = 'upd' WHERE id = 4",
        "DELETE FROM t WHERE id = 6",
        "DELETE FROM t WHERE v = 999",
        "BEGIN", "INSERT INTO t (id, v, name) VALUES (300, 1, 'txn')",
        "SELECT * FROM t WHERE id = 300", "COMMIT",
        "BEGIN", "INSERT INTO t (id, v, name) VALUES (301, 1, 'rolled back')", "ROLLBACK",
        "COMMIT", "ROLLBACK",
        "SELEC * FROM t",
        "SELECT * FROM t WHERE name = 'unterminated",
        "SELECT * FROM t WHERE b = x'zz'",
        "SELECT * FROM t WHERE id = x'0'",
        "SELECT * FROM t WHERE id = ?",
        "", "   ",
        "SELECT * FROM t LIMIT 'x'",
        "SELECT * FROM docs WHERE MATCH(body, 5)",
        "SELECT ☃ FROM t",
        "SELECT * FROM t WHERE id = 1 extra",
        "SELECT * FROM nosuch WHERE id = 1",
        "SELECT * FROM information_schema.processlist",
        "SELECT * FROM performance_schema.events_statements_history",
        "SELECT digest_text, count_star FROM "
        "performance_schema.events_statements_summary_by_digest",
        "SELECT * FROM performance_schema.global_status",
        "SELECT * FROM performance_schema.events_statements_current WHERE thread_id = 1",
    ]
    for i in range(30):
        out.append(f"SELECT * FROM t WHERE id = {i}")
    return out


def _run_workload(config):
    """Every statement kind, every error path, on three sessions."""
    server = MySQLServer(config)
    server.register_udf(
        "myudf", lambda value, *args: value is not None and value > args[0]
    )
    sessions = [server.connect(user) for user in ("alice", "bob", "carol")]
    errors = []
    for i, sql in enumerate(_workload_statements()):
        try:
            server.execute(sessions[i % 3], sql)
        except ReproError as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
    server.disconnect(sessions[2])
    server.execute(server.connect("dave"), "SELECT * FROM t WHERE id = 7")
    return server, errors


def _fingerprint(server, errors, data_dir):
    """One hash over every captured artifact, and one over the errors."""
    snap = capture(server, AttackScenario.FULL_COMPROMISE, escalated=True)
    parts = []
    for name in sorted(snap.artifacts):
        value = snap.artifacts[name]
        data = value.data if isinstance(value, MemoryDump) else repr(value).encode()
        data = data.replace(data_dir.encode(), b"<data_dir>")
        parts.append(f"{name}={hashlib.sha256(data).hexdigest()[:16]};")
    return (
        hashlib.sha256("".join(parts).encode()).hexdigest()[:32],
        hashlib.sha256("\n".join(errors).encode()).hexdigest()[:16],
    )


#: (config, artifact hash, error hash). The artifact hashes were left by
#: the code that still had a memory storage mode beside the paged engine,
#: run with the paged engine and a data_dir; there they matched the code
#: before the fast path, which tokenized, parsed and canonicalized every
#: statement in full. They were recomputed on the code just before the
#: duplicate ``tablespace_file`` artifact was removed, with that artifact
#: dropped from the snapshot before hashing. The error hash differs from that code's only in the
#: workload's 5,028-byte row, which now fails as the StorageError it is
#: instead of a false DuplicateKeyError. "paged" is that code's paged
#: config, which synced the WAL. "sharded" was pinned on the code whose
#: statement records (results, binlog events, query-log entries and
#: performance_schema events) were still frozen dataclasses; it covers the
#: merged per-shard views the sharded engine exposes.
_BEFORE_FAST_PATH = {
    "default": ({}, "4427b70a561be8cf9ef5ec36b2ccc1fb", "305049a67da361dc"),
    "everything_on": (
        dict(obs_enabled=True, general_log_enabled=True,
             query_cache_enabled=True, long_query_time=0.0),
        "3f18170b935328b5a516595c7e4b909a", "305049a67da361dc",
    ),
    "perf_schema_off_obs_on": (
        dict(perf_schema_enabled=False, obs_enabled=True),
        "8de7964514cb69157e308ad906eb7287", "305049a67da361dc",
    ),
    "paged": (
        dict(wal_sync=True),
        "4427b70a561be8cf9ef5ec36b2ccc1fb", "305049a67da361dc",
    ),
    "sharded": (
        dict(num_shards=4),
        "0169fd12eb7f745221bc3d5eac3a2a1f", "305049a67da361dc",
    ),
}


def _run_config(label):
    kwargs, _, _ = _BEFORE_FAST_PATH[label]
    with tempfile.TemporaryDirectory() as tmp:
        server, errors = _run_workload(ServerConfig(**kwargs, data_dir=tmp))
        try:
            return _fingerprint(server, errors, tmp), server.statement_cache
        finally:
            server.close()


class TestArtifactsUnchanged:
    @pytest.mark.parametrize("label", sorted(_BEFORE_FAST_PATH))
    def test_artifacts_match_the_code_before_the_fast_path(self, label):
        (artifacts, errors), cache = _run_config(label)
        _, want_artifacts, want_errors = _BEFORE_FAST_PATH[label]
        assert errors == want_errors
        assert artifacts == want_artifacts
        assert cache.hits > cache.misses  # the fast path was exercised
