"""The server against SQLite: one session, generated workloads, same answers.

Every statement of a generated workload on ``t (id INT PRIMARY KEY, a INT,
s TEXT)`` runs on a ``MySQLServer`` session and on the standard library's
``sqlite3``. Both must return the same rows, the same ``rows_affected``
for a write and the same class of error. The workloads cover multi-row
INSERT (with and without a column list, with missing columns), UPDATE,
DELETE, comparisons, BETWEEN, ``MATCH(column, 'keyword')``, a registered
UDF, AND, every aggregate with and without GROUP BY, ORDER BY with LIMIT,
and BEGIN/COMMIT/ROLLBACK.

Where this server deviates from MySQL on purpose or by a known bug, the
SQLite side emulates the deviation. Each deviation is one named entry of
:data:`DEVIATIONS`, which cites the DESIGN section that documents it. A
difference is then either a bug or a listed deviation. Everything else in
:func:`sqlite_select` and :func:`where_sql` is dialect syntax, not
semantics: SQLite has no ``MATCH(column, 'keyword')`` predicate, so the
SQLite side calls :func:`keyword_match`, and both sides call the same
:func:`near` UDF, each through its own registration
(``sqlite3.Connection.create_function`` and ``MySQLServer.register_udf``).

Tier-1 runs hypothesis's default budget. A longer sweep:

    python -m pytest tests/test_sqlite_oracle.py --hypothesis-profile=oracle-sweep
"""

import sqlite3
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import DuplicateKeyError, ServerError
from repro.server import MySQLServer, ServerConfig

SCHEMA = "CREATE TABLE t (id INT PRIMARY KEY, a INT, s TEXT)"
COLUMNS = ("id", "a", "s")


class Deviation(NamedTuple):
    """A documented way this server differs from MySQL (and SQLite)."""

    name: str
    design: str
    what: str


#: Every deviation the SQLite side emulates. ROADMAP item 12 removes them
#: one by one; each removal deletes its entry and its emulation here.
DEVIATIONS: Dict[str, Deviation] = {
    d.name: d
    for d in (
        Deviation(
            "error_aborts_transaction",
            "DESIGN §14, Known deviations from MySQL (D1)",
            "a write that fails inside BEGIN...COMMIT rolls back the whole "
            "transaction, and the session is back in autocommit",
        ),
        Deviation(
            "sum_of_nothing_is_zero",
            "DESIGN §14, Known deviations from MySQL (D2)",
            "SUM over no non-NULL values returns 0, not NULL",
        ),
        Deviation(
            "avg_is_floored_integer",
            "DESIGN §14, Known deviations from MySQL (D3)",
            "AVG returns the floor of the exact average as an integer",
        ),
        Deviation(
            "nulls_sort_last",
            "DESIGN §14, Known deviations from MySQL (D4)",
            "ORDER BY sorts NULLs after every value; MySQL sorts them first",
        ),
        Deviation(
            "limit_before_aggregate",
            "DESIGN §14, Known deviations from MySQL (D5)",
            "LIMIT cuts the rows an aggregate reads, not the rows it returns",
        ),
    )
}


# -- the workload model ----------------------------------------------------------------


class Cond(NamedTuple):
    column: str
    op: str  # a comparison operator, "between", "match" or "near"
    values: Tuple[object, ...]


class Write(NamedTuple):
    """An INSERT, UPDATE or DELETE: its text up to WHERE, and its WHERE."""

    head: str
    where: Tuple[Cond, ...] = ()


def keyword_match(value, keyword) -> bool:
    """``MATCH(column, 'keyword')``: the keyword is one of the value's
    whitespace-separated words, ignoring case (the search onion's
    semantics). Only text matches."""
    return isinstance(value, str) and keyword.lower() in value.lower().split()


def near(value, target, width) -> bool:
    """The registered UDF: an integer within ``width`` of ``target``."""
    return isinstance(value, int) and abs(value - target) <= width


class Query(NamedTuple):
    """A SELECT: ``columns`` (empty: ``*``) or ``aggregate`` ``(func,
    column)``, plus WHERE, GROUP BY, ORDER BY and LIMIT."""

    columns: Tuple[str, ...]
    aggregate: Optional[Tuple[str, Optional[str]]]
    where: Tuple[Cond, ...]
    group_by: Optional[str]
    order_by: Optional[str]
    limit: Optional[int]


def literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value + "'"
    return str(value)


def where_sql(conds, sqlite: bool = False) -> str:
    if not conds:
        return ""
    parts = []
    for c in conds:
        if c.op == "between":
            parts.append(f"{c.column} BETWEEN {literal(c.values[0])} AND {literal(c.values[1])}")
        elif c.op == "match":
            func = "keyword_match" if sqlite else "MATCH"  # dialect
            parts.append(f"{func}({c.column}, {literal(c.values[0])})")
        elif c.op == "near":
            target, width = c.values
            parts.append(f"near({c.column}, {literal(target)}, {literal(width)})")
        else:
            parts.append(f"{c.column} {c.op} {literal(c.values[0])}")
    return " WHERE " + " AND ".join(parts)


def write_sql(write: Write, sqlite: bool = False) -> str:
    return write.head + where_sql(write.where, sqlite)


def aggregate_sql(aggregate) -> str:
    func, column = aggregate
    return "COUNT(*)" if column is None else f"{func.upper()}({column})"


def repro_select(q: Query) -> str:
    if q.aggregate is not None:
        select = aggregate_sql(q.aggregate)
    else:
        select = ", ".join(q.columns) or "*"
    sql = f"SELECT {select} FROM t" + where_sql(q.where)
    if q.group_by:
        sql += f" GROUP BY {q.group_by}"
    if q.order_by:
        sql += f" ORDER BY {q.order_by}"
    if q.limit is not None:
        sql += f" LIMIT {q.limit}"
    return sql


def sqlite_aggregate(aggregate) -> str:
    func, column = aggregate
    if func == "sum":  # sum_of_nothing_is_zero
        return f"COALESCE(SUM({column}), 0)"
    if func == "avg":  # avg_is_floored_integer; NULL when COUNT is 0
        total, n = f"SUM({column})", f"COUNT({column})"
        return f"(({total}) - ((({total}) % {n}) + {n}) % {n}) / {n}"
    return aggregate_sql(aggregate)


def sqlite_order(column) -> str:
    # nulls_sort_last. The server sorts stably over rows in primary-key
    # order, so ties keep that order; MySQL leaves it unspecified.
    return f" ORDER BY {column} NULLS LAST, id"


def sqlite_select(q: Query) -> str:
    """The same query for SQLite, with the deviations emulated."""
    if q.aggregate is None:
        sql = "SELECT " + (", ".join(q.columns) or "*") + " FROM t"
        sql += where_sql(q.where, sqlite=True)
        if q.order_by:
            sql += sqlite_order(q.order_by)
        if q.limit is not None:
            sql += f" LIMIT {q.limit}"
        return sql
    source = "t" + where_sql(q.where, sqlite=True)
    if q.limit is not None:  # limit_before_aggregate
        order = sqlite_order(q.order_by) if q.order_by else ""
        source = f"(SELECT * FROM {source}{order} LIMIT {q.limit})"
    # Dialect: a grouped aggregate returns (group, value).
    head = f"{q.group_by}, " if q.group_by else ""
    sql = f"SELECT {head}{sqlite_aggregate(q.aggregate)} FROM {source}"
    if q.group_by:
        sql += f" GROUP BY {q.group_by}"
    return sql


# -- strategies ----------------------------------------------------------------------

IDS = st.integers(0, 11)
INTS = st.one_of(st.none(), st.integers(-20, 20))
TEXT_VALUES = ["", "a", "ab", "b", "ba", "c", "a b", "B a", "ab  C"]
TEXTS = st.one_of(st.none(), st.sampled_from(TEXT_VALUES))
VALUES = {"id": IDS, "a": INTS, "s": TEXTS}
NON_NULL = {"id": IDS, "a": st.integers(-20, 20), "s": st.sampled_from(["", "a", "ab", "b", "c"])}
OPS = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
KEYWORD_VALUES = ["", "a", "A", "b", "ab", "c", "x"]
KEYWORDS = st.sampled_from(KEYWORD_VALUES)


@st.composite
def conds(draw):
    out = []
    for _ in range(draw(st.integers(0, 2))):
        column = draw(st.sampled_from(COLUMNS))
        kind = draw(st.sampled_from(["compare", "compare", "between", "match", "near"]))
        if kind == "between":
            low, high = draw(NON_NULL[column]), draw(NON_NULL[column])
            out.append(Cond(column, "between", (low, high)))
        elif kind == "match":
            # Mostly on the text column, where a keyword can match.
            column = draw(st.sampled_from(["s", "s", "s", column]))
            out.append(Cond(column, "match", (draw(KEYWORDS),)))
        elif kind == "near":
            values = (draw(st.integers(-20, 20)), draw(st.integers(0, 5)))
            out.append(Cond(column, "near", values))
        else:
            out.append(Cond(column, draw(OPS), (draw(NON_NULL[column]),)))
    return tuple(out)


@st.composite
def inserts(draw):
    if draw(st.integers(0, 4)) == 0:
        columns = None  # no column list: every column
    else:
        columns = ["id"] + draw(st.lists(st.sampled_from(["a", "s"]), unique=True))
        columns = draw(st.permutations(columns))
    names = COLUMNS if columns is None else columns
    rows = draw(st.lists(st.tuples(*(VALUES[c] for c in names)), min_size=1, max_size=4))
    values = ", ".join("(" + ", ".join(literal(v) for v in row) + ")" for row in rows)
    head = "" if columns is None else " (" + ", ".join(columns) + ")"
    return ("write", Write(f"INSERT INTO t{head} VALUES {values}"))


@st.composite
def updates(draw):
    targets = draw(st.lists(st.sampled_from(["a", "s"]), min_size=1, unique=True))
    sets = ", ".join(f"{c} = {literal(draw(VALUES[c]))}" for c in targets)
    return ("write", Write(f"UPDATE t SET {sets}", draw(conds())))


@st.composite
def deletes(draw):
    return ("write", Write("DELETE FROM t", draw(conds())))


AGGREGATES = st.sampled_from(
    [("count", None), ("sum", "a"), ("sum", "id"), ("avg", "a"), ("avg", "id"),
     ("min", "a"), ("max", "a"), ("min", "id"), ("max", "id")]
)


@st.composite
def queries(draw):
    if draw(st.booleans()):
        aggregate = draw(AGGREGATES)
        columns: Tuple[str, ...] = ()
        group_by = draw(st.one_of(st.none(), st.sampled_from(COLUMNS)))
    else:
        aggregate, group_by = None, None
        columns = tuple(draw(st.lists(st.sampled_from(COLUMNS), unique=True, max_size=3)))
    order_by = draw(st.one_of(st.none(), st.sampled_from(COLUMNS)))
    # Without ORDER BY, which rows a LIMIT keeps is unspecified.
    limit = draw(st.one_of(st.none(), st.integers(0, 3))) if order_by else None
    q = Query(columns, aggregate, draw(conds()), group_by, order_by, limit)
    return ("select", q)


CONTROL = st.sampled_from([("control", "BEGIN"), ("control", "COMMIT"), ("control", "ROLLBACK")])

# INSERTs and SELECTs are drawn twice as often as the other kinds.
STATEMENTS = st.one_of(
    inserts(), inserts(), updates(), deletes(), queries(), queries(), CONTROL
)


@st.composite
def workloads(draw):
    """A populated table first, so that LIMIT and WHERE have rows to cut."""
    rows = draw(st.lists(st.tuples(IDS, INTS, TEXTS), min_size=3, max_size=8,
                         unique_by=lambda row: row[0]))
    values = ", ".join("(" + ", ".join(literal(v) for v in row) + ")" for row in rows)
    load = ("write", Write(f"INSERT INTO t VALUES {values}"))
    return [load] + draw(st.lists(STATEMENTS, min_size=5, max_size=60))


# -- running both sides -----------------------------------------------------------------

#: Error classes by (server exception, SQLite exception); the first match wins.
ERROR_CLASSES = (
    ("duplicate key", DuplicateKeyError, sqlite3.IntegrityError),
    ("transaction state", ServerError, sqlite3.OperationalError),
)


def error_class(exc: Optional[BaseException], side: int) -> Optional[str]:
    if exc is None:
        return None
    for name, *types in ERROR_CLASSES:
        if isinstance(exc, types[side]):
            return name
    raise AssertionError(f"unclassified error {type(exc).__name__}: {exc}")


def canonical(rows, kind, stmt) -> Optional[List[tuple]]:
    """A SELECT's rows, sorted unless its ORDER BY fixes their order."""
    if kind != "select":
        return None
    rows = [tuple(r) for r in rows]
    ordered = stmt.order_by is not None and stmt.aggregate is None
    return rows if ordered else sorted(rows, key=repr)


class Outcome(NamedTuple):
    rows: Optional[List[tuple]]
    rows_affected: Optional[int]
    error: Optional[str]


def server_sql(kind, stmt) -> str:
    if kind == "select":
        return repro_select(stmt)
    return write_sql(stmt) if kind == "write" else stmt


def run_server(server, session, kind, stmt) -> Outcome:
    sql = server_sql(kind, stmt)
    try:
        result = server.execute(session, sql)
    except Exception as exc:
        return Outcome(None, None, error_class(exc, 0))
    rows = canonical(result.rows, kind, stmt)
    return Outcome(rows, result.rows_affected if kind == "write" else None, None)


def sqlite_sql(kind, stmt) -> str:
    if kind == "select":
        return sqlite_select(stmt)
    return write_sql(stmt, sqlite=True) if kind == "write" else stmt


def run_sqlite(conn, kind, stmt) -> Outcome:
    sql = sqlite_sql(kind, stmt)
    try:
        cursor = conn.execute(sql)
        rows = cursor.fetchall()
    except sqlite3.Error as exc:
        if kind == "write" and conn.in_transaction:  # error_aborts_transaction
            conn.execute("ROLLBACK")
        return Outcome(None, None, error_class(exc, 1))
    return Outcome(
        canonical(rows, kind, stmt), cursor.rowcount if kind == "write" else None, None
    )


def connect_sqlite():
    conn = sqlite3.connect(":memory:", isolation_level=None)
    conn.create_function("keyword_match", 2, keyword_match, deterministic=True)
    conn.create_function("near", 3, near, deterministic=True)
    conn.execute(SCHEMA)
    return conn


def start_server(data_dir):
    server = MySQLServer(ServerConfig(data_dir=data_dir))
    server.register_udf("near", near)
    session = server.connect("oracle")
    server.execute(session, SCHEMA)
    return server, session


def check_workload(workload) -> None:
    conn = connect_sqlite()
    with tempfile.TemporaryDirectory() as tmp:
        server, session = start_server(tmp)
        try:
            history = []
            for kind, stmt in workload:
                history.append(server_sql(kind, stmt))
                got = run_server(server, session, kind, stmt)
                want = run_sqlite(conn, kind, stmt)
                assert got == want, "\n".join(history)
            final = Query((), None, (), None, "id", None)
            got = run_server(server, session, "select", final)
            assert got == run_sqlite(conn, "select", final), "\n".join(history)
        finally:
            server.close()
            conn.close()


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workloads())
def test_server_agrees_with_sqlite(workload):
    check_workload(workload)


def test_match_and_udf_agree_on_every_keyword():
    """Every keyword and UDF argument the strategies draw, on every column,
    against one row per text value."""
    values = [None] + TEXT_VALUES
    rows = ", ".join(f"({i}, {i * 3 - 12}, {literal(v)})" for i, v in enumerate(values))
    conds = []
    for column in COLUMNS:
        conds += [Cond(column, "match", (keyword,)) for keyword in KEYWORD_VALUES]
        for target, width in [(-12, 0), (0, 3), (6, 5), (-20, 1)]:
            conds.append(Cond(column, "near", (target, width)))
    workload = [("write", Write(f"INSERT INTO t VALUES {rows}"))]
    for cond in conds:
        workload.append(("select", Query(("id",), None, (cond,), None, None, None)))
    check_workload(workload)


def test_every_deviation_cites_design():
    design = (Path(__file__).resolve().parents[1] / "DESIGN.md").read_text(encoding="utf-8")
    for deviation in DEVIATIONS.values():
        label = deviation.design.rsplit("(", 1)[1].rstrip(")")
        assert f"**{label}" in design, deviation.name


def test_each_deviation_shows_without_its_emulation():
    """Each emulated deviation is real: the plain SQLite answer differs."""
    cases = {
        "sum_of_nothing_is_zero": ("SELECT SUM(a) FROM t WHERE id > 100", [(0,)], [(None,)]),
        "avg_is_floored_integer": ("SELECT AVG(a) FROM t", [(-2,)], [(-1.5,)]),
        "nulls_sort_last": ("SELECT id FROM t ORDER BY a", [(2,), (1,), (3,)], [(3,), (2,), (1,)]),
        "limit_before_aggregate": ("SELECT COUNT(*) FROM t ORDER BY id LIMIT 1", [(1,)], [(3,)]),
    }
    setup = ["INSERT INTO t (id, a) VALUES (1, -1), (2, -2), (3, NULL)"]
    conn = sqlite3.connect(":memory:", isolation_level=None)
    for sql in [SCHEMA] + setup:
        conn.execute(sql)
    with tempfile.TemporaryDirectory() as tmp:
        server = MySQLServer(ServerConfig(data_dir=tmp))
        session = server.connect("oracle")
        for sql in [SCHEMA] + setup:
            server.execute(session, sql)
        for name, (sql, ours, sqlite_plain) in cases.items():
            assert name in DEVIATIONS
            assert [tuple(r) for r in server.execute(session, sql).rows] == ours, name
            assert conn.execute(sql).fetchall() == sqlite_plain, name
        # error_aborts_transaction: the failed write takes row 4 with it.
        for sql in ("BEGIN", "INSERT INTO t (id) VALUES (4)"):
            server.execute(session, sql)
            conn.execute(sql)
        dup = "INSERT INTO t (id) VALUES (1)"
        try:
            server.execute(session, dup)
        except DuplicateKeyError:
            pass
        try:
            conn.execute(dup)
        except sqlite3.IntegrityError:
            pass
        count = "SELECT COUNT(*) FROM t"
        assert server.execute(session, count).rows == ((3,),)
        assert conn.execute(count).fetchall() == [(4,)]
        server.close()
    conn.close()
