"""The server against SQLite: one session, generated workloads, same answers.

Every statement of a generated workload on ``t (id INT PRIMARY KEY, a INT,
s TEXT)`` runs on a ``MySQLServer`` session and on the standard library's
``sqlite3``. Both must return the same rows, the same ``rows_affected``
for a write and the same class of error. The workloads cover multi-row
INSERT (with and without a column list, with missing columns), UPDATE,
DELETE, comparisons, BETWEEN, AND, every aggregate with and without
GROUP BY, ORDER BY with LIMIT, and BEGIN/COMMIT/ROLLBACK.

Where this server deviates from MySQL on purpose or by a known bug, the
SQLite side emulates the deviation. Each deviation is one named entry of
:data:`DEVIATIONS`, which cites the DESIGN section that documents it. A
difference is then either a bug or a listed deviation. Everything else in
:func:`sqlite_select` is dialect syntax, not semantics.

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
    op: str  # a comparison operator, or "between"
    values: Tuple[object, ...]


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


def where_sql(conds) -> str:
    if not conds:
        return ""
    parts = []
    for c in conds:
        if c.op == "between":
            parts.append(f"{c.column} BETWEEN {literal(c.values[0])} AND {literal(c.values[1])}")
        else:
            parts.append(f"{c.column} {c.op} {literal(c.values[0])}")
    return " WHERE " + " AND ".join(parts)


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
        sql = "SELECT " + (", ".join(q.columns) or "*") + " FROM t" + where_sql(q.where)
        if q.order_by:
            sql += sqlite_order(q.order_by)
        if q.limit is not None:
            sql += f" LIMIT {q.limit}"
        return sql
    source = "t" + where_sql(q.where)
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
TEXTS = st.one_of(st.none(), st.sampled_from(["", "a", "ab", "b", "ba", "c"]))
VALUES = {"id": IDS, "a": INTS, "s": TEXTS}
NON_NULL = {"id": IDS, "a": st.integers(-20, 20), "s": st.sampled_from(["", "a", "ab", "b", "c"])}
OPS = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


@st.composite
def conds(draw):
    out = []
    for _ in range(draw(st.integers(0, 2))):
        column = draw(st.sampled_from(COLUMNS))
        if draw(st.booleans()):
            low, high = draw(NON_NULL[column]), draw(NON_NULL[column])
            out.append(Cond(column, "between", (low, high)))
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
    return ("write", f"INSERT INTO t{head} VALUES {values}")


@st.composite
def updates(draw):
    targets = draw(st.lists(st.sampled_from(["a", "s"]), min_size=1, unique=True))
    sets = ", ".join(f"{c} = {literal(draw(VALUES[c]))}" for c in targets)
    return ("write", f"UPDATE t SET {sets}" + where_sql(draw(conds())))


@st.composite
def deletes(draw):
    return ("write", "DELETE FROM t" + where_sql(draw(conds())))


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
    load = ("write", f"INSERT INTO t VALUES {values}")
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


def run_server(server, session, kind, stmt) -> Outcome:
    sql = repro_select(stmt) if kind == "select" else stmt
    try:
        result = server.execute(session, sql)
    except Exception as exc:
        return Outcome(None, None, error_class(exc, 0))
    rows = canonical(result.rows, kind, stmt)
    return Outcome(rows, result.rows_affected if kind == "write" else None, None)


def run_sqlite(conn, kind, stmt) -> Outcome:
    sql = sqlite_select(stmt) if kind == "select" else stmt
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


def check_workload(workload) -> None:
    conn = sqlite3.connect(":memory:", isolation_level=None)
    conn.execute(SCHEMA)
    with tempfile.TemporaryDirectory() as tmp:
        server = MySQLServer(ServerConfig(data_dir=tmp))
        try:
            session = server.connect("oracle")
            server.execute(session, SCHEMA)
            history = []
            for kind, stmt in workload:
                history.append(repro_select(stmt) if kind == "select" else stmt)
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
