"""Statement records are tuples, and the front end keeps none of them.

Six records are built per statement or per committed write:
``ClientRequest`` and ``CompletedRequest`` (front end), ``QueryResult``
(server), ``StatementEvent`` (performance_schema), ``BinlogEvent`` (binlog)
and ``QueryLogEntry`` (general and slow logs). They are ``NamedTuple``s.
Each must behave like the frozen dataclass it replaced wherever an
artifact or a caller can tell: repr, equality, hash, field order,
defaults, properties and immutability. The references below are those
dataclasses, field for field.

The front end hands every completion to its caller: after a run whose
caller drops them, no completion, request or result may still be alive,
and only the ``scheduler_queue`` telemetry may grow with the number of
statements.
"""

import dataclasses
import gc
import hashlib
import tempfile
import types
from collections import deque
from dataclasses import field, make_dataclass
from typing import Optional, Tuple

import pytest

from repro.engine.binlog import BinlogEvent
from repro.engine.query_logs import QueryLogEntry
from repro.server import MySQLServer, ServerConfig
from repro.server.frontend import (
    ClientRequest,
    CompletedRequest,
    SchedulingPolicy,
    ServerFrontend,
)
from repro.server.performance_schema import StatementEvent
from repro.server.server import QueryResult
from repro.snapshot import AttackScenario, capture

# -- frozen-dataclass references ----------------------------------------------


def _reference(name, fields, namespace=None):
    return make_dataclass(name, fields, frozen=True, namespace=namespace)


REFERENCES = {
    ClientRequest: _reference(
        "ClientRequest",
        [("seq", int), ("session_id", int), ("sql", str), ("arrival_ts", int)],
    ),
    CompletedRequest: _reference(
        "CompletedRequest",
        [("request", object), ("result", Optional[object]), ("error", Optional[str])],
    ),
    QueryResult: _reference(
        "QueryResult",
        [
            ("statement", str),
            ("columns", Tuple[str, ...]),
            ("rows", tuple),
            ("rows_examined", int),
            ("rows_affected", int),
            ("duration", float),
            ("from_cache", bool, field(default=False)),
        ],
        namespace={"rows_sent": property(lambda self: len(self.rows))},
    ),
    StatementEvent: _reference(
        "StatementEvent",
        [
            ("thread_id", int),
            ("event_id", int),
            ("sql_text", str),
            ("digest", str),
            ("timestamp", int),
            ("duration", float),
            ("rows_examined", int),
            ("rows_sent", int),
            ("text_addr", int),
        ],
    ),
    BinlogEvent: _reference(
        "BinlogEvent",
        [("timestamp", int), ("txn_id", int), ("statement", str), ("lsn", int)],
    ),
    QueryLogEntry: _reference(
        "QueryLogEntry",
        [
            ("timestamp", int),
            ("session_id", int),
            ("statement", str),
            ("duration", float),
            ("rows_examined", int),
        ],
    ),
}

_NEW = {record: record for record in REFERENCES}
_REF = dict(REFERENCES)


def _samples(kinds):
    """Field values per record; ``kinds`` maps each record to the class
    to build it with, so nested records are built the same way."""
    request = kinds[ClientRequest](7, 3, "SELECT * FROM t WHERE s = 'it''s'", 1700000000)
    result = kinds[QueryResult](
        "SELECT id, s FROM t", ("id", "s"), ((1, "é☃"), (2, None), (3, b"\x00")),
        4, 0, 1.5e-05,
    )
    return {
        ClientRequest: [
            (0, 0, "", 0),
            (7, 3, "SELECT * FROM t WHERE s = 'it''s'", 1700000000),
            (2**40, -1, "INSERT INTO t (id) VALUES (1)\n", -5),
        ],
        CompletedRequest: [
            (request, result, None),
            (request, None, "DuplicateKeyError: duplicate primary key 1 in 't'"),
            (request, kinds[QueryResult]("BEGIN", (), (), 0, 0, 1e-05, True), None),
        ],
        QueryResult: [
            ("SELECT id, s FROM t", ("id", "s"), ((1, "é☃"), (2, None)), 4, 0, 1.5e-05),
            ("SELECT COUNT(*) FROM t", ("COUNT(*)",), ((9,),), 9, 0, 0.0001, True),
            ("UPDATE t SET a = 1", (), (), 3, 3, 2e-05, False),
        ],
        StatementEvent: [
            (1, 0, "SELECT 1", "ab" * 16, 1700000000, 1e-05, 0, 1, 4096),
            (65, 12, "INSERT INTO t (s) VALUES ('\\x00')", "", 0, 0.25, 7, 0, 0),
        ],
        BinlogEvent: [
            (1700000000, 4, "INSERT INTO t (id, s) VALUES (1, 'x')", 512),
            (0, 0, "", 0),
        ],
        QueryLogEntry: [
            (1700000000, 2, "SELECT * FROM t WHERE id = 5", 1.2e-05, 1),
            (3, 9, "DELETE FROM t", 0.5, 1000),
        ],
    }


def _pairs():
    new, ref = _samples(_NEW), _samples(_REF)
    for record in REFERENCES:
        for i, (new_values, ref_values) in enumerate(zip(new[record], ref[record])):
            yield pytest.param(record, new_values, ref_values, id=f"{record.__name__}-{i}")


class TestRecordsMatchTheirDataclasses:
    @pytest.mark.parametrize("record, values, ref_values", list(_pairs()))
    def test_record_behaves_like_its_frozen_dataclass(self, record, values, ref_values):
        reference = REFERENCES[record]
        built, ref = record(*values), reference(*ref_values)
        names = tuple(f.name for f in dataclasses.fields(reference))
        assert record._fields == names
        assert record._field_defaults == {
            f.name: f.default
            for f in dataclasses.fields(reference)
            if f.default is not dataclasses.MISSING
        }
        assert repr(built) == repr(ref)
        assert hash(built) == hash(ref)
        assert built == record(*values)
        assert built == record(**dict(zip(names, values)))
        assert built != record(*values[:-1], "changed")
        for name in names:
            assert repr(getattr(built, name)) == repr(getattr(ref, name))
            for obj in (built, ref):
                with pytest.raises(AttributeError):
                    setattr(obj, name, None)
        with pytest.raises(AttributeError):
            built.not_a_field = 1
        if record is QueryResult:
            assert built.rows_sent == ref.rows_sent == len(values[2])
            assert built.from_cache == ref.from_cache


# -- artifacts before and after ---------------------------------------------------

#: The artifacts the records make up, by snapshot name.
RECORD_ARTIFACTS = (
    "binlog_events",
    "binlog_text",
    "general_log_entries",
    "scheduler_queue",
    "slow_log_entries",
    "statements_current",
    "statements_history",
)

#: sha256 of each artifact's repr after :func:`_frontend_run`, pinned on
#: the code whose six records were still frozen dataclasses.
PINNED_ARTIFACTS = {
    "binlog_events": "02ae3687bc3128999b65822831ec936bbf5ebcdc3a5ef74f1d426acd74ede40c",
    "binlog_text": "64dd7fa94c3955da2217f4165e62f074ce01caa022829d4887108f24e7327245",
    "general_log_entries": "5535435ace1bd5103d040100177a504eb2f4900206498fbe797200af640099e7",
    "scheduler_queue": "0ec2bd3374921a81643650cd75d4dc48f23b3d99806db510660ab8d7cc8dd635",
    "slow_log_entries": "5535435ace1bd5103d040100177a504eb2f4900206498fbe797200af640099e7",
    "statements_current": "9fa7d94a8c7be28d931b6cf1397f3efbd81ae4b416d65b3c5d2f553236736616",
    "statements_history": "93bb1ad00ccf7e31b202c6fbd5bbadab6a2df58299383eaa443f4294b8399355",
}


def _frontend_run(data_dir, statements=240):
    """Three sessions of writes, reads, transactions and errors through a
    FIFO front end, with every statement log on."""
    config = ServerConfig(
        general_log_enabled=True, long_query_time=0.0, data_dir=data_dir
    )
    server = MySQLServer(config)
    frontend = ServerFrontend(server)
    sessions = [frontend.open_session(user) for user in ("alice", "bob", "carol")]
    frontend.submit(sessions[0], "CREATE TABLE t (id INT PRIMARY KEY, a INT, s TEXT)")
    for i in range(statements):
        session = sessions[i % 3]
        if i % 12 == 5:
            frontend.submit(session, "BEGIN")
            frontend.submit(session, f"UPDATE t SET a = {i} WHERE id = {i // 2}")
            frontend.submit(session, "COMMIT" if i % 24 else "ROLLBACK")
        elif i % 7 == 3:
            frontend.submit(session, f"INSERT INTO t (id, a) VALUES ({i - 3}, 0)")
        elif i % 3 == 0:
            frontend.submit(
                session, f"INSERT INTO t (id, a, s) VALUES ({i}, {i % 5}, 'row {i}')"
            )
        else:
            frontend.submit(session, f"SELECT s FROM t WHERE a = {i % 5} AND id < {i}")
    completed = frontend.drain()
    return server, completed


def _as_reference(value):
    """``value`` with every record rebuilt as its dataclass reference."""
    reference = REFERENCES.get(type(value))
    if reference is not None:
        return reference(*(_as_reference(v) for v in value))
    if type(value) in (tuple, list):
        return type(value)(_as_reference(v) for v in value)
    if type(value) is dict:
        return {k: _as_reference(v) for k, v in value.items()}
    return value


class TestArtifactsUnchanged:
    def test_record_artifacts_repr_as_with_dataclasses(self):
        with tempfile.TemporaryDirectory() as tmp:
            server, completed = _frontend_run(tmp)
            try:
                snap = capture(server, AttackScenario.FULL_COMPROMISE, escalated=True)
                artifacts = {name: snap.artifacts[name] for name in RECORD_ARTIFACTS}
            finally:
                server.close()
        assert any(c.error for c in completed)  # the error path ran too
        assert artifacts["binlog_events"] and artifacts["statements_history"]
        hashes = {}
        for name, value in artifacts.items():
            text = repr(value)
            assert text == repr(_as_reference(value)), name
            hashes[name] = hashlib.sha256(text.encode()).hexdigest()
        assert hashes == PINNED_ARTIFACTS


# -- nothing kept per statement ----------------------------------------------------

_PER_STATEMENT = (ClientRequest, CompletedRequest, QueryResult)


def _live(kinds):
    """Every live instance of ``kinds``, by id. The collector never untracks
    an instance of a tuple subclass, so its object list holds them all."""
    return {id(obj): obj for obj in gc.get_objects() if isinstance(obj, kinds)}


def _footprint(frontend):
    """Objects and container lengths reachable from the front end, leaving
    out what belongs to its server (the server and the sessions) and the
    ``scheduler_queue`` telemetry."""
    skip = {id(frontend.server), id(frontend.scheduler.telemetry)}
    skip.update(id(session) for session in frontend._sessions.values())
    seen, stack, objects, lengths = set(), [frontend], 0, 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or id(obj) in skip:
            continue
        if isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        objects += 1
        if isinstance(obj, (list, tuple, dict, set, deque)):
            lengths += len(obj)
        stack.extend(gc.get_referents(obj))
    return objects, lengths


def _run_statements(frontend, sessions, start, count):
    for i in range(start, start + count):
        session = sessions[i % len(sessions)]
        if i % 2:
            frontend.submit(session, f"INSERT INTO t (id, a, s) VALUES ({i}, {i % 9}, 'v{i}')")
        else:
            frontend.submit(session, f"SELECT id, s FROM t WHERE id = {i - 1}")
        if i % 50 == 49:
            frontend.drain()  # the caller drops every completion
        elif i % 50 == 0:
            frontend.dispatch_one()


class TestNoCompletionLog:
    def test_front_end_has_no_completion_log(self):
        assert not hasattr(ServerFrontend, "completed")
        with tempfile.TemporaryDirectory() as tmp:
            server = MySQLServer(ServerConfig(data_dir=tmp))
            frontend = ServerFrontend(server)
            assert not hasattr(frontend, "_completed")
            server.close()

    @pytest.mark.parametrize("policy", list(SchedulingPolicy), ids=lambda p: p.value)
    def test_dropped_completions_leave_nothing_alive(self, policy):
        with tempfile.TemporaryDirectory() as tmp:
            server = MySQLServer(ServerConfig(data_dir=tmp))
            frontend = ServerFrontend(server, policy=policy)
            sessions = [frontend.open_session(f"u{i}") for i in range(4)]
            frontend.submit(sessions[0], "CREATE TABLE t (id INT PRIMARY KEY, a INT, s TEXT)")
            frontend.drain()
            gc.collect()
            before = _live(_PER_STATEMENT)
            _run_statements(frontend, sessions, 0, 200)
            frontend.drain()
            gc.collect()
            footprint = _footprint(frontend)
            arrivals = len(frontend.scheduler.telemetry.arrivals)
            _run_statements(frontend, sessions, 200, 1800)
            frontend.drain()
            gc.collect()
            leaked = {k: v for k, v in _live(_PER_STATEMENT).items() if k not in before}
            assert leaked == {}
            # Only the scheduler_queue telemetry grows with the statement count.
            assert _footprint(frontend) == footprint
            assert len(frontend.scheduler.telemetry.arrivals) == arrivals + 1800
            count = server.execute(server.connect("check"), "SELECT COUNT(*) FROM t")
            assert count.rows == ((1000,),)
            server.close()
