"""Tests for redo/undo reconstruction and binlog correlation forensics."""

import pytest

from repro.clock import SimClock
from repro.errors import ForensicsError
from repro.forensics import (
    fit_lsn_timestamp_model,
    parse_redo_log,
    parse_undo_log,
    read_binlog_text,
    reconstruct_modifications,
    reconstruct_statements,
)
from repro.forensics.binlog_reader import date_modifications
from repro.server import MySQLServer
from repro.snapshot import AttackScenario, capture


@pytest.fixture
def server_with_writes():
    server = MySQLServer()
    session = server.connect("app")
    server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
    server.execute(session, "INSERT INTO t (id, v) VALUES (1, 'alpha'), (2, 'beta')")
    server.execute(session, "UPDATE t SET v = 'gamma' WHERE id = 1")
    server.execute(session, "DELETE FROM t WHERE id = 2")
    return server


class TestLogParsing:
    def test_parse_redo(self, server_with_writes):
        snap = capture(server_with_writes, AttackScenario.DISK_THEFT)
        records = parse_redo_log(snap.get("redo_log_raw"))
        assert len(records) == 4  # 2 inserts, 1 update, 1 delete
        ops = [r.op for _, r in records]
        assert ops == ["insert", "insert", "update", "delete"]

    def test_parse_undo(self, server_with_writes):
        snap = capture(server_with_writes, AttackScenario.DISK_THEFT)
        records = parse_undo_log(snap.get("undo_log_raw"))
        assert len(records) == 4
        # Delete's before-image holds the deleted row bytes.
        delete = [r for _, r in records if r.op == "delete"][0]
        assert delete.before_image != b""

    def test_corrupt_framing_rejected(self):
        with pytest.raises(ForensicsError):
            parse_redo_log(b"\x01\x02\x03")

    def test_truncated_record_rejected(self, server_with_writes):
        snap = capture(server_with_writes, AttackScenario.DISK_THEFT)
        with pytest.raises(ForensicsError):
            parse_redo_log(snap.require("redo_log_raw")[:-3])

    def test_empty_log(self):
        assert parse_redo_log(b"") == []


class TestReconstruction:
    def test_merges_before_and_after_images(self, server_with_writes):
        snap = capture(server_with_writes, AttackScenario.DISK_THEFT)
        events = reconstruct_modifications(
            snap.get("redo_log_raw"), snap.get("undo_log_raw")
        )
        update = [e for e in events if e.op == "update"][0]
        assert update.before == (1, "alpha")
        assert update.after == (1, "gamma")

    def test_delete_recovers_dead_row(self, server_with_writes):
        snap = capture(server_with_writes, AttackScenario.DISK_THEFT)
        events = reconstruct_modifications(
            snap.get("redo_log_raw"), snap.get("undo_log_raw")
        )
        delete = [e for e in events if e.op == "delete"][0]
        assert delete.before == (2, "beta")  # data no longer in the table!

    def test_events_sorted_by_lsn(self, server_with_writes):
        snap = capture(server_with_writes, AttackScenario.DISK_THEFT)
        events = reconstruct_modifications(
            snap.get("redo_log_raw"), snap.get("undo_log_raw")
        )
        lsns = [e.lsn for e in events]
        assert lsns == sorted(lsns)

    def test_redo_only_still_works(self, server_with_writes):
        snap = capture(server_with_writes, AttackScenario.DISK_THEFT)
        events = reconstruct_modifications(snap.get("redo_log_raw"), None)
        assert len(events) == 4
        assert all(e.before is None for e in events)

    def test_undo_only_still_works(self, server_with_writes):
        snap = capture(server_with_writes, AttackScenario.DISK_THEFT)
        events = reconstruct_modifications(None, snap.get("undo_log_raw"))
        assert len(events) == 4
        assert all(e.after is None for e in events)

    def test_pseudo_sql_rendering(self, server_with_writes):
        snap = capture(server_with_writes, AttackScenario.DISK_THEFT)
        events = reconstruct_modifications(
            snap.get("redo_log_raw"), snap.get("undo_log_raw")
        )
        statements = reconstruct_statements(events)
        assert any(
            s.startswith("INSERT INTO t VALUES (1, 'alpha')") for s in statements
        )
        assert any("DELETE FROM t" in s for s in statements)


class TestBinlogCorrelation:
    def make_server(self):
        clock = SimClock(start=1_000_000)
        server = MySQLServer(clock=clock)
        session = server.connect("writer")
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        return server, session, clock

    def test_text_roundtrip(self, server_with_writes):
        events = server_with_writes.engine.binlog.events
        text = server_with_writes.engine.binlog.to_text()
        parsed = read_binlog_text(text)
        assert [(e.timestamp, e.txn_id, e.lsn) for e in parsed] == [
            (e.timestamp, e.txn_id, e.lsn) for e in events
        ]

    def test_model_interpolates(self):
        server, session, clock = self.make_server()
        for i in range(20):
            server.execute(session, f"INSERT INTO t (id, v) VALUES ({i}, {i})")
            clock.advance(60)
        model = fit_lsn_timestamp_model(server.engine.binlog.events)
        events = server.engine.binlog.events
        mid = events[10]
        estimate = model.timestamp_for(mid.lsn)
        assert abs(estimate - mid.timestamp) < 61

    def test_model_extrapolates_before_window(self):
        # Write steadily, then purge the early binlog; the model fitted on
        # the tail must date the purged-era LSNs well.
        server, session, clock = self.make_server()
        truth = []
        for i in range(60):
            result = server.execute(
                session, f"INSERT INTO t (id, v) VALUES ({i}, {i})"
            )
            truth.append((server.engine.lsn.current, clock.timestamp()))
            clock.advance(60)
        events = server.engine.binlog.events
        cutoff = events[30].timestamp
        server.engine.binlog.purge_before(cutoff)
        model = fit_lsn_timestamp_model(server.engine.binlog.events)
        early_lsn, early_time = truth[5]
        estimate = model.timestamp_for(early_lsn)
        # Within a couple of write intervals of the truth.
        assert abs(estimate - early_time) < 180

    def test_model_needs_two_events(self):
        with pytest.raises(ForensicsError):
            fit_lsn_timestamp_model([])

    def test_date_modifications(self):
        server, session, clock = self.make_server()
        for i in range(10):
            server.execute(session, f"INSERT INTO t (id, v) VALUES ({i}, {i})")
            clock.advance(10)
        snap = capture(server, AttackScenario.DISK_THEFT)
        events = reconstruct_modifications(
            snap.get("redo_log_raw"), snap.get("undo_log_raw")
        )
        model = fit_lsn_timestamp_model(snap.get("binlog_events"))
        dated = date_modifications(model, events)
        assert all(e.estimated_timestamp is not None for e in dated)
        # Estimated times increase with LSN.
        times = [e.estimated_timestamp for e in dated]
        assert times == sorted(times)
