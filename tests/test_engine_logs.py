"""Unit tests for LSN, the redo/undo logs, binlog, and query logs."""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    Binlog,
    GeneralQueryLog,
    QueryLogEntry,
    SlowQueryLog,
)
from repro.errors import LogError
from repro.wal import LogManager, LsnCounter
from repro.wal.records import RedoRecord, UndoRecord


class TestLsn:
    def test_monotone(self):
        lsn = LsnCounter()
        assert lsn.advance(10) == 0
        assert lsn.advance(5) == 10
        assert lsn.current == 15

    def test_negative_start_rejected(self):
        with pytest.raises(LogError):
            LsnCounter(-1)

    def test_zero_advance_rejected(self):
        with pytest.raises(LogError):
            LsnCounter().advance(0)


def make_redo(txn=1, table="t", op="insert", key=1, image=b"row"):
    return RedoRecord(txn_id=txn, table=table, op=op, key=key, after_image=image)


def make_undo(txn=1, table="t", op="insert", key=1, image=b""):
    return UndoRecord(txn_id=txn, table=table, op=op, key=key, before_image=image)


def append(wal, redo):
    """Log ``redo``'s row change with an insert's empty undo body."""
    undo = make_undo(txn=redo.txn_id, table=redo.table, key=redo.key)
    return wal.append_row_change(redo.table, undo.to_bytes(), redo.to_bytes())


class TestRedoLog:
    def test_append_and_read(self, make_wal):
        wal = make_wal()
        record = make_redo()
        lsn = append(wal, record)
        assert lsn == len(make_undo().to_bytes())
        assert wal.redo_log.records() == [record]
        assert wal.undo_log.records() == [make_undo()]

    def test_lsn_reflects_record_size(self, make_wal):
        wal = make_wal()
        first = make_redo()
        append(wal, first)
        second_lsn = append(wal, make_redo(key=2))
        undo_size = len(make_undo().to_bytes())
        assert second_lsn == undo_size + len(first.to_bytes()) + undo_size

    def test_circular_eviction(self, make_wal):
        record = make_redo()
        size = len(record.to_bytes())
        wal = make_wal(redo_capacity=size * 3)
        for key in range(10):
            append(wal, make_redo(key=key))
        log = wal.redo_log
        assert log.num_records == 3
        assert log.total_evicted == 7
        # The retained window is the most recent writes.
        assert [r.key for r in log.records()] == [7, 8, 9]

    def test_oversized_record_rejected(self, make_wal):
        wal = make_wal(redo_capacity=8)
        with pytest.raises(LogError):
            append(wal, make_redo(image=b"x" * 100))
        assert wal.undo_log.num_records == 0

    def test_bad_op_rejected(self):
        with pytest.raises(LogError):
            RedoRecord(txn_id=1, table="t", op="upsert", key=1, after_image=b"")

    def test_serialization_roundtrip(self):
        record = make_redo(txn=7, table="customers", op="update", key=-3, image=b"abc")
        parsed, consumed = RedoRecord.from_bytes(record.to_bytes())
        assert parsed == record
        assert consumed == len(record.to_bytes())

    def test_raw_bytes_framing(self, make_wal):
        wal = make_wal()
        append(wal, make_redo())
        append(wal, make_redo(key=2))
        log = wal.redo_log
        raw = log.raw_bytes()
        # 12 framing bytes (lsn 8 + len 4) per record.
        assert len(raw) == log.used_bytes + 2 * 12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 20), st.integers(50, 400))
    def test_capacity_invariant(self, n_records, capacity):
        capacity = max(capacity, len(make_redo().to_bytes()))
        with tempfile.TemporaryDirectory() as wal_dir:
            wal = LogManager(wal_dir=wal_dir, redo_capacity=capacity)
            for key in range(n_records):
                append(wal, make_redo(key=key))
            assert wal.redo_log.used_bytes <= wal.redo_log.capacity_bytes
            wal.close()


class TestUndoLog:
    def test_before_image_roundtrip(self):
        record = UndoRecord(
            txn_id=2, table="t", op="delete", key=5, before_image=b"old row"
        )
        parsed, _ = UndoRecord.from_bytes(record.to_bytes())
        assert parsed == record

    def test_shares_lsn_with_redo(self, make_wal):
        wal = make_wal()
        redo_lsn = append(wal, make_redo())
        assert redo_lsn > 0  # the undo body consumed LSN space first
        assert wal.undo_log.records_with_lsn()[0][0] == 0


class TestBinlog:
    def test_disabled_by_default(self):
        log = Binlog()
        log.log(100, 1, "INSERT INTO t VALUES (1)", 50)
        assert log.num_events == 0

    def test_records_when_enabled(self):
        log = Binlog(enabled=True)
        log.log(100, 1, "INSERT INTO t (a) VALUES (1)", 50)
        event = log.events[0]
        assert event.timestamp == 100
        assert event.lsn == 50
        assert "INSERT" in event.statement

    def test_timestamps_must_be_monotone(self):
        log = Binlog(enabled=True)
        log.log(100, 1, "a", 1)
        with pytest.raises(LogError):
            log.log(99, 2, "b", 2)

    def test_never_purged_without_command(self):
        log = Binlog(enabled=True)
        for i in range(1000):
            log.log(100 + i, i, f"INSERT {i}", i)
        assert log.num_events == 1000

    def test_purge_before(self):
        log = Binlog(enabled=True)
        for i in range(10):
            log.log(100 + i, i, "stmt", i)
        dropped = log.purge_before(105)
        assert dropped == 5
        assert log.events[0].timestamp == 105

    def test_to_text_mysqlbinlog_format(self):
        log = Binlog(enabled=True)
        log.log(1483228800, 7, "INSERT INTO t (a) VALUES (1)", 42)
        text = log.to_text()
        assert "SET TIMESTAMP=1483228800;" in text
        assert "# at lsn 42" in text
        assert "Xid = 7" in text


class TestQueryLogs:
    def entry(self, duration=0.5, stmt="SELECT * FROM t"):
        return QueryLogEntry(
            timestamp=100,
            session_id=1,
            statement=stmt,
            duration=duration,
            rows_examined=10,
        )

    def test_general_log_disabled_by_default(self):
        log = GeneralQueryLog()
        log.log(self.entry())
        assert log.entries == []

    def test_general_log_records_everything(self):
        log = GeneralQueryLog(enabled=True)
        log.log(self.entry(duration=0.0001))
        assert len(log.entries) == 1
        assert "SELECT" in log.to_text()

    def test_slow_log_threshold(self):
        log = SlowQueryLog(enabled=True, long_query_time=1.0)
        log.log(self.entry(duration=0.5))
        log.log(self.entry(duration=1.5, stmt="SELECT slow FROM t"))
        assert len(log.entries) == 1
        assert "slow" in log.entries[0].statement

    def test_slow_log_text_has_metadata(self):
        log = SlowQueryLog(enabled=True, long_query_time=0.1)
        log.log(self.entry(duration=2.0))
        text = log.to_text()
        assert "Query_time: 2.000000" in text
        assert "Rows_examined: 10" in text

    def test_negative_threshold_rejected(self):
        with pytest.raises(LogError):
            SlowQueryLog(long_query_time=-1)
