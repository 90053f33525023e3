"""The write path keeps bytes, not objects.

The redo/undo windows hold only the record bytes, log records and rows
encode in one pass, a WAL flush writes each segment once, an INSERT
resolves its columns once per statement, and a row change encodes its
undo and redo bodies once and logs both in one append. Each piece is a
pure speed-up, so most tests here are equivalences: the new routine
against the code it replaced, kept here as the slow reference. The rest
pin the two INSERT column-list fixes, the engine's 64-bit key range, and
that a row change the log rejects leaves nothing behind.
"""

import os
import random
import zlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import StorageEngine
from repro.errors import (
    CatalogError,
    LogError,
    RecordError,
    ReproError,
    StorageError,
)
from repro.obs import Instrumentation
from repro.server.sharding import ShardedEngine
from repro.server import MySQLServer, ServerConfig
from repro.server.catalog import TableSchema
from repro.sql.ast import ColumnDef
from repro.storage.record import decode_row, encode_row, encode_value
from repro.util.serialization import encode_bytes, encode_str, encode_uint
from repro.wal import LogManager, log_manager
from repro.wal.log_manager import segment_name
from repro.wal.records import (
    FRAME_HEADER,
    RedoRecord,
    UndoRecord,
    WalRecordType,
    pack_frame,
    parse_frames,
)

U64_MAX = (1 << 64) - 1
I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1

# -- slow references: the code the write path used to run ---------------------


def to_bytes_reference(record):
    """The old five-part ``to_bytes`` of a redo or undo record."""
    image = getattr(record, "after_image", None)
    if image is None:
        image = record.before_image
    return b"".join(
        (
            encode_uint(record.txn_id, 8),
            encode_str(record.table),
            encode_str(record.op),
            encode_uint(record.key & 0xFFFFFFFFFFFFFFFF, 8),
            encode_bytes(image),
        )
    )


def pack_frame_reference(lsn, rtype, body):
    """The old ``pack_frame``: CRC over the concatenated type byte and body."""
    crc = zlib.crc32(bytes([rtype]) + body) & 0xFFFFFFFF
    return FRAME_HEADER.pack(lsn, len(body), crc, rtype) + body


def flush_reference(mgr):
    """The old ``LogManager.flush``: one write per frame, each at the
    log's end in the preallocated segment."""
    mgr._ensure_open()
    if not mgr._pending:
        mgr._flushed_lsn = mgr.lsn.current
        return 0
    written = 0
    for frame in mgr._pending:
        active = mgr._segments[-1]
        if active.size > 0 and active.size + len(frame) > mgr.segment_bytes:
            next_name = segment_name(mgr._next_index())
            mgr._seal_active()
            mgr._open_segment(next_name)
            active = mgr._segments[-1]
        os.pwrite(active.handle.fileno(), frame, active.size)
        active.size += len(frame)
        mgr._bytes_written += len(frame)
        written += 1
    active = mgr._segments[-1]
    if mgr.sync:
        log_manager._datasync(active.handle.fileno())
        mgr._syncs += 1
    mgr._pending.clear()
    mgr._pending_frames = 0
    mgr._flushed_frame_count += written
    mgr._flushes += 1
    mgr._flushed_lsn = mgr.lsn.current
    mgr._obs.count("wal.flushed_frames", n=written)
    return written


def encode_value_reference(value):
    """The old ``encode_value``: one ``bytes`` per part, concatenated."""
    if value is None:
        return bytes([ord("n")])
    if isinstance(value, bool):
        raise RecordError("boolean values are not part of the storage format")
    if isinstance(value, int):
        if not I64_MIN <= value <= I64_MAX:
            raise RecordError(f"integer {value} outside 64-bit signed range")
        return bytes([ord("i")]) + value.to_bytes(8, "little", signed=True)
    if isinstance(value, str):
        body = value.encode("utf-8")
        return bytes([ord("s")]) + encode_uint(len(body)) + body
    if isinstance(value, (bytes, bytearray, memoryview)):
        body = bytes(value)
        return bytes([ord("b")]) + encode_uint(len(body)) + body
    raise RecordError(f"unsupported value type {type(value).__name__}")


def encode_row_reference(row):
    parts = [encode_uint(len(row))]
    parts.extend(encode_value_reference(value) for value in row)
    return b"".join(parts)


def build_row_reference(schema, insert_columns, values):
    """The old ``TableSchema.build_row``."""
    if len(insert_columns) != len(values):
        raise CatalogError(f"{len(insert_columns)} columns but {len(values)} values")
    provided = dict(zip(insert_columns, values))
    unknown = set(provided) - set(schema.column_names)
    if unknown:
        raise CatalogError(
            f"unknown column(s) {sorted(unknown)} in INSERT into {schema.name!r}"
        )
    row = []
    for col in schema.columns:
        value = provided.get(col.name)
        schema.validate_value(col, value)
        row.append(value)
    return tuple(row)


def outcome(fn, *args):
    """``("ok", result)`` or ``(exception type, message)``."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:
        return (type(exc), str(exc))


# -- random inputs ------------------------------------------------------------

TABLE_NAMES = ["t", "users", "naïve_tbl", "表", "", "x" * 70]


def random_record(rng, cls=None):
    cls = cls or rng.choice([RedoRecord, UndoRecord])
    txn_id = rng.choice([0, 1, U64_MAX, U64_MAX - 1, rng.randrange(1 << 64)])
    key = rng.choice(
        [0, -1, I64_MIN, I64_MAX, rng.randrange(I64_MIN, I64_MAX + 1)]
    )
    image = bytes(rng.randrange(256) for _ in range(rng.choice([0, rng.randrange(60)])))
    op = rng.choice(["insert", "update", "delete"])
    return cls(txn_id, rng.choice(TABLE_NAMES), op, key, image)


def random_change(rng):
    """A row change's ``(undo, redo)`` pair over one random txn/table/op/key."""
    redo = random_record(rng, RedoRecord)
    size = rng.choice([0, rng.randrange(60)])
    image = bytes(rng.randrange(256) for _ in range(size))
    return UndoRecord(redo.txn_id, redo.table, redo.op, redo.key, image), redo


def change_pair(op, key, before, after):
    return UndoRecord(1, "t", op, key, before), RedoRecord(1, "t", op, key, after)


def append_change(mgr, undo, redo):
    return mgr.append_row_change(redo.table, undo.to_bytes(), redo.to_bytes())


def random_value(rng):
    kind = rng.randrange(9)
    if kind == 0:
        return None
    if kind == 1:
        return rng.choice([I64_MIN, I64_MAX, 0, -1, rng.randrange(I64_MIN, I64_MAX)])
    if kind == 2:
        return rng.choice([I64_MAX + 1, I64_MIN - 1, 1 << 80, -(1 << 70)])
    if kind == 3:
        return rng.choice([True, False])
    if kind == 4:
        return "".join(rng.choice("aZ9 ïé表\x00") for _ in range(rng.randrange(12)))
    if kind == 5:
        return bytes(rng.randrange(256) for _ in range(rng.randrange(12)))
    if kind == 6:
        return bytearray(b"\x00\xff" * rng.randrange(4))
    if kind == 7:
        return memoryview(b"mv" * rng.randrange(4))
    return rng.choice([3.5, object(), [1]])


# -- records and frames -------------------------------------------------------


class TestRecordEncoding:
    def test_to_bytes_matches_five_part_reference(self):
        rng = random.Random(19)
        for _ in range(2000):
            record = random_record(rng)
            assert record.to_bytes() == to_bytes_reference(record)

    @pytest.mark.parametrize("cls", [RedoRecord, UndoRecord])
    def test_round_trip_is_exact_for_every_engine_key(self, cls):
        rng = random.Random(7)
        for _ in range(500):
            record = random_record(rng, cls)
            decoded, end = cls.from_bytes(record.to_bytes())
            assert decoded == record
            assert end == len(record.to_bytes())

    @pytest.mark.parametrize("txn_id", [-1, -(1 << 70), 1 << 64, (1 << 64) + 5])
    @pytest.mark.parametrize("cls", [RedoRecord, UndoRecord])
    def test_txn_id_range_errors_unchanged(self, cls, txn_id):
        record = cls(txn_id, "t", "insert", 1, b"x")
        new = outcome(record.to_bytes)
        old = outcome(to_bytes_reference, record)
        assert new == old
        assert new[0] is RecordError

    def test_out_of_range_key_masks_as_before(self):
        for key in (1 << 63, 1 << 64, -(1 << 63) - 1, 1 << 90):
            record = RedoRecord(1, "t", "insert", key, b"")
            assert record.to_bytes() == to_bytes_reference(record)

    def test_pack_frame_matches_concatenating_reference(self):
        rng = random.Random(3)
        for _ in range(1000):
            body = bytes(rng.randrange(256) for _ in range(rng.randrange(80)))
            rtype = rng.choice(list(WalRecordType))
            lsn = rng.randrange(1 << 64)
            assert pack_frame(lsn, rtype, body) == pack_frame_reference(lsn, rtype, body)

    def test_parse_frames_still_rejects_a_bad_checksum(self):
        frame = bytearray(pack_frame(9, WalRecordType.REDO, b"body"))
        frame[-1] ^= 1
        frames, error = parse_frames(bytes(frame), strict=False)
        assert frames == [] and "checksum mismatch" in error


# -- group flush ---------------------------------------------------------------


def counting_flush(mgr, writes):
    """``mgr.flush()``, recording the length of every frame write it makes.

    Zero-filling a new segment writes only zeros and a frame never is all
    zeros, so the zero fills are left out of the count.
    """
    pwrite = os.pwrite

    def counting(fd, data, offset):
        if bytes(data).count(0) != len(data):
            writes.append(len(data))
        return pwrite(fd, data, offset)

    with mock.patch.object(os, "pwrite", counting):
        return mgr.flush()


def frame_len(record):
    return 17 + len(record.to_bytes())


def stats_without_dir(mgr):
    stats = dict(mgr.stats)
    del stats["wal_dir"]
    return stats


def replay_into_pair(tmp_path, segment_bytes, batches):
    """Append the same batches to two managers; flush one with the new
    ``flush`` and the other with the reference loop."""
    new = LogManager(
        wal_dir=str(tmp_path / "new"), segment_bytes=segment_bytes, sync=False
    )
    writes = []
    old = LogManager(
        wal_dir=str(tmp_path / "old"), segment_bytes=segment_bytes, sync=False
    )
    for batch in batches:
        for undo, redo in batch:
            for mgr in (new, old):
                append_change(mgr, undo, redo)
        segments_before = len(new.segment_names())
        writes_before = len(writes)
        assert counting_flush(new, writes) == flush_reference(old)
        touched = len(new.segment_names()) - segments_before + 1
        # One write per segment the flush touched (none for the segment a
        # non-fitting first frame rolls away from).
        assert len(writes) - writes_before <= touched
        assert new.segments() == old.segments()
        assert new.segment_names() == old.segment_names()
        assert stats_without_dir(new) == stats_without_dir(old)
    return new, old, writes


class TestGroupFlush:
    def test_frames_ending_exactly_at_segment_bytes(self, tmp_path):
        changes = [change_pair("insert", k, b"u" * 10, b"v" * 10) for k in range(3)]
        segment_bytes = 3 * frame_len(changes[0][1])
        new, old, writes = replay_into_pair(tmp_path, segment_bytes, [changes])
        assert new.segment_names() == [segment_name(1), segment_name(2)]
        assert [len(v) for v in new.segments().values()] == [segment_bytes] * 2
        assert writes == [segment_bytes, segment_bytes]
        new.close()
        old.close()

    def test_frame_larger_than_a_segment(self, tmp_path):
        changes = [
            change_pair("insert", 1, b"", b"a" * 10),
            change_pair("delete", 2, b"b" * 400, b""),
            change_pair("insert", 3, b"", b"c" * 300),
        ]
        new, old, writes = replay_into_pair(tmp_path, 128, [changes])
        assert len(new.segment_names()) == 4
        assert len(writes) == 4
        new.close()
        old.close()

    def test_random_batches_with_several_rolls_per_flush(self, tmp_path):
        rng = random.Random(11)
        for trial in range(12):
            segment_bytes = rng.choice([64, 100, 128, 257, 512, 4096])
            batches = [
                [random_change(rng) for _ in range(rng.randrange(0, 15))]
                for _ in range(rng.randrange(1, 6))
            ]
            new, old, _ = replay_into_pair(
                tmp_path / str(trial), segment_bytes, batches
            )
            new.close()
            old.close()

    def test_partly_filled_segment_rolls_before_the_first_frame(self, tmp_path):
        small = change_pair("insert", 1, b"", b"")
        big = change_pair("update", 2, b"y" * 40, b"z" * 40)
        new, old, writes = replay_into_pair(tmp_path, 128, [[small], [big]])
        assert len(new.segment_names()) == 3
        assert len(writes) == 3
        new.close()
        old.close()


# -- retention windows -----------------------------------------------------------


class TestWindowsHoldBytes:
    def _append(self, mgr, rng, n):
        redo, undo = [], []
        for _ in range(n):
            u, r = random_change(rng)
            lsn = append_change(mgr, u, r)
            undo.append((lsn - len(u.to_bytes()), u))
            redo.append((lsn, r))
        return redo, undo

    def test_records_equal_the_appended_records(self, make_wal):
        mgr = make_wal(sync=False)
        redo, undo = self._append(mgr, random.Random(5), 300)
        assert mgr.redo_stream.records_with_lsn() == redo
        assert mgr.undo_stream.records_with_lsn() == undo
        assert mgr.redo_stream.records() == [r for _, r in redo]
        assert mgr.undo_stream.records() == [r for _, r in undo]

    def test_windows_hold_only_bytes(self, make_wal):
        """A window is one bytearray in the artifact's framing, plus ints."""
        mgr = make_wal(sync=False)
        self._append(mgr, random.Random(6), 50)
        for stream in (mgr.redo_stream, mgr.undo_stream):
            state = [v for k, v in vars(stream).items() if k != "_decode"]
            assert {type(v) for v in state} == {bytearray, int}
            assert [v for v in state if type(v) is bytearray] == [stream._buf]
            assert bytes(stream._buf[stream._start :]) == stream.raw_bytes()

    def test_restart_refills_the_same_records(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        mgr = LogManager(wal_dir=wal_dir, segment_bytes=2048, sync=False)
        redo, undo = self._append(mgr, random.Random(8), 200)
        raw = (mgr.redo_stream.raw_bytes(), mgr.undo_stream.raw_bytes())
        mgr.close()
        resumed = LogManager(wal_dir=wal_dir, segment_bytes=2048, sync=False)
        assert resumed.redo_stream.records_with_lsn() == redo
        assert resumed.undo_stream.records_with_lsn() == undo
        assert (resumed.redo_stream.raw_bytes(), resumed.undo_stream.raw_bytes()) == raw
        resumed.close()

    def test_eviction_keeps_the_newest_records(self, make_wal):
        mgr = make_wal(sync=False, redo_capacity=400)
        records = [RedoRecord(1, "t", "insert", k, b"r" * 20) for k in range(40)]
        lsns = [
            append_change(mgr, UndoRecord(1, "t", "insert", r.key, b""), r)
            for r in records
        ]
        kept = mgr.redo_stream.records_with_lsn()
        assert kept == list(zip(lsns, records))[-len(kept):]
        assert mgr.redo_stream.used_bytes <= 400

    def test_engine_windows_decode_the_engine_records(self):
        engine = StorageEngine(wal_sync=False)
        engine.register_table("t")
        txn = engine.begin()
        engine.insert(txn, "t", -5, encode_row((-5, "a")))
        engine.update(txn, "t", -5, encode_row((-5, "b")))
        engine.delete(txn, "t", -5)
        engine.commit(txn)
        assert engine.redo_log.records() == [
            RedoRecord(txn.txn_id, "t", "insert", -5, encode_row((-5, "a"))),
            RedoRecord(txn.txn_id, "t", "update", -5, encode_row((-5, "b"))),
            RedoRecord(txn.txn_id, "t", "delete", -5, b""),
        ]
        assert [r.before_image for r in engine.undo_log.records()] == [
            b"",
            encode_row((-5, "a")),
            encode_row((-5, "b")),
        ]
        engine.close()


# -- rows --------------------------------------------------------------------------


class TestRowEncoding:
    def test_encode_value_matches_reference(self):
        rng = random.Random(13)
        for _ in range(3000):
            value = random_value(rng)
            assert outcome(encode_value, value) == outcome(encode_value_reference, value)

    def test_encode_row_matches_reference(self):
        rng = random.Random(17)
        for _ in range(1500):
            row = tuple(random_value(rng) for _ in range(rng.randrange(0, 6)))
            new = outcome(encode_row, row)
            assert new == outcome(encode_row_reference, row)
            if new[0] == "ok":
                decoded, _ = decode_row(new[1])
                assert len(decoded) == len(row)

    @pytest.mark.parametrize(
        "value", [I64_MIN, I64_MAX, I64_MIN - 1, I64_MAX + 1, True, False, None]
    )
    def test_integer_edges(self, value):
        assert outcome(encode_value, value) == outcome(encode_value_reference, value)


# -- INSERT row builder -------------------------------------------------------------


def schema_with_pk():
    return TableSchema(
        name="t",
        columns=(
            ColumnDef("id", "INT", primary_key=True),
            ColumnDef("name", "TEXT"),
            ColumnDef("blob", "BLOB"),
            ColumnDef("n", "INT"),
        ),
        primary_key="id",
    )


class TestRowBuilder:
    COLUMN_LISTS = [
        ("id", "name", "blob", "n"),
        ("n", "blob", "name", "id"),
        ("id",),
        ("name", "n"),
        ("id", "nope"),
        ("nope", "zzz", "id"),
    ]

    def test_builder_matches_build_row_reference(self):
        rng = random.Random(23)
        pool = [None, 0, -7, I64_MAX, "s", "ïé", b"\x00", True, 2.5]
        schema = schema_with_pk()
        for columns in self.COLUMN_LISTS:
            build = schema.row_builder(columns)
            for _ in range(300):
                width = len(columns) + rng.choice([0, 0, 0, -1, 1])
                values = tuple(rng.choice(pool) for _ in range(max(width, 0)))
                assert outcome(build, values) == outcome(
                    build_row_reference, schema, columns, values
                ), (columns, values)

    def test_missing_columns_become_null(self):
        build = schema_with_pk().row_builder(("name", "id"))
        assert build(("x", 4)) == (4, "x", None, None)

    def test_error_order_count_then_columns_then_types(self):
        schema = schema_with_pk()
        build = schema.row_builder(("id", "bogus"))
        with pytest.raises(CatalogError, match="2 columns but 1 values"):
            build((None,))
        with pytest.raises(CatalogError, match=r"unknown column\(s\) \['bogus'\]"):
            build((None, "x"))
        build = schema.row_builder(("n", "id", "name"))
        # Schema order: the NULL primary key is reported before n's type.
        with pytest.raises(CatalogError, match="primary key 'id' cannot be NULL"):
            build(("bad", None, 5))
        with pytest.raises(CatalogError, match=r"t\.n expects INT"):
            build(("bad", 1, "ok"))

    def test_empty_column_list_means_every_column(self):
        schema = schema_with_pk()
        assert schema.row_builder(())((1, "a", b"b", 2)) == (1, "a", b"b", 2)
        with pytest.raises(CatalogError, match="4 columns but 2 values"):
            schema.row_builder(())((1, "a"))

    def test_repeated_column_is_rejected(self):
        build = schema_with_pk().row_builder(("id", "n", "n"))
        with pytest.raises(CatalogError, match="3 columns but 2 values"):
            build((1, 2))
        with pytest.raises(CatalogError, match="column 'n' specified twice"):
            build((1, 2, 3))


def wal_types(server):
    server.engine.wal.flush()
    return [frame.rtype for frame in server.engine.wal.records()]


class TestInsertColumnLists:
    def _server(self):
        server = MySQLServer(ServerConfig())
        session = server.connect("app")
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        return server, session

    def test_values_without_a_column_list(self):
        server, session = self._server()
        server.execute(session, "INSERT INTO t VALUES (5, 6)")
        result = server.execute(session, "SELECT id, v FROM t WHERE id = 5")
        assert result.rows == ((5, 6),)
        server.close()

    def test_repeated_column_raises_inside_the_transaction(self):
        server, session = self._server()
        before = wal_types(server)
        with pytest.raises(CatalogError, match="column 'v' specified twice"):
            server.execute(session, "INSERT INTO t (id, v, v) VALUES (1, 2, 3)")
        dup = wal_types(server)[len(before):]
        with pytest.raises(CatalogError, match="unknown column"):
            server.execute(session, "INSERT INTO t (id, w) VALUES (1, 2)")
        unknown = wal_types(server)[len(before) + len(dup):]
        # The same begin/abort frames as the unknown-column error.
        assert dup == unknown == [WalRecordType.TXN_BEGIN, WalRecordType.TXN_ABORT]
        assert server.execute(session, "SELECT COUNT(*) FROM t").rows == ((0,),)
        server.close()

    def test_repeated_column_aborts_an_open_transaction(self):
        server, session = self._server()
        server.execute(session, "BEGIN")
        server.execute(session, "INSERT INTO t (id, v) VALUES (1, 1)")
        with pytest.raises(CatalogError, match="specified twice"):
            server.execute(session, "INSERT INTO t (v, id, v) VALUES (1, 2, 3)")
        assert session.active_txn is None
        assert server.execute(session, "SELECT COUNT(*) FROM t").rows == ((0,),)
        server.close()


# -- 64-bit key range ------------------------------------------------------------


class TestKeyRange:
    @pytest.mark.parametrize("key", [1 << 63, -(1 << 63) - 1, 1 << 64])
    def test_out_of_range_key_rejected_before_any_change(self, key):
        engine = StorageEngine(wal_sync=False)
        engine.register_table("t")
        txn = engine.begin()
        engine.insert(txn, "t", 1, encode_row((1,)))
        frames = engine.wal.stats["appended_frames"]
        undo = engine.undo_log.total_appended
        with pytest.raises(StorageError, match="outside the signed 64-bit range"):
            engine.insert(txn, "t", key, encode_row((0,)))
        assert engine.wal.stats["appended_frames"] == frames
        assert engine.undo_log.total_appended == undo
        assert key not in engine.mvcc._chains.get("t", {})
        assert [c.key for c in txn.changes] == [1]
        engine.commit(txn)
        engine.checkpoint()
        assert engine.scan("t") == [(1, encode_row((1,)))]
        engine.close()

    @pytest.mark.parametrize("key", [I64_MIN, I64_MAX])
    def test_edge_keys_round_trip_through_the_logs(self, key):
        engine = StorageEngine(wal_sync=False)
        engine.register_table("t")
        txn = engine.begin()
        engine.insert(txn, "t", key, encode_row((key,)))
        engine.commit(txn)
        engine.checkpoint()
        assert engine.redo_log.records()[-1].key == key
        assert engine.get("t", key)[0] == encode_row((key,))
        engine.close()


# -- row changes: one encode, one append ---------------------------------------


def _append_record_reference(mgr, record, stream, rtype, detail):
    """The old ``LogManager.append_redo`` / ``append_undo``."""
    mgr._ensure_open()
    raw = record.to_bytes()
    with mgr._obs.span("log.append", table=record.table, detail=detail):
        stream.check_fits(raw)
        lsn = mgr.lsn.advance(len(raw))
        stream.admit(lsn, raw)
        mgr._stage(lsn, rtype, raw)
    mgr._obs.count(f"{detail}.appended_bytes", n=len(raw))
    return lsn


def _log_reference(engine, txn, table, op, key, before, after):
    """The old engine tail: an undo record, then a redo record."""
    wal = engine.wal
    _append_record_reference(
        wal,
        UndoRecord(txn.txn_id, table, op, key, before),
        wal.undo_stream,
        WalRecordType.UNDO,
        "undo",
    )
    txn.note_lsn(
        _append_record_reference(
            wal,
            RedoRecord(txn.txn_id, table, op, key, after),
            wal.redo_stream,
            WalRecordType.REDO,
            "redo",
        )
    )
    engine.mvcc.record_write(txn, table, key, op, before, engine.lsn.current)
    txn.record_change(table, op, key, before, after)


def insert_reference(self, txn, table, key, row):
    """The old ``StorageEngine.insert``: tree first, then record objects."""
    _, tree = self._lookup(table)
    self.mvcc.check_write(txn, table, key)
    with self.obs.span("storage.insert", table=table):
        path = tree.insert(key, row)
    self.obs.count("engine.rows_written", label=table)
    _log_reference(self, txn, table, "insert", key, b"", row)
    return path


def update_reference(self, txn, table, key, row):
    """The old ``StorageEngine.update``."""
    _, tree = self._lookup(table)
    self.mvcc.check_write(txn, table, key)
    with self.obs.span("storage.update", table=table):
        before, path = tree.update(key, row)
    self.obs.count("engine.rows_written", label=table)
    _log_reference(self, txn, table, "update", key, before, row)
    return path


def delete_reference(self, txn, table, key):
    """The old ``StorageEngine.delete``."""
    _, tree = self._lookup(table)
    self.mvcc.check_write(txn, table, key)
    with self.obs.span("storage.delete", table=table):
        before, path = tree.delete(key)
    self.obs.count("engine.rows_written", label=table)
    _log_reference(self, txn, table, "delete", key, before, b"")
    return path


def reference_row_path():
    """Patch the old row-change path into every ``StorageEngine``."""
    return mock.patch.multiple(
        StorageEngine,
        insert=insert_reference,
        update=update_reference,
        delete=delete_reference,
    )


ENGINE_KINDS = {
    "single": lambda obs: StorageEngine(wal_sync=False, instrumentation=obs),
    "sharded": lambda obs: ShardedEngine(
        num_shards=4, wal_sync=False, buffer_pool_capacity=16, instrumentation=obs
    ),
}


def changes_of(txn):
    if hasattr(txn, "branches"):
        return {i: branch.changes for i, branch in sorted(txn.branches.items())}
    return txn.changes


def engine_state(engine):
    """Everything a row change may touch, per shard."""
    state = []
    for shard in engine.shards:
        stats = dict(shard.wal.stats)
        del stats["wal_dir"]
        state.append(
            (
                list(shard.wal._pending),
                stats,
                shard.redo_log.raw_bytes(),
                shard.undo_log.raw_bytes(),
                shard.mvcc_chain_stats(),
                shard.buffer_pool.stats,
                shard.scan("t"),
            )
        )
    return state


_STEPS = st.lists(
    st.tuples(
        st.integers(0, 1),  # session
        st.sampled_from(["insert", "update", "delete", "commit", "rollback"]),
        st.integers(-3, 12),  # key
        st.integers(0, 300),  # row width
    ),
    max_size=40,
)


def run_steps(kind, steps, built):
    """Run ``steps``; return every observable outcome and the final state.

    ``built`` collects the redo/undo record objects constructed while a
    forward row change (insert, update, delete) runs.
    """
    obs = Instrumentation(enabled=True)
    engine = ENGINE_KINDS[kind](obs)
    engine.register_table("t")
    txns = [None, None]
    trail = []
    for session, action, key, width in steps:
        txn = txns[session]
        if action in ("commit", "rollback"):
            if txn is not None:
                getattr(engine, action)(txn)
                txns[session] = None
            continue
        if txn is None:
            txn = txns[session] = engine.begin()
        row = encode_row((key, "v" * width))
        args = (txn, "t", key) if action == "delete" else (txn, "t", key, row)
        made = len(built)
        try:
            getattr(engine, action)(*args)
            result = "ok"
        except ReproError as exc:
            result = type(exc).__name__
        assert len(built) == made, "a forward row change built a record"
        trail.append((result, changes_of(txn), engine_state(engine)))
    for txn in txns:
        if txn is not None:
            engine.commit(txn)
    engine.checkpoint()
    final = (
        engine_state(engine),
        [shard.tablespace_images() for shard in engine.shards],
        [shard.wal_segments() for shard in engine.shards],
        obs.metrics_dump(),
        obs.trace_raw(),
    )
    engine.close()
    return trail, final


class TestRowPathEquivalence:
    @pytest.mark.parametrize("kind", sorted(ENGINE_KINDS))
    @settings(deadline=None)
    @given(steps=_STEPS)
    def test_one_append_leaves_what_two_records_did(self, kind, steps):
        built = []

        def counting(cls):
            original = cls.__post_init__

            def post_init(self):
                built.append(type(self).__name__)
                original(self)

            return mock.patch.object(cls, "__post_init__", post_init)

        with counting(RedoRecord), counting(UndoRecord):
            new = run_steps(kind, steps, built)
        with reference_row_path():
            old = run_steps(kind, steps, [])
        assert new == old


# -- a row change the log rejects --------------------------------------------------


def rejecting_engine(kind, **capacities):
    if kind == "sharded":
        engine = ShardedEngine(num_shards=4, wal_sync=False, **capacities)
    else:
        engine = StorageEngine(wal_sync=False, **capacities)
    engine.register_table("t")
    return engine


def wide(key):
    return encode_row((key, "x" * 300))


def neighbour(engine, key):
    """Another key on ``key``'s shard, so one transaction branch holds both."""
    if not isinstance(engine, ShardedEngine):
        return key + 1000
    shard = engine.router.shard_of(key)
    return next(k for k in range(1000, 2000) if engine.router.shard_of(k) == shard)


@pytest.mark.parametrize("kind", ["single", "sharded"])
class TestRejectedRowChange:
    """The log checks both bodies before the tree changes; UPDATE and
    DELETE, whose before-image comes out of the tree, put it back."""

    def _state(self, engine, txn):
        # Pool stats left out: putting a before-image back is one more
        # descent through the pool.
        return [s[:5] + s[6:] for s in engine_state(engine)], changes_of(txn)

    def _assert_rejected(self, engine, txn, call):
        before = self._state(engine, txn)
        with pytest.raises(LogError, match="exceeds log capacity"):
            call()
        assert self._state(engine, txn) == before

    def test_insert_too_big_for_redo(self, kind):
        engine = rejecting_engine(kind, redo_capacity=200)
        txn = engine.begin()
        engine.insert(txn, "t", neighbour(engine, 2), encode_row((1, "a")))
        self._assert_rejected(
            engine, txn, lambda: engine.insert(txn, "t", 2, wide(2))
        )
        engine.rollback(txn)
        assert engine.get("t", 2)[0] is None
        engine.close()

    def test_update_too_big_for_redo(self, kind):
        engine = rejecting_engine(kind, redo_capacity=200)
        txn = engine.begin()
        engine.insert(txn, "t", 1, encode_row((1, "a")))
        self._assert_rejected(
            engine, txn, lambda: engine.update(txn, "t", 1, wide(1))
        )
        engine.commit(txn)
        assert engine.get("t", 1)[0] == encode_row((1, "a"))
        engine.close()

    @pytest.mark.parametrize("op", ["update", "delete"])
    def test_before_image_too_big_for_undo(self, kind, op):
        engine = rejecting_engine(kind, undo_capacity=200)
        setup = engine.begin()
        for key in range(1, 6):
            engine.insert(setup, "t", key, wide(key))
        engine.commit(setup)
        txn = engine.begin()
        engine.insert(txn, "t", neighbour(engine, 3), encode_row((9, "b")))
        if op == "update":
            call = lambda: engine.update(txn, "t", 3, encode_row((3, "c")))  # noqa: E731
        else:
            call = lambda: engine.delete(txn, "t", 3)  # noqa: E731
        self._assert_rejected(engine, txn, call)
        engine.commit(txn)
        assert engine.get("t", 3)[0] == wide(3)
        engine.close()


def test_rejection_on_an_untouched_shard_leaves_only_the_branch_begin():
    # A sharded transaction opens a shard's branch (its TXN_BEGIN frame)
    # before that shard's engine sees the change, so a change rejected on
    # a fresh shard leaves the branch open and nothing else.
    engine = rejecting_engine("sharded", redo_capacity=200)
    shard = engine.router.shard_of(2)
    txn = engine.begin()
    before = engine_state(engine)
    with pytest.raises(LogError):
        engine.insert(txn, "t", 2, wide(2))
    after = engine_state(engine)
    begin = after[shard][0][-1]
    assert parse_frames(begin)[0][0].rtype is WalRecordType.TXN_BEGIN
    after[shard][0].pop()
    assert [s[2:] for s in after] == [s[2:] for s in before]
    assert [s[0] for s in after] == [s[0] for s in before]
    assert changes_of(txn) == {shard: []}
    engine.rollback(txn)
    engine.close()


@pytest.mark.parametrize("num_shards", [1, 4])
class TestRejectedStatement:
    def _server(self, num_shards, **capacities):
        server = MySQLServer(ServerConfig(num_shards=num_shards, **capacities))
        writer, reader = server.connect("writer"), server.connect("reader")
        server.execute(writer, "CREATE TABLE t (id INT PRIMARY KEY, s TEXT)")
        return server, writer, reader

    def _logged_keys(self, server):
        keys = []
        for shard in server.engine.shards:
            shard.wal.flush()
            keys += [
                frame.decode().key
                for frame in shard.wal.records()
                if frame.rtype is WalRecordType.REDO
            ]
        return sorted(keys)

    def test_rejected_insert_is_not_visible(self, num_shards):
        server, writer, reader = self._server(num_shards, redo_capacity=200)
        server.execute(writer, "BEGIN")
        server.execute(writer, "INSERT INTO t (id, s) VALUES (1, 'a')")
        with pytest.raises(LogError):
            server.execute(
                writer, "INSERT INTO t (id, s) VALUES (2, '" + "x" * 300 + "')"
            )
        assert writer.active_txn is None
        assert server.execute(reader, "SELECT id FROM t").rows == ()
        assert self._logged_keys(server) == [1]
        for shard in server.engine.shards:
            assert [e for e in shard.binlog.events if "INSERT" in e.statement] == []
        server.close()

    def test_rejected_update_keeps_the_old_value(self, num_shards):
        server, writer, reader = self._server(num_shards, redo_capacity=200)
        server.execute(writer, "INSERT INTO t (id, s) VALUES (1, 'a')")
        with pytest.raises(LogError):
            server.execute(
                writer, "UPDATE t SET s = '" + "x" * 300 + "' WHERE id = 1"
            )
        result = server.execute(reader, "SELECT s FROM t WHERE id = 1")
        assert result.rows == (("a",),)
        server.close()

    def test_rejected_delete_keeps_the_row(self, num_shards):
        server, writer, reader = self._server(num_shards, undo_capacity=200)
        server.execute(
            writer, "INSERT INTO t (id, s) VALUES (1, '" + "x" * 300 + "')"
        )
        with pytest.raises(LogError):
            server.execute(writer, "DELETE FROM t WHERE id = 1")
        assert server.execute(reader, "SELECT id FROM t").rows == ((1,),)
        server.close()
