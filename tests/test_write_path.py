"""The write path keeps bytes, not objects.

The redo/undo windows hold only the record bytes, log records and rows
encode in one pass, a WAL flush writes each segment once, and an INSERT
resolves its columns once per statement. Each piece is a pure speed-up,
so most tests here are equivalences: the new routine against the code it
replaced, kept here as the slow reference. The rest pin the two INSERT
column-list fixes and the engine's 64-bit key range.
"""

import os
import random
import zlib

import pytest

from repro.engine import StorageEngine
from repro.errors import CatalogError, RecordError, StorageError
from repro.server import MySQLServer, ServerConfig
from repro.server.catalog import TableSchema
from repro.sql.ast import ColumnDef
from repro.storage.record import decode_row, encode_row, encode_value
from repro.util.serialization import encode_bytes, encode_str, encode_uint
from repro.wal import LogManager
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
    """The old ``LogManager.flush``: one write per frame."""
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
        active.handle.write(frame)
        active.size += len(frame)
        mgr._bytes_written += len(frame)
        written += 1
    active = mgr._segments[-1]
    active.handle.flush()
    if mgr.sync:
        os.fsync(active.handle.fileno())
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


class CountingHandle:
    """A file handle that counts ``write`` calls."""

    def __init__(self, handle, counts):
        self._handle = handle
        self._counts = counts

    def write(self, data):
        self._counts.append(len(data))
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)


def counting_manager(path, segment_bytes):
    mgr = LogManager(wal_dir=str(path), segment_bytes=segment_bytes, sync=False)
    writes = []
    mgr._segments[-1].handle = CountingHandle(mgr._segments[-1].handle, writes)
    open_segment = mgr._open_segment

    def _open_segment(name):
        open_segment(name)
        mgr._segments[-1].handle = CountingHandle(mgr._segments[-1].handle, writes)

    mgr._open_segment = _open_segment
    return mgr, writes


def frame_len(record):
    return 17 + len(record.to_bytes())


def stats_without_dir(mgr):
    stats = dict(mgr.stats)
    del stats["wal_dir"]
    return stats


def replay_into_pair(tmp_path, segment_bytes, batches):
    """Append the same batches to two managers; flush one with the new
    ``flush`` and the other with the reference loop."""
    new, writes = counting_manager(tmp_path / "new", segment_bytes)
    old = LogManager(
        wal_dir=str(tmp_path / "old"), segment_bytes=segment_bytes, sync=False
    )
    for batch in batches:
        for record in batch:
            for mgr in (new, old):
                if isinstance(record, RedoRecord):
                    mgr.append_redo(record)
                else:
                    mgr.append_undo(record)
        segments_before = len(new.segment_names())
        writes_before = len(writes)
        assert new.flush() == flush_reference(old)
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
        records = [RedoRecord(1, "t", "insert", k, b"v" * 10) for k in range(6)]
        segment_bytes = 3 * frame_len(records[0])
        new, old, writes = replay_into_pair(tmp_path, segment_bytes, [records])
        assert new.segment_names() == [segment_name(1), segment_name(2)]
        assert [len(v) for v in new.segments().values()] == [segment_bytes] * 2
        assert writes == [segment_bytes, segment_bytes]
        new.close()
        old.close()

    def test_frame_larger_than_a_segment(self, tmp_path):
        records = [
            RedoRecord(1, "t", "insert", 1, b"a" * 10),
            RedoRecord(1, "t", "insert", 2, b"b" * 400),
            UndoRecord(1, "t", "insert", 3, b""),
            RedoRecord(1, "t", "insert", 4, b"c" * 300),
        ]
        new, old, writes = replay_into_pair(tmp_path, 128, [records])
        assert len(new.segment_names()) == 4
        assert len(writes) == 4
        new.close()
        old.close()

    def test_random_batches_with_several_rolls_per_flush(self, tmp_path):
        rng = random.Random(11)
        for trial in range(12):
            segment_bytes = rng.choice([64, 100, 128, 257, 512, 4096])
            batches = [
                [random_record(rng) for _ in range(rng.randrange(0, 30))]
                for _ in range(rng.randrange(1, 6))
            ]
            new, old, _ = replay_into_pair(
                tmp_path / str(trial), segment_bytes, batches
            )
            new.close()
            old.close()

    def test_partly_filled_segment_rolls_before_the_first_frame(self, tmp_path):
        big = RedoRecord(1, "t", "insert", 1, b"z" * 90)
        small = RedoRecord(1, "t", "insert", 2, b"")
        new, old, writes = replay_into_pair(tmp_path, 128, [[small], [big], [big]])
        assert len(new.segment_names()) == 3
        assert len(writes) == 3
        new.close()
        old.close()


# -- retention windows -----------------------------------------------------------


class TestWindowsHoldBytes:
    def _append(self, mgr, rng, n):
        redo, undo = [], []
        for _ in range(n):
            record = random_record(rng)
            if isinstance(record, RedoRecord):
                redo.append((mgr.append_redo(record), record))
            else:
                undo.append((mgr.append_undo(record), record))
        return redo, undo

    def test_records_equal_the_appended_records(self, make_wal):
        mgr = make_wal(sync=False)
        redo, undo = self._append(mgr, random.Random(5), 300)
        assert mgr.redo_stream.records_with_lsn() == redo
        assert mgr.undo_stream.records_with_lsn() == undo
        assert mgr.redo_stream.records() == [r for _, r in redo]
        assert mgr.undo_stream.records() == [r for _, r in undo]

    def test_windows_hold_only_bytes(self, make_wal):
        mgr = make_wal(sync=False)
        self._append(mgr, random.Random(6), 50)
        for stream in (mgr.redo_stream, mgr.undo_stream):
            for entry in stream._entries:
                assert [type(part) for part in entry] == [int, bytes]

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
        lsns = [mgr.append_redo(r) for r in records]
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
