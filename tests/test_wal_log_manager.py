"""Unit tests for the unified WAL: frame codec, LogManager, retention windows."""

import pytest

from repro.errors import LogError, WalError
from repro.forensics.redo_undo import parse_redo_log, parse_undo_log
from repro.wal import LogManager, LsnCounter
from repro.wal.log_manager import segment_name
from repro.wal.records import (
    FRAME_HEADER,
    CheckpointBody,
    RedoRecord,
    UndoRecord,
    WalRecordType,
    pack_frame,
    parse_frames,
)


def redo(txn=1, table="t", op="insert", key=1, image=b"row"):
    return RedoRecord(txn, table, op, key, image)


def undo(txn=1, table="t", op="update", key=1, image=b"old"):
    return UndoRecord(txn, table, op, key, image)


def append(mgr, key=1, before=b"old", after=b"row"):
    """Append one update of ``key``; returns ``(redo LSN, undo, redo)``."""
    u, r = undo(key=key, image=before), redo(op="update", key=key, image=after)
    return mgr.append_row_change("t", u.to_bytes(), r.to_bytes()), u, r


class TestFrameCodec:
    def test_roundtrip_all_types(self):
        body = redo().to_bytes()
        data = b"".join(
            (
                pack_frame(10, WalRecordType.REDO, body),
                pack_frame(10 + len(body), WalRecordType.TXN_COMMIT, b"\x01" * 8),
            )
        )
        frames, error = parse_frames(data)
        assert error is None
        assert [f.rtype for f in frames] == [
            WalRecordType.REDO,
            WalRecordType.TXN_COMMIT,
        ]
        assert frames[0].decode() == redo()
        assert frames[0].lsn == 10
        assert frames[0].lsn_advance == len(body)
        assert frames[1].lsn_advance == 0

    def test_crc_mismatch_strict_raises(self):
        data = bytearray(pack_frame(0, WalRecordType.REDO, redo().to_bytes()))
        data[-1] ^= 0xFF
        with pytest.raises(WalError, match="checksum mismatch"):
            parse_frames(bytes(data))

    def test_torn_tail_tolerant_stops(self):
        good = pack_frame(0, WalRecordType.REDO, redo().to_bytes())
        torn = good + pack_frame(50, WalRecordType.UNDO, undo().to_bytes())[:-3]
        frames, error = parse_frames(torn, strict=False)
        assert len(frames) == 1
        assert "truncated frame body" in error

    def test_truncated_header_tolerant(self):
        good = pack_frame(0, WalRecordType.TXN_BEGIN, b"\x00" * 8)
        frames, error = parse_frames(good + b"\x01\x02", strict=False)
        assert len(frames) == 1
        assert "truncated frame header" in error

    def test_unknown_type_rejected(self):
        bad = pack_frame(0, WalRecordType.REDO, b"")
        # Patch the type byte (last header byte) to an unknown value and
        # re-checksum so only the type is wrong.
        import struct
        import zlib

        crc = zlib.crc32(bytes([99])) & 0xFFFFFFFF
        bad = struct.pack("<QIIB", 0, 0, crc, 99)
        with pytest.raises(WalError, match="unknown record type"):
            parse_frames(bad)

    def test_checkpoint_body_roundtrip(self):
        body = CheckpointBody(1234, (("t", 3, 700), ("u", 1, 650)), (5, 9))
        decoded, _ = CheckpointBody.from_bytes(body.to_bytes())
        assert decoded == body

    def test_negative_key_roundtrip(self):
        record = redo(key=-42)
        decoded, _ = RedoRecord.from_bytes(record.to_bytes())
        assert decoded.key == -42


class TestLogWindow:
    def test_capacity_validated(self, make_wal):
        with pytest.raises(LogError):
            make_wal(redo_capacity=0)

    def test_check_fits_rejects_oversize(self, make_wal):
        window = make_wal(redo_capacity=16).redo_log
        window.check_fits(b"x" * 16)
        with pytest.raises(LogError, match="exceeds log capacity"):
            window.check_fits(b"x" * 17)

    def test_eviction_oldest_first(self, make_wal):
        size = len(redo(image=b"aaaa").to_bytes())
        mgr = make_wal(redo_capacity=2 * size + size // 2)
        appended = [append(mgr, key=k, after=bytes([k]) * 4) for k in range(3)]
        # 3 bodies do not fit -> the oldest is out of the window.
        window = mgr.redo_log
        assert window.records() == [r for _, _, r in appended[1:]]
        assert window.records_with_lsn() == [(lsn, r) for lsn, _, r in appended[1:]]
        assert window.total_appended == 3
        assert window.total_evicted == 1
        assert window.used_bytes == 2 * size


class TestLogManagerAppend:
    def test_redo_undo_advance_by_length(self, make_wal):
        mgr = make_wal()
        lsn_r, u, r = append(mgr)
        assert mgr.undo_log.records_with_lsn() == [(0, u)]
        assert lsn_r == len(u.to_bytes())
        assert mgr.redo_log.records_with_lsn() == [(lsn_r, r)]
        assert mgr.lsn.current == len(u.to_bytes()) + len(r.to_bytes())

    def test_rejected_change_appends_neither_body(self, make_wal):
        mgr = make_wal(undo_capacity=40)
        u, r = undo(image=b"x" * 40), redo()
        with pytest.raises(LogError, match="exceeds log capacity"):
            mgr.append_row_change("t", u.to_bytes(), r.to_bytes())
        with pytest.raises(LogError, match="exceeds log capacity"):
            mgr.check_row_change(u.to_bytes(), r.to_bytes())
        assert mgr.lsn.current == 0
        assert mgr.redo_log.num_records == mgr.undo_log.num_records == 0
        assert mgr.stats["appended_frames"] == 0

    def test_retained_single_record_appends_match(self, make_wal):
        # append_redo/append_undo stay only for the benchmark's tracer;
        # one of each leaves what one append_row_change does.
        one, two = make_wal(), make_wal()
        _, u, r = append(one, key=3)
        two.append_undo(u)
        two.append_redo(r)
        assert one.redo_log.raw_bytes() == two.redo_log.raw_bytes()
        assert one.undo_log.raw_bytes() == two.undo_log.raw_bytes()
        assert one._pending == two._pending

    def test_control_records_advance_zero(self, make_wal):
        mgr = make_wal()
        append(mgr)
        before = mgr.lsn.current
        assert mgr.append_begin(7) == before
        assert mgr.append_commit(7) == before
        assert mgr.append_abort(8) == before
        assert mgr.append_clr(redo(op="delete", image=b"")) == before
        assert mgr.append_checkpoint((), ()) == before
        assert mgr.append_table_register("t") == before
        assert mgr.lsn.current == before

    def test_control_records_not_in_retention_streams(self, make_wal):
        mgr = make_wal()
        append(mgr)
        mgr.append_clr(redo(op="delete", image=b""))
        mgr.append_commit(1)
        assert mgr.redo_log.num_records == 1
        assert mgr.undo_log.num_records == 1

    def test_replaying_suppresses_appends(self, make_wal):
        mgr = make_wal()
        with mgr.replaying():
            append(mgr)
            mgr.append_commit(1)
        assert mgr.lsn.current == 0
        mgr.flush()
        assert mgr.records() == []

    def test_closed_manager_rejects_appends(self, make_wal):
        mgr = make_wal()
        mgr.close()
        with pytest.raises(WalError, match="closed"):
            append(mgr)
        with pytest.raises(WalError, match="closed"):
            mgr.check_row_change(b"", b"")

    def test_bad_segment_bytes_rejected(self, make_wal):
        with pytest.raises(WalError, match="segment size"):
            make_wal(segment_bytes=0)

    def test_shared_lsn_counter(self, make_wal):
        # ``mgr.lsn`` is the one counter every append draws from (the
        # engine shares it as ``engine.lsn``).
        mgr = make_wal()
        assert isinstance(mgr.lsn, LsnCounter)
        mgr.lsn.advance(500)
        lsn, u, r = append(mgr)
        assert lsn == 500 + len(u.to_bytes())
        assert mgr.lsn.current == lsn + len(r.to_bytes())


class TestGroupFlush:
    def test_segments_exclude_pending(self, make_wal):
        mgr = make_wal()
        append(mgr)
        assert mgr.segments() == {segment_name(1): b""}
        assert mgr.flush() == 2
        frames, error = parse_frames(mgr.segments()[segment_name(1)])
        assert error is None
        assert [f.rtype for f in frames] == [WalRecordType.UNDO, WalRecordType.REDO]

    def test_flushed_lsn_tracks_flush(self, make_wal):
        mgr = make_wal()
        append(mgr)
        assert mgr.flushed_lsn == 0
        mgr.flush()
        assert mgr.flushed_lsn == mgr.lsn.current

    def test_flush_to_is_noop_when_covered(self, make_wal):
        mgr = make_wal()
        append(mgr)
        mgr.flush()
        flushes_before = mgr.stats["flushes"]
        mgr.flush_to(mgr.flushed_lsn)  # already durable
        assert mgr.stats["flushes"] == flushes_before

    def test_flush_to_forces_pending(self, make_wal):
        mgr = make_wal()
        append(mgr)
        mgr.flush_to(mgr.lsn.current)
        assert mgr.stats["pending_frames"] == 0
        assert mgr.flushed_lsn == mgr.lsn.current

    def test_empty_flush_returns_zero(self, make_wal):
        mgr = make_wal()
        assert mgr.flush() == 0

    def test_crash_discards_pending(self, make_wal):
        mgr = make_wal()
        append(mgr)
        mgr.flush()
        append(mgr, key=2)
        mgr.crash()
        assert mgr.closed
        frames, _ = parse_frames(mgr.segments()[segment_name(1)])
        assert len(frames) == 2  # the unflushed second change is gone


class TestSegments:
    def test_rollover_at_segment_bytes(self, make_wal):
        mgr = make_wal(segment_bytes=128, sync=False)
        for i in range(10):
            append(mgr, key=i)
            mgr.flush()
        assert len(mgr.segment_names()) > 1
        assert mgr.segment_names() == sorted(mgr.segment_names())
        # Every segment except possibly the last stays under the roll size
        # plus one frame (a frame is never split across segments).
        all_frames = mgr.records()
        assert len(all_frames) == 20
        assert [f.decode().key for f in all_frames] == [
            i for i in range(10) for _ in range(2)
        ]

    def test_rolled_segments_fsynced_before_seal(self, tmp_path):
        # A flush that rolls segments must fsync each sealed segment, not
        # only the final active one — otherwise "committed == durable"
        # fails across a roll boundary on power loss.
        mgr = LogManager(wal_dir=str(tmp_path), segment_bytes=64, sync=True)
        for i in range(4):
            append(mgr, key=i)
        mgr.flush()  # one batch spanning several segments
        n_segments = len(mgr.segment_names())
        assert n_segments > 1
        # One fsync per sealed segment plus one for the final active one.
        assert mgr.stats["syncs"] == n_segments
        mgr.close()

    def test_disk_mode_retains_all_segments(self, tmp_path):
        mgr = LogManager(wal_dir=str(tmp_path), segment_bytes=64, sync=False)
        for i in range(6):
            append(mgr, key=i)
            mgr.flush()
        segs = mgr.segments()
        assert len(segs) > 2
        assert all(data for data in segs.values())
        mgr.close()

    def test_checksum_changes_with_content(self, make_wal):
        mgr = make_wal()
        empty = mgr.checksum()
        append(mgr)
        mgr.flush()
        assert mgr.checksum() != empty


class TestResume:
    def test_resume_restores_lsn_and_streams(self, tmp_path):
        mgr = LogManager(wal_dir=str(tmp_path), sync=False)
        for i in range(5):
            append(mgr, key=i)
        mgr.append_commit(1)
        mgr.flush()
        end_lsn = mgr.lsn.current
        mgr.close()

        resumed = LogManager(wal_dir=str(tmp_path), sync=False)
        assert resumed.lsn.current == end_lsn
        assert resumed.resumed_frames == 11
        assert resumed.redo_log.num_records == 5
        assert resumed.undo_log.num_records == 5
        assert resumed.truncated_tail is None
        # Appends continue the log rather than restarting it.
        append(resumed, key=99)
        resumed.flush()
        keys = [
            f.decode().key
            for f in resumed.records()
            if f.rtype is WalRecordType.REDO
        ]
        assert keys == [0, 1, 2, 3, 4, 99]
        resumed.close()

    def test_resume_truncates_torn_tail(self, tmp_path):
        mgr = LogManager(wal_dir=str(tmp_path), sync=False)
        append(mgr, key=1)
        mgr.flush()
        good_size = len(mgr.segments()[segment_name(1)])
        mgr.close()
        path = tmp_path / segment_name(1)
        with open(path, "r+b") as fh:
            fh.seek(good_size)
            fh.write(b"\xde\xad\xbe\xef")  # torn partial frame at the log's end

        resumed = LogManager(wal_dir=str(tmp_path), sync=False)
        assert resumed.truncated_tail is not None
        assert len(resumed.segments()[segment_name(1)]) == good_size
        # The torn bytes are zeroed again; the file keeps its full size.
        tail = path.read_bytes()[good_size:]
        assert tail == bytes(resumed.segment_bytes - good_size)
        assert resumed.resumed_frames == 2
        resumed.close()

    def test_corrupt_interior_segment_rejected(self, tmp_path):
        mgr = LogManager(wal_dir=str(tmp_path), segment_bytes=64, sync=False)
        for i in range(4):
            append(mgr, key=i)
            mgr.flush()
        assert len(mgr.segment_names()) >= 3
        first = tmp_path / mgr.segment_names()[0]
        mgr.close()
        data = bytearray(first.read_bytes())
        data[FRAME_HEADER.size] ^= 0xFF  # flip a body byte -> CRC fails
        first.write_bytes(bytes(data))
        with pytest.raises(WalError, match="corrupt interior"):
            LogManager(wal_dir=str(tmp_path), sync=False)

    def test_resume_rolls_into_new_segment(self, tmp_path):
        mgr = LogManager(wal_dir=str(tmp_path), segment_bytes=64, sync=False)
        for i in range(4):
            append(mgr, key=i)
            mgr.flush()
        names_before = mgr.segment_names()
        mgr.close()
        resumed = LogManager(wal_dir=str(tmp_path), segment_bytes=64, sync=False)
        for i in range(4, 8):
            append(resumed, key=i)
            resumed.flush()
        assert len(resumed.segment_names()) > len(names_before)
        keys = [
            f.decode().key
            for f in resumed.records()
            if f.rtype is WalRecordType.REDO
        ]
        assert keys == list(range(8))
        resumed.close()


class TestFacadeByteIdentity:
    """The engine's redo/undo logs are the manager's retention windows."""

    def test_raw_bytes_framing_matches_forensic_parser(self, make_wal):
        mgr = make_wal()
        appended = [append(mgr, key=i, after=bytes([i])) for i in range(3)]
        parsed = parse_redo_log(mgr.redo_log.raw_bytes())
        assert parsed == [(lsn, r) for lsn, _, r in appended]

    def test_undo_raw_bytes_parse(self, make_wal):
        mgr = make_wal()
        appended = [append(mgr, key=i) for i in range(3)]
        parsed = parse_undo_log(mgr.undo_log.raw_bytes())
        assert parsed == [
            (lsn - len(u.to_bytes()), u) for lsn, u, _ in appended
        ]

    def test_engine_facades_share_manager_lsn(self):
        from repro.engine import StorageEngine

        engine = StorageEngine()
        assert engine.redo_log._wal is engine.undo_log._wal is engine.wal
        assert engine.lsn is engine.wal.lsn
        engine.register_table("t")
        txn = engine.begin()
        engine.insert(txn, "t", 1, b"v")
        engine.commit(txn)
        # The same append is visible in the window and the WAL frames.
        assert engine.redo_log.num_records == 1
        redo_frames = [
            f for f in engine.wal.records() if f.rtype is WalRecordType.REDO
        ]
        assert len(redo_frames) == 1
        assert redo_frames[0].decode().key == 1


class TestCombinedShardedWal:
    def test_shard_qualified_segments(self):
        from repro.server.sharding import WAL_SEGMENT_NAME, ShardedEngine, qualify

        engine = ShardedEngine(num_shards=2)
        engine.register_table("t")
        txn = engine.begin()
        engine.insert(txn, "t", 1, b"v")
        engine.commit(txn)
        segs = qualify(
            [shard.wal_segments() for shard in engine.shards], WAL_SEGMENT_NAME
        )
        assert all("/" in name for name in segs)
        prefixes = {name.split("/", 1)[0] for name in segs}
        assert prefixes == {"shard0", "shard1"}
        for i, shard in enumerate(engine.shards):
            for name, data in shard.wal_segments().items():
                assert segs[f"shard{i}/{name}"] == data
