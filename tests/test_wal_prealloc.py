"""WAL segments are preallocated, fixed-size files.

Each segment is created as ``segment_bytes`` of zeros and the log fills it
from the front; the log ends at the first all-zero frame header. These
tests pin what that must not change — the ``wal_segments`` artifact is
byte for byte the log the growing files used to hold — and what it adds:
a clean zero tail is no torn tail, resume zeroes everything past the end
of the log, and the directory entry of a new segment is durable before a
commit in it is acknowledged.
"""

import gc
import os
import stat
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import StorageEngine
from repro.errors import RecoveryError, WalError
from repro.forensics import parse_wal_segments
from repro.wal import LogManager, log_manager
from repro.wal.log_manager import segment_name
from repro.wal.records import (
    FRAME_HEADER,
    RedoRecord,
    UndoRecord,
    WalRecordType,
    pack_frame,
    parse_frames,
    txn_body,
)
from repro.wal.recovery import recover_engine

ENGINE_KWARGS = dict(buffer_pool_capacity=8, wal_segment_bytes=512, wal_sync=False)


class ReferenceLog:
    """The log as growing segment files held it: each file is exactly the
    frames flushed into it. A flush rolls at the frame boundary where the
    next frame would overflow a non-empty segment."""

    def __init__(self, segment_bytes):
        self.segment_bytes = segment_bytes
        self.lsn = 0
        self.pending = []
        self.files = [bytearray()]

    def row_change(self, undo, redo):
        self.pending.append(pack_frame(self.lsn, WalRecordType.UNDO, undo))
        self.lsn += len(undo)
        self.pending.append(pack_frame(self.lsn, WalRecordType.REDO, redo))
        self.lsn += len(redo)

    def commit(self, txn_id):
        self.pending.append(pack_frame(self.lsn, WalRecordType.TXN_COMMIT, txn_body(txn_id)))

    def flush(self):
        for frame in self.pending:
            if self.files[-1] and len(self.files[-1]) + len(frame) > self.segment_bytes:
                self.files.append(bytearray())
            self.files[-1] += frame
        self.pending.clear()

    def segments(self):
        return {segment_name(i + 1): bytes(f) for i, f in enumerate(self.files)}


def raw_files(wal_dir):
    out = {}
    for name in sorted(os.listdir(wal_dir)):
        with open(os.path.join(wal_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def log_end(data):
    frames, _ = parse_frames(data, strict=False)
    last = frames[-1]
    return last.offset + FRAME_HEADER.size + len(last.body)


def assert_files_match_artifact(mgr):
    """Every file is its artifact bytes, then zeros up to ``segment_bytes``;
    only a file holding one oversized frame is longer, and has no zeros."""
    segments = mgr.segments()
    files = raw_files(mgr.wal_dir)
    assert sorted(files) == sorted(segments)
    for name, data in files.items():
        log = segments[name]
        assert data[: len(log)] == log
        if len(log) > mgr.segment_bytes:
            assert len(parse_frames(log)[0]) == 1
            assert data == log
        else:
            assert len(data) == mgr.segment_bytes
            assert data[len(log):] == bytes(mgr.segment_bytes - len(log))


changes = st.tuples(
    st.just("change"), st.binary(min_size=1, max_size=90),
    st.binary(min_size=1, max_size=90),
)
commits = st.tuples(st.just("commit"), st.integers(0, (1 << 64) - 1))
flushes = st.just(("flush",))


class TestFixedSizeFiles:
    def test_every_file_is_segment_bytes_but_an_oversized_frame(self, tmp_path):
        mgr = LogManager(wal_dir=str(tmp_path), segment_bytes=128, sync=False)
        for body in (b"a" * 10, b"b" * 400, b"c" * 30, b"d" * 30, b"e" * 5):
            mgr.append_row_change("t", b"u", body)
            mgr.flush()
        sizes = [os.path.getsize(tmp_path / name) for name in mgr.segment_names()]
        oversized = [s for s in sizes if s != 128]
        assert len(sizes) > 3
        assert oversized == [FRAME_HEADER.size + 400]  # one frame, no zero tail
        assert_files_match_artifact(mgr)
        mgr.close()

    @settings(deadline=None, max_examples=60)
    @given(
        segment_bytes=st.sampled_from([64, 100, 257, 1024]),
        stream=st.lists(st.one_of(changes, commits, flushes), max_size=40),
    )
    def test_artifact_equals_the_growing_files(self, segment_bytes, stream):
        with tempfile.TemporaryDirectory() as wal_dir:
            mgr = LogManager(wal_dir=wal_dir, segment_bytes=segment_bytes, sync=False)
            ref = ReferenceLog(segment_bytes)
            for op in stream + [("flush",)]:
                if op[0] == "change":
                    mgr.append_row_change("t", op[1], op[2])
                    ref.row_change(op[1], op[2])
                elif op[0] == "commit":
                    mgr.append_commit(op[1])
                    ref.commit(op[1])
                else:
                    mgr.flush()
                    ref.flush()
                    assert mgr.segments() == ref.segments()
            assert_files_match_artifact(mgr)
            mgr.close()


    def test_a_dropped_manager_closes_its_files(self, tmp_path):
        mgr = LogManager(wal_dir=str(tmp_path), segment_bytes=64, sync=False)
        for key in range(3):
            mgr.append_row_change("t", b"u" * 20, b"r" * 20)
            mgr.flush()
        fd = mgr._segments[-1].handle.fileno()
        os.fstat(fd)
        del mgr
        gc.collect()
        with pytest.raises(OSError):
            os.fstat(fd)


class TestEndOfLog:
    def _crashed(self, tmp_path):
        data_dir = str(tmp_path / "data")
        engine = StorageEngine(data_dir=data_dir, **ENGINE_KWARGS)
        engine.register_table("a")
        for key in range(12):
            txn = engine.begin()
            engine.insert(txn, "a", key, f"v{key}".encode())
            engine.commit(txn)
        engine.simulate_crash()
        wal_dir = os.path.join(data_dir, "wal")
        return data_dir, os.path.join(wal_dir, sorted(os.listdir(wal_dir))[-1])

    def test_clean_zero_tail_is_no_torn_tail(self, tmp_path):
        data_dir, last = self._crashed(tmp_path)
        assert os.path.getsize(last) == ENGINE_KWARGS["wal_segment_bytes"]
        recovered = recover_engine(data_dir, **ENGINE_KWARGS)
        assert recovered.last_recovery_report.truncated_tail is None
        assert recovered.wal.truncated_tail is None
        assert recovered.scan("a") == [(k, f"v{k}".encode()) for k in range(12)]
        recovered.close()

    def test_a_clean_last_segment_is_not_rewritten_on_resume(self, tmp_path):
        _, last = self._crashed(tmp_path)
        with mock.patch.object(log_manager, "_zero_fill") as zero_fill:
            mgr = LogManager(
                wal_dir=os.path.dirname(last),
                segment_bytes=ENGINE_KWARGS["wal_segment_bytes"], sync=False,
            )
        zero_fill.assert_not_called()
        assert mgr.truncated_tail is None
        mgr.close()

    def test_zeroed_header_in_an_interior_segment_is_corruption(self, tmp_path):
        data_dir, last = self._crashed(tmp_path)
        wal_dir = os.path.dirname(last)
        first = os.path.join(wal_dir, sorted(os.listdir(wal_dir))[0])
        assert first != last
        with open(first, "rb") as fh:
            frames, _ = parse_frames(fh.read())
        assert len(frames) >= 3
        with open(first, "r+b") as fh:  # zeros over one frame header
            fh.seek(frames[1].offset)
            fh.write(bytes(FRAME_HEADER.size))
        with pytest.raises(RecoveryError, match="interior"):
            recover_engine(data_dir, **ENGINE_KWARGS)
        with pytest.raises(WalError, match="interior"):
            LogManager(
                wal_dir=wal_dir,
                segment_bytes=ENGINE_KWARGS["wal_segment_bytes"], sync=False,
            )

    def test_torn_frame_before_zeros_keeps_the_committed_prefix(self, tmp_path):
        data_dir, last = self._crashed(tmp_path)
        with open(last, "rb") as fh:
            end = log_end(fh.read())
        frame = pack_frame(1 << 20, WalRecordType.TXN_COMMIT, txn_body(99))
        with open(last, "r+b") as fh:  # the header reached the disk, the body not
            fh.seek(end)
            fh.write(frame[: FRAME_HEADER.size])
        recovered = recover_engine(data_dir, **ENGINE_KWARGS)
        assert recovered.last_recovery_report.truncated_tail is not None
        assert recovered.scan("a") == [(k, f"v{k}".encode()) for k in range(12)]
        assert_files_match_artifact(recovered.wal)  # the torn header is zeroed
        recovered.close()

    @pytest.mark.parametrize("torn_by", ["checksum", "zeros"])
    def test_double_crash_does_not_revive_a_frame_past_the_end(
        self, tmp_path, torn_by
    ):
        wal_dir = str(tmp_path)
        mgr = LogManager(wal_dir=wal_dir, sync=False)
        undo = UndoRecord(1, "t", "insert", 1, b"").to_bytes()
        redo = RedoRecord(1, "t", "insert", 1, b"row").to_bytes()
        mgr.append_row_change("t", undo, redo)
        mgr.flush()
        end = len(mgr.segments()[segment_name(1)])
        mgr.close()
        # An unacknowledged write: its first frame torn (a bad CRC, or never
        # written at all), the next one whole.
        torn = bytearray(pack_frame(1, WalRecordType.TXN_COMMIT, txn_body(7)))
        if torn_by == "checksum":
            torn[12] ^= 0xFF
        else:
            torn[:] = bytes(len(torn))
        stale = pack_frame(2, WalRecordType.TXN_COMMIT, txn_body(666))
        path = tmp_path / segment_name(1)
        with open(path, "r+b") as fh:
            fh.seek(end)
            fh.write(bytes(torn) + stale)

        first = LogManager(wal_dir=wal_dir, sync=False)
        assert first.truncated_tail is not None
        assert first.resumed_frames == 2
        first.append_commit(7)  # a frame exactly as long as the torn one
        first.flush()
        first.crash()

        second = LogManager(wal_dir=wal_dir, sync=False)
        assert second.truncated_tail is None
        assert second.resumed_frames == 3
        commits = [f.decode() for f in second.records() if f.rtype is WalRecordType.TXN_COMMIT]
        assert commits == [7]
        second.close()

    def test_forensics_read_raw_files_as_the_artifact(self, tmp_path):
        engine = StorageEngine(data_dir=str(tmp_path / "data"), **ENGINE_KWARGS)
        engine.register_table("a")
        for key in range(40):
            txn = engine.begin()
            engine.insert(txn, "a", key, b"x" * (key % 7))
            engine.commit(txn)
        engine.checkpoint()
        artifact = engine.wal_segments()
        raw = raw_files(engine.wal.wal_dir)
        assert len(raw) > 2
        assert any(len(raw[name]) > len(artifact[name]) for name in raw)
        assert parse_wal_segments(raw) == parse_wal_segments(artifact)
        engine.close()


class TestDirectorySync:
    def test_directory_synced_before_a_commit_in_a_new_segment(self, tmp_path):
        data_dir = str(tmp_path / "data")
        wal_dir = os.path.join(data_dir, "wal")
        events = []
        fsync, datasync = os.fsync, log_manager._datasync

        def record(call):
            def synced(fd):
                st_ = os.fstat(fd)
                events.append((stat.S_ISDIR(st_.st_mode), st_.st_ino))
                return call(fd)

            return synced

        with mock.patch.object(os, "fsync", record(fsync)), mock.patch.object(
            log_manager, "_datasync", record(datasync)
        ):
            engine = StorageEngine(
                data_dir=data_dir, buffer_pool_capacity=8,
                wal_segment_bytes=256, wal_sync=True,
            )
            engine.register_table("a")
            wal_ino = os.stat(wal_dir).st_ino
            rolled = 0
            for key in range(30):
                before = len(engine.wal.segment_names())
                del events[:]
                txn = engine.begin()
                engine.insert(txn, "a", key, b"v" * 20)
                engine.commit(txn)
                names = engine.wal.segment_names()
                if len(names) == before:
                    continue
                rolled += 1
                new_ino = os.stat(os.path.join(wal_dir, names[-1])).st_ino
                assert (True, wal_ino) in events
                assert (False, new_ino) in events
                # The commit's own sync comes last, after the directory's.
                assert events[-1] == (False, new_ino)
                assert events.index((True, wal_ino)) < len(events) - 1
            engine.close()
        assert rolled >= 2
