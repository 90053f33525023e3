"""The unified WAL manager: one LSN clock, one durable record stream.

:class:`LogManager` owns the monotone :class:`~repro.wal.lsn.LsnCounter`
and every log append in the engine goes through it:

* ``append_row_change`` — the byte-level row images of paper §3: one row
  change's undo body, then its redo body. Each advances the LSN by its
  length and is also retained in a capacity-bounded :class:`LogStream`
  window, the circular redo and undo logs the engine exposes as
  ``redo_log`` / ``undo_log`` (the E2/E5/E13 snapshot artifacts). A
  window holds each record's LSN and body bytes and nothing else; its
  structured views decode those bytes on demand, so the artifact and the
  views come from one source.
* ``append_clr`` / txn lifecycle / checkpoints / table registration — new
  control records for ARIES recovery. They are stamped with the current
  LSN but advance it by **zero** bytes, keeping the logical redo stream
  unchanged.

Appends are *staged*: nothing reaches the operating system until
:meth:`LogManager.flush` (group flush), which writes the pending frames to
the active segment file under ``wal_dir`` (one write per segment it
touches), rolls segments at ``segment_bytes``, and — when ``sync`` is on —
``fsync``\\ s before returning. :meth:`LogManager.flush_to` is the buffer
pool's WAL-rule hook: force the log up to a dirty page's page-LSN before
that page may hit disk.

Durability is also the leakage boundary: :meth:`LogManager.segments`
exposes exactly the flushed bytes — what a snapshot attacker gets from the
disk — never the staged tail that would be lost in a crash.
"""

from __future__ import annotations

import os
import zlib
from collections import deque
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Generic,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from ..errors import LogError, WalError
from .lsn import LsnCounter
from .records import (
    FRAME_HEADER,
    CheckpointBody,
    RedoRecord,
    UndoRecord,
    WalFrame,
    WalRecordType,
    pack_frame,
    parse_frames,
    table_register_body,
    txn_body,
)

if TYPE_CHECKING:
    from ..obs.instrumentation import Instrumentation

RecordT = TypeVar("RecordT")

#: The paper's quoted default for undo + redo combined is 50 MB; we give each
#: log half of that.
DEFAULT_CAPACITY = 25 * 1000 * 1000

#: Segment roll threshold. Small enough that real workloads produce several
#: segments (the forensic surface is per-file), large enough to stay cheap.
DEFAULT_SEGMENT_BYTES = 1 << 20

_SEGMENT_PREFIX = "wal."
_SEGMENT_SUFFIX = ".log"


def segment_name(index: int) -> str:
    return f"{_SEGMENT_PREFIX}{index:08d}{_SEGMENT_SUFFIX}"


class LogStream(Generic[RecordT]):
    """A byte-capacity-bounded retention window over one record stream.

    InnoDB's redo and undo logs are circular files: new records overwrite
    the oldest ones once the file fills, so the retention window depends on
    write rate and record size — the quantity behind the paper's "16 days'
    worth of inserts" observation (Section 3, experiment E2). The stream
    does the byte accounting and evicts the oldest records once
    ``capacity_bytes`` is exceeded; the :class:`LogManager` assigns each
    LSN and hands ``(lsn, raw)`` pairs in via :meth:`admit`.

    The window holds only those bytes — exactly what :meth:`raw_bytes`
    (the ``redo_log_raw`` / ``undo_log_raw`` artifact) frames. The
    structured views decode them with ``decode`` on demand, as a reader of
    the on-disk log would.
    """

    def __init__(
        self,
        capacity_bytes: int,
        decode: Callable[[bytes], Tuple[RecordT, int]],
    ) -> None:
        if capacity_bytes <= 0:
            raise LogError(f"log capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._decode = decode
        self._entries: Deque[Tuple[int, bytes]] = deque()
        self._used_bytes = 0
        self._total_appended = 0
        self._total_evicted = 0

    def check_fits(self, raw: bytes) -> None:
        """Reject a record that could never be retained (pre-LSN check)."""
        if len(raw) > self.capacity_bytes:
            raise LogError(
                f"record of {len(raw)} bytes exceeds log capacity "
                f"{self.capacity_bytes}"
            )

    def admit(self, lsn: int, raw: bytes) -> None:
        """Retain an already-LSN-stamped record body, evicting the oldest."""
        self._entries.append((lsn, raw))
        self._used_bytes += len(raw)
        self._total_appended += 1
        while self._used_bytes > self.capacity_bytes:
            _, old_raw = self._entries.popleft()
            self._used_bytes -= len(old_raw)
            self._total_evicted += 1

    # -- inspection (``engine.redo_log`` / ``engine.undo_log``) ------------

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    @property
    def num_records(self) -> int:
        """Records currently retained (not yet overwritten)."""
        return len(self._entries)

    @property
    def total_appended(self) -> int:
        return self._total_appended

    @property
    def total_evicted(self) -> int:
        return self._total_evicted

    @property
    def oldest_lsn(self) -> int:
        """LSN of the oldest retained record (-1 if empty)."""
        return self._entries[0][0] if self._entries else -1

    @property
    def newest_lsn(self) -> int:
        """LSN of the newest retained record (-1 if empty)."""
        return self._entries[-1][0] if self._entries else -1

    def records(self) -> List[RecordT]:
        """Retained records, oldest first, decoded from their bytes."""
        decode = self._decode
        return [decode(raw)[0] for _, raw in self._entries]

    def records_with_lsn(self) -> List[Tuple[int, RecordT]]:
        """Retained ``(lsn, record)`` pairs, oldest first."""
        decode = self._decode
        return [(lsn, decode(raw)[0]) for lsn, raw in self._entries]

    def raw_bytes(self) -> bytes:
        """The raw circular-log image a disk-theft attacker obtains.

        Each record is framed as ``lsn(8) || len(4) || body`` so the
        forensic parser can walk it without structured access.
        """
        from ..util.serialization import encode_uint

        parts = []
        for lsn, raw in self._entries:
            parts.append(encode_uint(lsn, 8))
            parts.append(encode_uint(len(raw)))
            parts.append(raw)
        return b"".join(parts)


class _Segment:
    """One WAL segment file: its name, path, flushed size and open handle."""

    __slots__ = ("name", "size", "path", "handle")

    def __init__(self, name: str, path: str, size: int = 0) -> None:
        self.name = name
        self.size = size
        self.path = path
        self.handle = None


class LogManager:
    """Owns the LSN and the segmented on-disk WAL under ``wal_dir``."""

    def __init__(
        self,
        wal_dir: str,
        redo_capacity: int = DEFAULT_CAPACITY,
        undo_capacity: int = DEFAULT_CAPACITY,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        sync: bool = True,
        instrumentation: Optional["Instrumentation"] = None,
    ) -> None:
        if segment_bytes <= 0:
            raise WalError(f"segment size must be positive, got {segment_bytes}")
        if instrumentation is None:
            from ..obs.instrumentation import NO_OP_INSTRUMENTATION

            instrumentation = NO_OP_INSTRUMENTATION
        self._obs = instrumentation
        self.wal_dir = wal_dir
        self.segment_bytes = segment_bytes
        self.sync = sync
        self.lsn = LsnCounter()
        self.redo_stream: LogStream[RedoRecord] = LogStream(
            redo_capacity, RedoRecord.from_bytes
        )
        self.undo_stream: LogStream[UndoRecord] = LogStream(
            undo_capacity, UndoRecord.from_bytes
        )
        self._segments: List[_Segment] = []
        self._pending: List[bytes] = []
        self._pending_frames = 0
        self._flushed_lsn = self.lsn.current
        self._replaying = False
        self._closed = False
        self._flushes = 0
        self._syncs = 0
        self._appended_frames = 0
        self._flushed_frame_count = 0
        self._bytes_written = 0
        self.resumed_frames = 0
        self.truncated_tail: Optional[str] = None
        os.makedirs(wal_dir, exist_ok=True)
        self._resume_from_disk()
        if not self._segments:
            self._open_segment(segment_name(1))

    # -- resume ------------------------------------------------------------

    def _resume_from_disk(self) -> None:
        """Rebuild LSN position and retention windows from existing segments.

        Tolerates a torn tail in the *last* segment (a crash mid-append):
        the bad bytes are truncated away so new appends extend a valid log.
        """
        names = sorted(
            f
            for f in os.listdir(self.wal_dir)
            if f.startswith(_SEGMENT_PREFIX) and f.endswith(_SEGMENT_SUFFIX)
        )
        end_lsn = self.lsn.current
        for i, name in enumerate(names):
            path = os.path.join(self.wal_dir, name)
            with open(path, "rb") as fh:
                data = fh.read()
            frames, error = parse_frames(data, strict=False)
            good_end = (
                frames[-1].offset + FRAME_HEADER.size + len(frames[-1].body)
                if frames
                else 0
            )
            if error is not None:
                if i != len(names) - 1:
                    raise WalError(f"corrupt interior WAL segment {name}: {error}")
                self.truncated_tail = f"{name}: {error}"
                with open(path, "r+b") as fh:
                    fh.truncate(good_end)
            for frame in frames:
                # Decoding validates the body (a corrupt one fails the open);
                # the window keeps only the bytes.
                if frame.rtype is WalRecordType.REDO:
                    frame.decode()
                    self.redo_stream.admit(frame.lsn, frame.body)
                elif frame.rtype is WalRecordType.UNDO:
                    frame.decode()
                    self.undo_stream.admit(frame.lsn, frame.body)
                end_lsn = max(end_lsn, frame.lsn + frame.lsn_advance)
                self.resumed_frames += 1
            self._segments.append(_Segment(name, path, size=good_end))
        if end_lsn > self.lsn.current:
            self.lsn.advance(end_lsn - self.lsn.current)
        self._flushed_lsn = self.lsn.current
        if self._segments:
            last = self._segments[-1]
            last.handle = open(last.path, "ab")

    # -- segment plumbing --------------------------------------------------

    def _open_segment(self, name: str) -> None:
        seg = _Segment(name, os.path.join(self.wal_dir, name))
        seg.handle = open(seg.path, "ab")
        self._segments.append(seg)

    def _seal_active(self) -> None:
        # A segment sealed mid-flush must be as durable as the final one:
        # with ``sync`` on, its frames would otherwise sit in the OS cache
        # while flush() reports them durable.
        active = self._segments[-1]
        active.handle.flush()
        if self.sync:
            os.fsync(active.handle.fileno())
            self._syncs += 1
        active.handle.close()
        active.handle = None

    def _next_index(self) -> int:
        last = self._segments[-1].name
        return int(last[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]) + 1

    # -- append paths ------------------------------------------------------

    def _stage(self, lsn: int, rtype: WalRecordType, body: bytes) -> None:
        self._pending.append(pack_frame(lsn, rtype, body))
        self._pending_frames += 1
        self._appended_frames += 1

    def _ensure_open(self) -> None:
        if self._closed:
            raise WalError("log manager is closed")

    def check_row_change(self, undo: bytes, redo: bytes) -> None:
        """Raise unless a row change with these bodies can be appended.

        :class:`WalError` when the log is closed, :class:`LogError` when a
        body is larger than its window could ever retain. Appends nothing,
        so a writer calls it before it changes the tree.
        """
        self._ensure_open()
        if self._replaying:
            return
        self.undo_stream.check_fits(undo)
        self.redo_stream.check_fits(redo)

    def append_row_change(self, table: str, undo: bytes, redo: bytes) -> int:
        """Append one row change: its undo body, then its redo body.

        Each body is stamped with the LSN, which then advances by the
        body's length, admitted to its window and staged as a frame. Both
        bodies are checked first, so a rejected change appends neither.
        Returns the redo body's LSN.
        """
        self.check_row_change(undo, redo)
        if self._replaying:
            return self.lsn.current
        obs = self._obs
        with obs.span("log.append", table=table, detail="undo"):
            lsn = self.lsn.advance(len(undo))
            self.undo_stream.admit(lsn, undo)
            self._stage(lsn, WalRecordType.UNDO, undo)
        obs.count("undo.appended_bytes", n=len(undo))
        with obs.span("log.append", table=table, detail="redo"):
            lsn = self.lsn.advance(len(redo))
            self.redo_stream.admit(lsn, redo)
            self._stage(lsn, WalRecordType.REDO, redo)
        obs.count("redo.appended_bytes", n=len(redo))
        return lsn

    # The repository benchmark's per-layer tracer (``perfbench/tracer.py``)
    # still patches these two by name; nothing in the engine calls them.
    # Delete them together with the tracer's two ``wal.append`` rows.

    def append_redo(self, record: RedoRecord) -> int:
        """Append a redo after-image; returns its LSN (advances by length)."""
        self._ensure_open()
        if self._replaying:
            return self.lsn.current
        raw = record.to_bytes()
        with self._obs.span("log.append", table=record.table, detail="redo"):
            self.redo_stream.check_fits(raw)
            lsn = self.lsn.advance(len(raw))
            self.redo_stream.admit(lsn, raw)
            self._stage(lsn, WalRecordType.REDO, raw)
        self._obs.count("redo.appended_bytes", n=len(raw))
        return lsn

    def append_undo(self, record: UndoRecord) -> int:
        """Append an undo before-image; returns its LSN (advances by length)."""
        self._ensure_open()
        if self._replaying:
            return self.lsn.current
        raw = record.to_bytes()
        with self._obs.span("log.append", table=record.table, detail="undo"):
            self.undo_stream.check_fits(raw)
            lsn = self.lsn.advance(len(raw))
            self.undo_stream.admit(lsn, raw)
            self._stage(lsn, WalRecordType.UNDO, raw)
        self._obs.count("undo.appended_bytes", n=len(raw))
        return lsn

    def _append_control(self, rtype: WalRecordType, body: bytes) -> int:
        self._ensure_open()
        lsn = self.lsn.current
        if self._replaying:
            return lsn
        self._stage(lsn, rtype, body)
        return lsn

    def append_clr(self, record: RedoRecord) -> int:
        """Append a compensation record: the redo-format inverse applied by
        rollback. Stamped, not advancing — replay repeats history exactly."""
        return self._append_control(WalRecordType.CLR, record.to_bytes())

    def append_begin(self, txn_id: int) -> int:
        return self._append_control(WalRecordType.TXN_BEGIN, txn_body(txn_id))

    def append_commit(self, txn_id: int) -> int:
        return self._append_control(WalRecordType.TXN_COMMIT, txn_body(txn_id))

    def append_abort(self, txn_id: int) -> int:
        return self._append_control(WalRecordType.TXN_ABORT, txn_body(txn_id))

    def append_checkpoint(
        self,
        dirty_pages: Tuple[Tuple[str, int, int], ...],
        active_txns: Tuple[int, ...],
    ) -> int:
        body = CheckpointBody(self.lsn.current, tuple(dirty_pages), tuple(active_txns))
        return self._append_control(WalRecordType.CHECKPOINT, body.to_bytes())

    def append_table_register(self, name: str) -> int:
        return self._append_control(
            WalRecordType.TABLE_REGISTER, table_register_body(name)
        )

    @contextmanager
    def replaying(self):
        """Suppress appends while recovery repeats history (ARIES: the redo
        pass must not log)."""
        self._replaying = True
        try:
            yield self
        finally:
            self._replaying = False

    # -- group flush / durability boundary ---------------------------------

    @property
    def flushed_lsn(self) -> int:
        """Every LSN below this is durable."""
        return self._flushed_lsn

    def flush(self) -> int:
        """Write all staged frames out; fsync when ``sync``. Returns the
        number of frames written (0 if nothing was pending)."""
        self._ensure_open()
        if not self._pending:
            self._flushed_lsn = self.lsn.current
            return 0
        # Frames are cut into one run per segment they land in, rolling at
        # the frame boundary where the next frame would overflow a
        # non-empty segment; each run is one write.
        active = self._segments[-1]
        run: List[bytes] = []
        for frame in self._pending:
            if active.size > 0 and active.size + len(frame) > self.segment_bytes:
                self._write_run(active, run)
                run = []
                next_name = segment_name(self._next_index())
                self._seal_active()
                self._open_segment(next_name)
                active = self._segments[-1]
            run.append(frame)
            active.size += len(frame)
        self._write_run(active, run)
        written = len(self._pending)
        active.handle.flush()
        if self.sync:
            os.fsync(active.handle.fileno())
            self._syncs += 1
        self._pending.clear()
        self._pending_frames = 0
        self._flushed_frame_count += written
        self._flushes += 1
        self._flushed_lsn = self.lsn.current
        self._obs.count("wal.flushed_frames", n=written)
        return written

    def _write_run(self, segment: _Segment, run: List[bytes]) -> None:
        """Write one segment's run of frames (its size is already counted)."""
        if run:
            data = b"".join(run)
            segment.handle.write(data)
            self._bytes_written += len(data)

    def flush_to(self, lsn: int) -> None:
        """WAL rule hook: make the log durable at least up to ``lsn``.

        The buffer pool calls this before writing back a dirty page whose
        page-LSN is ``lsn``; a no-op when the log is already flushed past it.
        """
        if lsn > self._flushed_lsn and self._pending:
            self.flush()

    # -- inspection --------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def segment_names(self) -> List[str]:
        return [seg.name for seg in self._segments]

    def segments(self) -> Dict[str, bytes]:
        """Flushed segment bytes by name — the snapshot-leakage surface.

        Staged (pre-flush) frames are deliberately absent: a crash would
        lose them, so a disk snapshot cannot contain them either.
        """
        out: Dict[str, bytes] = {}
        for seg in self._segments:
            if seg.handle is not None:
                seg.handle.flush()
            try:
                with open(seg.path, "rb") as fh:
                    out[seg.name] = fh.read()
            except OSError:
                out[seg.name] = b""
        return out

    def records(self) -> List[WalFrame]:
        """All flushed frames across segments, in append order."""
        frames: List[WalFrame] = []
        for name, data in self.segments().items():
            seg_frames, error = parse_frames(data, strict=False)
            if error is not None:
                raise WalError(f"corrupt WAL segment {name}: {error}")
            frames.extend(seg_frames)
        return frames

    @property
    def stats(self) -> Dict[str, object]:
        return {
            "wal_dir": self.wal_dir,
            "sync": self.sync,
            "segment_bytes": self.segment_bytes,
            "segments": len(self._segments),
            "flushes": self._flushes,
            "syncs": self._syncs,
            "appended_frames": self._appended_frames,
            "flushed_frames": self._flushed_frame_count,
            "pending_frames": self._pending_frames,
            "bytes_written": self._bytes_written,
            "flushed_lsn": self._flushed_lsn,
            "end_lsn": self.lsn.current,
        }

    def checksum(self) -> int:
        """CRC-32 over all flushed segment bytes (cheap identity probe)."""
        crc = 0
        for data in self.segments().values():
            crc = zlib.crc32(data, crc)
        return crc & 0xFFFFFFFF

    # -- shutdown ----------------------------------------------------------

    def crash(self) -> None:
        """Simulate a kill -9: staged frames vanish, files stay as flushed."""
        self._pending.clear()
        self._pending_frames = 0
        for seg in self._segments:
            if seg.handle is not None:
                seg.handle.close()
                seg.handle = None
        self._closed = True

    def close(self) -> None:
        """Flush everything and release file handles. Idempotent."""
        if self._closed:
            return
        self.flush()
        for seg in self._segments:
            if seg.handle is not None:
                seg.handle.close()
                seg.handle = None
        self._closed = True
