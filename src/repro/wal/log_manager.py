"""The unified WAL manager: one LSN clock, one durable record stream.

:class:`LogManager` owns the monotone :class:`~repro.wal.lsn.LsnCounter`
and every log append in the engine goes through it:

* ``append_row_change`` — the byte-level row images of paper §3: one row
  change's undo body, then its redo body, each staged as a frame that
  advances the LSN by its length.
* ``append_clr`` / txn lifecycle / checkpoints / table registration — new
  control records for ARIES recovery. They are stamped with the current
  LSN but advance it by **zero** bytes, keeping the logical redo stream
  unchanged.

Appends are *staged*: nothing reaches the operating system until
:meth:`LogManager.flush` (group flush), which writes the pending frames
into the active segment file under ``wal_dir`` (one ``pwrite`` per segment
it touches), rolls segments at ``segment_bytes``, and — when ``sync`` is
on — ``fdatasync``\\ s before returning. :meth:`LogManager.flush_to` is the
buffer pool's WAL-rule hook: force the log up to a dirty page's page-LSN
before that page may hit disk.

Every segment is a fixed-size file, as InnoDB's redo log files are: it is
created as ``segment_bytes`` of explicit zeros (with ``sync`` on, the file
and the directory entry naming it are synced before any frame lands in
it), and the log fills it from the front. A commit's sync then carries its
own bytes and no new file size. The log in a file ends where only zeros
remain (:func:`~repro.wal.records.parse_frames`); on resume a torn last
segment is cut to its good end and zeroed back to full size, so no byte
of an unacknowledged write survives past the end of the log. Only
a single frame larger than ``segment_bytes`` grows a file, and it does so
in a segment of its own.

Durability is also the leakage boundary: :meth:`LogManager.segments`
exposes exactly the flushed bytes — each file's live region, what a
snapshot attacker reads as the log from the disk — never the staged tail
that would be lost in a crash.

The log is kept once. The circular redo and undo logs of paper §3, which
the engine exposes as ``redo_log`` / ``undo_log`` (the E2/E5/E13 snapshot
artifacts), are :class:`LogWindow` views computed from the frames when
they are read: the newest REDO (or UNDO) bodies, flushed or staged, that
fit the window's capacity. No body is held in memory past the flush that
writes it.
"""

from __future__ import annotations

import os
import struct
import zlib
from array import array
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Generic,
    Iterator,
    List,
    NamedTuple,
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
    from ..obs import Instrumentation, MetricsRegistry, Tracer

RecordT = TypeVar("RecordT")

#: The paper's quoted default for undo + redo combined is 50 MB; we give each
#: log half of that.
DEFAULT_CAPACITY = 25 * 1000 * 1000

#: Segment roll threshold. Small enough that real workloads produce several
#: segments (the forensic surface is per-file), large enough to stay cheap.
DEFAULT_SEGMENT_BYTES = 1 << 20

#: The zero-fill source: one reused buffer, not a segment-sized ``bytes``.
_ZEROS = memoryview(bytes(64 << 10))

#: Data-only sync where the platform has it (not macOS): a flush into a
#: preallocated segment changes no file size, so no metadata need follow.
_datasync = getattr(os, "fdatasync", os.fsync)

#: A window record's framing: ``lsn u64 | len u32``, then the body.
_RECORD_HEADER = struct.Struct("<QI")
_HEADER_SIZE = _RECORD_HEADER.size
_FRAME_HEADER_SIZE = FRAME_HEADER.size
_unpack_frame = FRAME_HEADER.unpack_from
_unpack_len = struct.Struct("<I").unpack_from
_REDO = int(WalRecordType.REDO)
_UNDO = int(WalRecordType.UNDO)

_SEGMENT_PREFIX = "wal."
_SEGMENT_SUFFIX = ".log"


def segment_name(index: int) -> str:
    return f"{_SEGMENT_PREFIX}{index:08d}{_SEGMENT_SUFFIX}"


def _write_at(fd: int, data, offset: int) -> None:
    """``pwrite`` all of ``data`` at ``offset``, resuming a short write."""
    written = os.pwrite(fd, data, offset)
    while written < len(data):
        written += os.pwrite(fd, memoryview(data)[written:], offset + written)


def _zero_fill(fd: int, start: int, end: int) -> None:
    """Write explicit zeros over ``[start, end)`` of the file."""
    while start < end:
        chunk = _ZEROS[: end - start]
        _write_at(fd, chunk, start)
        start += len(chunk)


def _sync_dir(path: str) -> None:
    """fsync a directory, making the entries created in it durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _check_fits(raw: bytes, capacity: int) -> None:
    """Reject a body larger than its window could ever retain."""
    if len(raw) > capacity:
        raise LogError(f"record of {len(raw)} bytes exceeds log capacity {capacity}")


class _WindowImage(NamedTuple):
    """One window as one pass over the log left it: the artifact's bytes
    (``lsn u64 | len u32 | body`` per retained record, oldest first) and
    its counts."""

    raw: bytearray
    used_bytes: int
    num_records: int
    total_appended: int


def _retain(log: memoryview, offsets: array, capacity: int) -> _WindowImage:
    """The window over the frames at ``offsets``: the longest newest run
    whose bodies fit ``capacity`` — what a circular log of that size that
    evicts its oldest records as new ones arrive still holds."""
    used = 0
    first = len(offsets)
    while first:
        length = _unpack_len(log, offsets[first - 1] + 8)[0]
        if used + length > capacity:
            break
        used += length
        first -= 1
    kept = len(offsets) - first
    raw = bytearray(used + _HEADER_SIZE * kept)
    pos = 0
    for offset in offsets[first:]:
        length = _unpack_len(log, offset + 8)[0]
        body = offset + _FRAME_HEADER_SIZE
        # A record's ``lsn | len`` framing is the frame header's first
        # twelve bytes: the frame's ``crc | type`` is cut out.
        raw[pos : pos + _HEADER_SIZE] = log[offset : offset + _HEADER_SIZE]
        pos += _HEADER_SIZE
        raw[pos : pos + length] = log[body : body + length]
        pos += length
    return _WindowImage(raw, used, kept, len(offsets))


class LogWindow(Generic[RecordT]):
    """A read-only, byte-capacity-bounded retention window over the WAL.

    InnoDB's redo and undo logs are circular files: new records overwrite
    the oldest ones once the file fills, so the retention window depends on
    write rate and record size — the quantity behind the paper's "16 days'
    worth of inserts" observation (Section 3, experiment E2). The window
    holds no records of its own: each read takes the REDO (or UNDO) frames
    of the :class:`LogManager`'s log — flushed segments, then staged
    frames — and keeps the newest ones whose bodies fit
    ``capacity_bytes``. The manager computes both windows in one pass and
    keeps the result until the log changes.

    :meth:`raw_bytes` frames each record as ``lsn(8) || len(4) || body``
    (the ``redo_log_raw`` / ``undo_log_raw`` artifact); the structured
    views decode each body with ``decode`` on demand, as a reader of the
    on-disk log would.
    """

    __slots__ = ("_wal", "_index", "capacity_bytes", "_decode")

    def __init__(
        self,
        wal: "LogManager",
        index: int,
        capacity_bytes: int,
        decode: Callable[[bytes], Tuple[RecordT, int]],
    ) -> None:
        self._wal = wal
        self._index = index
        self.capacity_bytes = capacity_bytes
        self._decode = decode

    def check_fits(self, raw: bytes) -> None:
        """Reject a record that could never be retained (pre-LSN check)."""
        _check_fits(raw, self.capacity_bytes)

    def _image(self) -> _WindowImage:
        return self._wal._window_images()[self._index]

    @property
    def used_bytes(self) -> int:
        """Body bytes currently retained (the framing is not counted)."""
        return self._image().used_bytes

    @property
    def num_records(self) -> int:
        """Records currently retained (not yet overwritten)."""
        return self._image().num_records

    @property
    def total_appended(self) -> int:
        """Records of this kind in the log, retained or not."""
        return self._image().total_appended

    @property
    def total_evicted(self) -> int:
        image = self._image()
        return image.total_appended - image.num_records

    def records(self) -> List[RecordT]:
        """Retained records, oldest first, decoded from their bytes."""
        return [record for _, record in self.records_with_lsn()]

    def records_with_lsn(self) -> List[Tuple[int, RecordT]]:
        """Retained ``(lsn, record)`` pairs, oldest first."""
        data = self.raw_bytes()
        decode = self._decode
        unpack = _RECORD_HEADER.unpack_from
        out = []
        pos = 0
        while pos < len(data):
            lsn, length = unpack(data, pos)
            pos += _HEADER_SIZE
            out.append((lsn, decode(data[pos : pos + length])[0]))
            pos += length
        return out

    def raw_bytes(self) -> bytes:
        """The raw circular-log image a disk-theft attacker obtains.

        Each record is framed as ``lsn(8) || len(4) || body`` so the
        forensic parser can walk it without structured access.
        """
        return bytes(self._image().raw)


class SegmentScan(NamedTuple):
    """One segment file as read from disk: its frames up to the first bad one."""

    name: str
    #: The file's size: a file shorter than ``segment_bytes`` was cut short.
    file_size: int
    frames: List[WalFrame]
    #: Why the walk stopped before the log's end (a torn or corrupt frame).
    error: Optional[str]

    @property
    def good_end(self) -> int:
        """The end of the valid log in the file."""
        if not self.frames:
            return 0
        last = self.frames[-1]
        return last.offset + FRAME_HEADER.size + len(last.body)


def scan_segments(wal_dir: str) -> List[SegmentScan]:
    """Read every segment under ``wal_dir`` once, name-sorted (= append
    order), and walk its frames tolerantly."""
    if not os.path.isdir(wal_dir):
        return []
    names = sorted(
        f
        for f in os.listdir(wal_dir)
        if f.startswith(_SEGMENT_PREFIX) and f.endswith(_SEGMENT_SUFFIX)
    )
    scans = []
    for name in names:
        with open(os.path.join(wal_dir, name), "rb") as fh:
            data = fh.read()
        frames, error = parse_frames(data, strict=False)
        scans.append(SegmentScan(name, len(data), frames, error))
    return scans


class _Segment:
    """One WAL segment file: its name, path, log size and open handle.

    ``size`` is the length of the log in the file — the flushed frames —
    not of the file, which is preallocated to ``segment_bytes``.
    """

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
        self._tracer: Optional["Tracer"] = None
        self._metrics: Optional["MetricsRegistry"] = None
        if instrumentation is not None:
            self._tracer = instrumentation.tracer
            self._metrics = instrumentation.metrics
        self.wal_dir = wal_dir
        self.segment_bytes = segment_bytes
        self.sync = sync
        for capacity in (redo_capacity, undo_capacity):
            if capacity <= 0:
                raise LogError(f"log capacity must be positive, got {capacity}")
        self.redo_capacity = redo_capacity
        self.undo_capacity = undo_capacity
        self.lsn = LsnCounter()
        self._segments: List[_Segment] = []
        self._pending: List[bytes] = []
        #: The redo and undo windows of the last pass over the log, made
        #: when ``_appended_frames`` was ``_images_at``; dropped when a
        #: flush or crash moves the frames.
        self._images: Optional[Tuple[_WindowImage, _WindowImage]] = None
        self._images_at = 0
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
        #: The segment scans the open resumed from, until recovery takes
        #: them (:meth:`take_resumed_scans`) or the first flush drops them.
        self._resumed_scans: Optional[List[SegmentScan]] = None
        os.makedirs(wal_dir, exist_ok=True)
        self._resume_from_disk()
        if not self._segments:
            self._open_segment(segment_name(1))

    # -- resume ------------------------------------------------------------

    def _resume_from_disk(self) -> None:
        """Rebuild the LSN position from the existing segments.

        Tolerates a torn tail in the *last* segment (a crash mid-append).
        A torn segment, or one shorter than ``segment_bytes``, is cut to
        the end of its valid log and zeroed back to full size, so new
        appends extend a valid log and no byte past its end — a torn
        frame, or a whole one an unacknowledged write left behind zeros —
        can be read as log after a later crash. A segment that already
        ends in zeros is left as it is.
        """
        scans = scan_segments(self.wal_dir)
        end_lsn = self.lsn.current
        rezero = False
        for i, scan in enumerate(scans):
            if scan.error is not None:
                if i != len(scans) - 1:
                    raise WalError(
                        f"corrupt interior WAL segment {scan.name}: {scan.error}"
                    )
                self.truncated_tail = f"{scan.name}: {scan.error}"
            rezero = scan.error is not None or scan.file_size < self.segment_bytes
            for frame in scan.frames:
                # Decoding validates a redo or undo body: a corrupt one
                # fails the open.
                if frame.rtype in (WalRecordType.REDO, WalRecordType.UNDO):
                    frame.decode()
                end_lsn = max(end_lsn, frame.lsn + frame.lsn_advance)
            self.resumed_frames += len(scan.frames)
            path = os.path.join(self.wal_dir, scan.name)
            self._segments.append(_Segment(scan.name, path, size=scan.good_end))
        if end_lsn > self.lsn.current:
            self.lsn.advance(end_lsn - self.lsn.current)
        self._flushed_lsn = self.lsn.current
        self._resumed_scans = scans
        if self._segments:
            last = self._segments[-1]
            last.handle = open(last.path, "r+b", buffering=0)
            if rezero:
                fd = last.handle.fileno()
                os.ftruncate(fd, last.size)
                _zero_fill(fd, last.size, self.segment_bytes)
                if self.sync:
                    os.fsync(fd)

    def take_resumed_scans(self) -> List[SegmentScan]:
        """The segment scans this log resumed from, handed over once.

        Restart recovery analyses the frames the open already read, so
        each segment is read once per recovery. The scans are dropped on
        the first flush: after it they no longer describe the log.
        """
        scans = self._resumed_scans
        if scans is None:
            raise WalError("the resumed segment scans were already taken or flushed")
        self._resumed_scans = None
        return scans

    # -- segment plumbing --------------------------------------------------

    def _open_segment(self, name: str) -> None:
        """Create the next segment as ``segment_bytes`` of explicit zeros.

        Zeros, not a sparse file or ``posix_fallocate``: no filesystem then
        changes metadata on the first write into a block, so a commit's
        sync carries only its own bytes. With ``sync`` on, the file and
        the WAL directory's entry for it are durable before any frame is
        written into it.
        """
        seg = _Segment(name, os.path.join(self.wal_dir, name))
        seg.handle = open(seg.path, "xb", buffering=0)
        self._segments.append(seg)
        _zero_fill(seg.handle.fileno(), 0, self.segment_bytes)
        if self.sync:
            os.fsync(seg.handle.fileno())
            _sync_dir(self.wal_dir)

    def _seal_active(self) -> None:
        # A segment sealed mid-flush must be as durable as the final one:
        # with ``sync`` on, its frames would otherwise sit in the OS cache
        # while flush() reports them durable.
        active = self._segments[-1]
        if self.sync:
            _datasync(active.handle.fileno())
            self._syncs += 1
        active.handle.close()
        active.handle = None

    def _next_index(self) -> int:
        last = self._segments[-1].name
        return int(last[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]) + 1

    # -- append paths ------------------------------------------------------

    def _stage(self, lsn: int, rtype: WalRecordType, body: bytes) -> None:
        self._pending.append(pack_frame(lsn, rtype, body))
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
        _check_fits(undo, self.undo_capacity)
        _check_fits(redo, self.redo_capacity)

    def append_row_change(self, table: str, undo: bytes, redo: bytes) -> int:
        """Append one row change: its undo body, then its redo body.

        The undo frame is stamped with the current LSN and the redo frame
        with the LSN just past the undo body; the LSN advances by both
        bodies' lengths at once, and both frames are staged together. It
        raises what :meth:`check_row_change` raises, so a rejected change
        appends neither; bodies that pass, such as the ones a writer
        checked before it changed the tree, cost two length comparisons,
        not a second check. Returns the redo body's LSN.
        """
        if (
            self._closed
            or len(undo) > self.undo_capacity
            or len(redo) > self.redo_capacity
        ):
            self.check_row_change(undo, redo)
        if self._replaying:
            return self.lsn.current
        undo_lsn = self.lsn.advance(len(undo) + len(redo))
        redo_lsn = undo_lsn + len(undo)
        self._pending += (
            pack_frame(undo_lsn, WalRecordType.UNDO, undo),
            pack_frame(redo_lsn, WalRecordType.REDO, redo),
        )
        tracer = self._tracer
        if tracer is not None:
            # One span per body. Packing a frame does not move the
            # simulated clock, so the spans need not wrap it.
            tracer.mark("log.append", table, "undo")
            tracer.mark("log.append", table, "redo")
            metrics = self._metrics
            metrics.inc("undo.appended_bytes", len(undo))  # type: ignore[union-attr]
            metrics.inc("redo.appended_bytes", len(redo))  # type: ignore[union-attr]
        self._appended_frames += 2
        return redo_lsn

    # The repository benchmark's per-layer tracer (``perfbench/tracer.py``)
    # still patches these two by name; nothing in the engine calls them.
    # Delete them together with the tracer's two ``wal.append`` rows.

    def append_redo(self, record: RedoRecord) -> int:
        """Append a redo after-image; returns its LSN (advances by length)."""
        self._ensure_open()
        if self._replaying:
            return self.lsn.current
        raw = record.to_bytes()
        _check_fits(raw, self.redo_capacity)
        lsn = self.lsn.advance(len(raw))
        self._stage(lsn, WalRecordType.REDO, raw)
        return lsn

    def append_undo(self, record: UndoRecord) -> int:
        """Append an undo before-image; returns its LSN (advances by length)."""
        self._ensure_open()
        if self._replaying:
            return self.lsn.current
        raw = record.to_bytes()
        _check_fits(raw, self.undo_capacity)
        lsn = self.lsn.advance(len(raw))
        self._stage(lsn, WalRecordType.UNDO, raw)
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
        """Write all staged frames out; fdatasync when ``sync``. Returns
        the number of frames written (0 if nothing was pending)."""
        self._ensure_open()
        self._images = None
        self._resumed_scans = None
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
        if self.sync:
            _datasync(active.handle.fileno())
            self._syncs += 1
        self._pending.clear()
        self._flushed_frame_count += written
        self._flushes += 1
        self._flushed_lsn = self.lsn.current
        if self._metrics is not None:
            self._metrics.inc("wal.flushed_frames", written)
        return written

    def _write_run(self, segment: _Segment, run: List[bytes]) -> None:
        """Write one segment's run of frames (its size is already counted)."""
        if run:
            data = b"".join(run)
            _write_at(segment.handle.fileno(), data, segment.size - len(data))
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
    def redo_log(self) -> LogWindow[RedoRecord]:
        """The circular redo log: a window over the log's REDO frames."""
        return LogWindow(self, 0, self.redo_capacity, RedoRecord.from_bytes)

    @property
    def undo_log(self) -> LogWindow[UndoRecord]:
        """The circular undo log: a window over the log's UNDO frames."""
        return LogWindow(self, 1, self.undo_capacity, UndoRecord.from_bytes)

    def _window_images(self) -> Tuple[_WindowImage, _WindowImage]:
        """The redo and undo windows from one pass over the log, kept
        until the next append, flush or crash."""
        if self._images is None or self._images_at != self._appended_frames:
            log = self._read_log()
            with memoryview(log) as view:
                redo_at, undo_at = array("Q"), array("Q")
                pos, end = 0, len(log) - _FRAME_HEADER_SIZE
                while pos <= end:
                    _, length, _, rtype = _unpack_frame(view, pos)
                    if rtype == _REDO:
                        redo_at.append(pos)
                    elif rtype == _UNDO:
                        undo_at.append(pos)
                    pos += _FRAME_HEADER_SIZE + length
                self._images = (
                    _retain(view, redo_at, self.redo_capacity),
                    _retain(view, undo_at, self.undo_capacity),
                )
            self._images_at = self._appended_frames
        return self._images

    def _read_log(self) -> bytearray:
        """The whole log in one buffer: every segment's flushed frames,
        then the staged ones."""
        log = bytearray()
        for _, data in self._live_regions():
            log += data
        for frame in self._pending:
            log += frame
        return log

    @property
    def closed(self) -> bool:
        return self._closed

    def segment_names(self) -> List[str]:
        return [seg.name for seg in self._segments]

    def segments(self) -> Dict[str, bytes]:
        """Flushed segment bytes by name — the snapshot-leakage surface.

        Each value is the file's live region, its first ``size`` bytes:
        the log itself, without the zero padding after it. Staged
        (pre-flush) frames are deliberately absent: a crash would lose
        them, so a disk snapshot cannot contain them either.
        """
        return dict(self._live_regions())

    def _live_regions(self) -> Iterator[Tuple[str, bytes]]:
        """Each segment's name and flushed bytes, read one file at a time
        (empty when the file is gone)."""
        for seg in self._segments:
            try:
                with open(seg.path, "rb") as fh:
                    data = fh.read(seg.size)
            except OSError:
                data = b""
            yield seg.name, data

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
            "pending_frames": len(self._pending),
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
        self._images = None
        self._resumed_scans = None
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
