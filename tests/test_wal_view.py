"""The redo/undo windows are a read-time view of the WAL.

``engine.redo_log`` / ``engine.undo_log`` hold no records: each read takes
the log's REDO (or UNDO) frames, flushed and staged, and keeps the newest
bodies that fit the capacity. The windows used to be kept at append time,
each in its own circular buffer that evicted the oldest records as new
ones arrived. That algorithm is kept below as :class:`ReferenceWindow`,
and the property test drives random row changes, rollbacks, crashes and
recoveries through an engine, feeding every appended body to a pair of
references, and compares the view with them after every step.

``--hypothesis-profile=wal-view-sweep`` runs the sweep longer
(tests/conftest.py registers the profile).
"""

import struct
import tempfile
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import StorageEngine
from repro.errors import LogError
from repro.wal import log_manager
from repro.wal.records import RedoRecord, UndoRecord, WalRecordType, pack_frame
from repro.wal.recovery import recover_engine

_RECORD_HEADER = struct.Struct("<QI")
_unpack_len = struct.Struct("<I").unpack_from


class ReferenceWindow:
    """The append-time window the view replaced: one ``bytearray`` in the
    artifact's framing, whose oldest records are evicted as new ones
    arrive, and whose dead prefix is dropped once it is over half the
    buffer."""

    def __init__(self, capacity_bytes, decode):
        self.capacity_bytes = capacity_bytes
        self._decode = decode
        self._buf = bytearray()
        self._start = 0
        self.used_bytes = 0
        self.total_appended = 0
        self.total_evicted = 0

    def admit(self, lsn, raw):
        buf = self._buf
        buf += _RECORD_HEADER.pack(lsn, len(raw))
        buf += raw
        used = self.used_bytes + len(raw)
        self.total_appended += 1
        if used > self.capacity_bytes:
            start = self._start
            evicted = 0
            while used > self.capacity_bytes:
                length = _unpack_len(buf, start + 8)[0]
                start += _RECORD_HEADER.size + length
                used -= length
                evicted += 1
            if start > len(buf) >> 1:
                del buf[:start]
                start = 0
            self._start = start
            self.total_evicted += evicted
        self.used_bytes = used

    @property
    def num_records(self):
        return self.total_appended - self.total_evicted

    def records(self):
        return [record for _, record in self.records_with_lsn()]

    def records_with_lsn(self):
        data = self.raw_bytes()
        out, pos = [], 0
        while pos < len(data):
            lsn, length = _RECORD_HEADER.unpack_from(data, pos)
            pos += _RECORD_HEADER.size
            out.append((lsn, self._decode(data[pos : pos + length])[0]))
            pos += length
        return out

    def raw_bytes(self):
        return bytes(self._buf[self._start :])


def assert_view_matches(view, reference):
    assert view.raw_bytes() == reference.raw_bytes()
    assert view.used_bytes == reference.used_bytes
    assert view.num_records == reference.num_records
    assert view.total_appended == reference.total_appended
    assert view.total_evicted == reference.total_evicted
    assert view.records_with_lsn() == reference.records_with_lsn()


class Harness:
    """An engine whose appended bodies also feed two reference windows."""

    def __init__(self, data_dir, capacity, **engine_kwargs):
        self.data_dir = data_dir
        self.capacity = capacity
        self.kwargs = dict(
            redo_capacity=capacity, undo_capacity=capacity, **engine_kwargs
        )
        #: Every REDO/UNDO body that reached a segment file before this
        #: incarnation of the engine, as ``(rtype, lsn, body)``.
        self.durable = []
        self.engine = StorageEngine(data_dir=data_dir, **self.kwargs)
        self.engine.register_table("t")
        self._attach()

    def _attach(self):
        """Start fresh references from the durable bodies, as a restarted
        window refilled itself from disk."""
        wal = self.engine.wal
        assert wal.stats["pending_frames"] == 0
        self.redo_ref = ReferenceWindow(self.capacity, RedoRecord.from_bytes)
        self.undo_ref = ReferenceWindow(self.capacity, UndoRecord.from_bytes)
        self.staged = []
        self.flushed_base = wal.stats["flushed_frames"]
        for frame in self.durable:
            self._admit(*frame)

    def pack_and_tap(self, lsn, rtype, body):
        """``pack_frame`` for the log manager while the test runs: the log
        packs every frame it stages, in staging order, so each one also
        feeds the references here."""
        self.staged.append((rtype, lsn, body))
        self._admit(rtype, lsn, body)
        return pack_frame(lsn, rtype, body)

    def _admit(self, rtype, lsn, body):
        if rtype is WalRecordType.REDO:
            self.redo_ref.admit(lsn, body)
        elif rtype is WalRecordType.UNDO:
            self.undo_ref.admit(lsn, body)

    def crash_and_recover(self):
        """Kill the engine; the staged frames are lost, the flushed ones
        are what the recovered engine's windows start from."""
        flushed = self.engine.wal.stats["flushed_frames"] - self.flushed_base
        self.durable += [f for f in self.staged[:flushed] if f[0] in _BODY_TYPES]
        self.engine.simulate_crash()
        self.engine = recover_engine(self.data_dir, **self.kwargs)
        self._attach()

    def check(self):
        assert_view_matches(self.engine.redo_log, self.redo_ref)
        assert_view_matches(self.engine.undo_log, self.undo_ref)


_BODY_TYPES = (WalRecordType.REDO, WalRecordType.UNDO)

#: The smallest redo/undo body of table ``t``: an empty image.
MIN_BODY = len(RedoRecord(1, "t", "delete", 0, b"").to_bytes())

#: Rows stay well inside one 4 KiB page.
MAX_ROW = 1500

#: Row changes by weight; a crash loses every change not yet committed.
OPS = st.sampled_from(
    ["insert"] * 3
    + ["update"] * 3
    + ["delete", "commit", "commit", "rollback", "crash"]
)


@st.composite
def scenarios(draw):
    capacity = draw(
        st.one_of(
            # Down to a single body: the window holds one record at most.
            st.integers(MIN_BODY, MIN_BODY + 64),
            st.integers(MIN_BODY, MIN_BODY + 600),
            st.integers(MIN_BODY, MIN_BODY + MAX_ROW),
            # E2's window: 120 kB of log split between redo and undo.
            st.just(60_000),
        )
    )
    # Rows up to a body of the full capacity, and a little over it.
    widest = min(capacity - MIN_BODY + 8, MAX_ROW)
    steps = st.tuples(OPS, st.integers(0, 7), st.integers(0, widest))
    return dict(
        capacity=capacity,
        segment_bytes=draw(st.sampled_from([128, 512, 4096, 1 << 20])),
        wal_sync=draw(st.booleans()),
        steps=draw(st.lists(steps, min_size=10, max_size=40)),
    )


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_view_matches_the_reference_window_after_every_step(case):
    with tempfile.TemporaryDirectory() as data_dir:
        h = Harness(
            data_dir,
            case["capacity"],
            wal_segment_bytes=case["segment_bytes"],
            wal_sync=case["wal_sync"],
        )
        committed, rows, txn = {}, {}, None
        h.check()
        with mock.patch.object(log_manager, "pack_frame", h.pack_and_tap):
            for op, key, width in case["steps"]:
                engine = h.engine
                if op == "crash":
                    h.crash_and_recover()
                    rows, txn = dict(committed), None
                elif op in ("commit", "rollback"):
                    if txn is not None:
                        if op == "commit":
                            engine.commit(txn)
                            committed = dict(rows)
                        else:
                            engine.rollback(txn)
                            rows = dict(committed)
                        txn = None
                else:
                    if txn is None:
                        txn = engine.begin()
                    row = bytes([key]) * width
                    try:
                        if op == "insert" and key not in rows:
                            engine.insert(txn, "t", key, row)
                            rows[key] = row
                        elif op == "update" and key in rows:
                            engine.update(txn, "t", key, row)
                            rows[key] = row
                        elif op == "delete" and key in rows:
                            engine.delete(txn, "t", key)
                            del rows[key]
                    except LogError:
                        # A body over the capacity is refused before any
                        # LSN is taken; the transaction goes on without it.
                        pass
                h.check()
        h.engine.close()
