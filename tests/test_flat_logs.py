"""The redo/undo windows and the arrival log keep flat bytes.

The redo/undo windows hold no records of their own: each read takes the
WAL's frames and yields the artifact's framing (``lsn u64 | len u32 |
body`` per record). The scheduler's arrival log is one ``array('q')`` of
``(seq, session_id, arrival_ts)`` triples. Both are pure space savings, so
the tests here are equivalences against the structures they replaced,
kept as references: a deque of ``(lsn, body)`` tuples, the flat
append-time window (``tests/test_wal_view.py``, checked here against the
deque), and a list of arrival tuples. The rest bound what each record
costs in memory.
"""

import gc
import random
import sys
import tempfile
import tracemalloc
from array import array
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LogError, SchedulerError
from repro.server.frontend import SchedulingPolicy, SessionScheduler
from repro.util.serialization import encode_uint
from repro.wal import LogManager
from repro.wal.records import RedoRecord, UndoRecord

from .test_wal_view import ReferenceWindow


def identity(raw):
    """A record decoder whose record is the body itself."""
    return raw, len(raw)


class DequeWindow:
    """The window as it was: one ``(lsn, body)`` tuple per record."""

    def __init__(self, capacity_bytes, decode=identity):
        self.capacity_bytes = capacity_bytes
        self._decode = decode
        self._entries = deque()
        self.used_bytes = 0
        self.total_appended = 0
        self.total_evicted = 0

    def admit(self, lsn, raw):
        self._entries.append((lsn, raw))
        self.used_bytes += len(raw)
        self.total_appended += 1
        while self.used_bytes > self.capacity_bytes:
            _, old_raw = self._entries.popleft()
            self.used_bytes -= len(old_raw)
            self.total_evicted += 1

    @property
    def num_records(self):
        return len(self._entries)

    def records_with_lsn(self):
        return [(lsn, self._decode(raw)[0]) for lsn, raw in self._entries]

    def raw_bytes(self):
        parts = []
        for lsn, raw in self._entries:
            parts += [encode_uint(lsn, 8), encode_uint(len(raw)), raw]
        return b"".join(parts)


def assert_same_window(window, reference):
    assert window.raw_bytes() == reference.raw_bytes()
    assert window.records_with_lsn() == reference.records_with_lsn()
    assert window.records() == [r for _, r in reference.records_with_lsn()]
    assert window.num_records == reference.num_records
    assert window.used_bytes == reference.used_bytes
    assert window.total_appended == reference.total_appended
    assert window.total_evicted == reference.total_evicted


# -- the window against the deque ------------------------------------------------

#: Runs of equal-sized row images: a long run of small bodies followed by a
#: large one makes one append evict many records at once.
BURSTS = st.lists(
    st.tuples(st.integers(1, 40), st.integers(0, 300)), min_size=1, max_size=12
)

#: The redo body of an update with an empty row image.
EMPTY_BODY = len(RedoRecord(0, "t", "update", 0, b"").to_bytes())


@st.composite
def windows(draw):
    sizes = [size for count, size in draw(BURSTS) for _ in range(count)]
    # Down to exactly one body: a capacity equal to the largest body keeps
    # only that body once it arrives.
    capacity = (
        EMPTY_BODY + max(sizes) + draw(st.one_of(st.just(0), st.integers(0, 2000)))
    )
    seed = draw(st.integers(0, 2**32 - 1))
    return capacity, sizes, seed


@settings(deadline=None, max_examples=40)
@given(windows())
def test_window_matches_the_deque_after_every_admit(case):
    capacity, sizes, seed = case
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        mgr = LogManager(
            wal_dir=tmp, redo_capacity=capacity, segment_bytes=4096, sync=False
        )
        reference = DequeWindow(capacity, RedoRecord.from_bytes)
        for i, size in enumerate(sizes):
            undo = UndoRecord(i, "t", "update", i, b"").to_bytes()
            redo = RedoRecord(i, "t", "update", i, rng.randbytes(size)).to_bytes()
            lsn = mgr.append_row_change("t", undo, redo)
            reference.admit(lsn, redo)
            assert_same_window(mgr.redo_log, reference)
            if rng.random() < 0.2:
                mgr.flush()
        mgr.close()


@settings(deadline=None)
@given(windows())
def test_reference_window_matches_the_deque_after_every_admit(case):
    capacity, sizes, seed = case
    rng = random.Random(seed)
    window, reference = ReferenceWindow(capacity, identity), DequeWindow(capacity)
    lsn = rng.randrange(1 << 20)
    for size in sizes:
        body = rng.randbytes(size)
        window.admit(lsn, body)
        reference.admit(lsn, body)
        assert_same_window(window, reference)
        lsn += size


def test_compaction_drops_the_dead_prefix():
    """A long run crosses the reference's compaction point many times; its
    buffer stays within twice the live framing and the window stays exact."""
    capacity = 1000
    window, reference = ReferenceWindow(capacity, identity), DequeWindow(capacity)
    rng = random.Random(3)
    compactions, start = 0, 0
    for lsn in range(5000):
        body = rng.randbytes(rng.randint(1, 120))
        window.admit(lsn, body)
        reference.admit(lsn, body)
        if window._start < start:
            compactions += 1
        start = window._start
        live = len(window._buf) - window._start
        assert live == window.used_bytes + 12 * window.num_records
        assert window._start <= len(window._buf) // 2
    assert compactions > 10
    assert_same_window(window, reference)


def test_an_oversized_admit_empties_the_window_like_the_deque(make_wal):
    """The references evict everything for a body over the capacity; the
    log refuses such a body before it takes an LSN, and a body of exactly
    the capacity leaves only itself in the window, as the deque does."""
    window, reference = ReferenceWindow(10, identity), DequeWindow(10)
    for lsn, body in enumerate([b"ab", b"cd", b"x" * 11, b"ef"]):
        window.admit(lsn, body)
        reference.admit(lsn, body)
        assert_same_window(window, reference)
    full = RedoRecord(9, "t", "update", 9, b"f" * 40).to_bytes()
    mgr = make_wal(redo_capacity=len(full))
    reference = DequeWindow(len(full), RedoRecord.from_bytes)
    for i, image in enumerate([b"ab", b"cd", b"f" * 41, b"f" * 40, b"ef"]):
        undo = UndoRecord(i, "t", "update", i, b"").to_bytes()
        redo = RedoRecord(i, "t", "update", i, image).to_bytes()
        if len(redo) > len(full):
            with pytest.raises(LogError, match="exceeds log capacity"):
                mgr.append_row_change("t", undo, redo)
        else:
            reference.admit(mgr.append_row_change("t", undo, redo), redo)
        assert_same_window(mgr.redo_log, reference)
        if len(redo) == len(full):
            assert mgr.redo_log.num_records == 1


# -- a restarted LogManager refills the same windows -----------------------------


@st.composite
def row_changes(draw):
    n = draw(st.integers(1, 60))
    sizes = draw(st.lists(st.integers(0, 250), min_size=n, max_size=n))
    record = len(RedoRecord(1, "t", "insert", 0, b"").to_bytes())
    capacity = record + max(sizes) + draw(st.one_of(st.just(0), st.integers(0, 3000)))
    return capacity, sizes, draw(st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=40)
@given(row_changes())
def test_restarted_log_manager_refills_the_same_windows(case):
    capacity, sizes, seed = case
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        options = dict(
            wal_dir=tmp, redo_capacity=capacity, undo_capacity=capacity,
            segment_bytes=4096, sync=False,
        )
        mgr = LogManager(**options)
        redo_ref, undo_ref = (
            DequeWindow(capacity, RedoRecord.from_bytes),
            DequeWindow(capacity, UndoRecord.from_bytes),
        )
        for i, size in enumerate(sizes):
            key = rng.randrange(-(1 << 63), 1 << 63)
            undo = UndoRecord(i, "t", "update", key, rng.randbytes(size // 2)).to_bytes()
            redo = RedoRecord(i, "t", "update", key, rng.randbytes(size)).to_bytes()
            redo_lsn = mgr.append_row_change("t", undo, redo)
            undo_ref.admit(redo_lsn - len(undo), undo)
            redo_ref.admit(redo_lsn, redo)
            if rng.random() < 0.2:
                mgr.flush()
        assert_same_window(mgr.redo_log, redo_ref)
        assert_same_window(mgr.undo_log, undo_ref)
        mgr.close()
        resumed = LogManager(**options)
        # The restart reads the same window from the records on disk.
        assert_same_window(resumed.redo_log, redo_ref)
        assert_same_window(resumed.undo_log, undo_ref)
        resumed.close()


# -- the arrival log against a list ----------------------------------------------

OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(1, 6), st.integers(0, 1 << 40)),
        st.tuples(st.just("next"), st.just(0), st.just(0)),
    ),
    max_size=120,
)


class TestArrivalLog:
    @pytest.mark.parametrize("policy", list(SchedulingPolicy), ids=lambda p: p.value)
    @settings(deadline=None)
    @given(ops=OPERATIONS, capacity=st.integers(1, 8), seed=st.integers(0, 99))
    def test_arrivals_match_a_list(self, policy, ops, capacity, seed):
        sched = SessionScheduler(policy=policy, capacity=capacity, seed=seed)
        arrivals, depths, rejected, dispatched = [], [], 0, 0
        for op, session_id, ts in ops:
            if op == "submit":
                try:
                    request = sched.submit(session_id, "SELECT 1", ts)
                except SchedulerError:
                    rejected += 1
                else:
                    arrivals.append((request.seq, session_id, ts))
                    depths.append(sched.queue_depth)
            elif sched.next_request() is not None:
                dispatched += 1
                depths.append(sched.queue_depth)
            telemetry = sched.telemetry
            assert telemetry.arrivals == arrivals
            assert telemetry.as_dict() == {
                "arrivals": tuple(arrivals),
                "depth_samples": tuple(depths),
                "dispatched": dispatched,
                "rejected": rejected,
            }

    def test_a_value_outside_i64_leaves_no_partial_triple(self):
        sched = SessionScheduler()
        sched.submit(1, "SELECT 1", 7)
        with pytest.raises(OverflowError):
            sched.submit(2, "SELECT 1", 1 << 63)
        assert sched.telemetry.arrivals == [(0, 1, 7)]
        assert sched.queue_depth == 1
        assert sched.submit(2, "SELECT 1", 8).seq == 1
        assert sched.telemetry.arrivals == [(0, 1, 7), (1, 2, 8)]

    def test_arrival_log_is_one_array(self):
        sched = SessionScheduler(capacity=1 << 16)
        for i in range(20000):
            sched.submit(i % 7, "SELECT 1", 1_700_000_000 + i)
        flat = sched.telemetry._arrivals
        assert type(flat) is array and flat.typecode == "q"
        assert len(flat) == 3 * 20000
        # Eight bytes per field, plus the array's growth headroom.
        assert sys.getsizeof(flat) <= 24 * 20000 * 1.1 + 256


# -- footprint -------------------------------------------------------------------


def test_windows_retain_their_bytes_and_a_small_constant_per_record():
    """The windows retain nothing: once flushed, every body is only in the
    segment files, and the manager keeps a few objects of its own."""
    rng = random.Random(11)
    changes = []
    for i in range(20000):
        key = rng.randrange(1 << 40)
        before = rng.randbytes(rng.randint(0, 120))
        after = rng.randbytes(rng.randint(1, 120))
        changes.append(
            (
                UndoRecord(i, "t", "update", key, before),
                RedoRecord(i, "t", "update", key, after),
            )
        )
    with tempfile.TemporaryDirectory() as tmp:
        mgr = LogManager(wal_dir=tmp, sync=False)
        framed = 0
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for i, (undo_record, redo_record) in enumerate(changes):
                # Encoded here, as the engine does, so that only the
                # manager could hold the bodies once the loop moves on.
                undo, redo = undo_record.to_bytes(), redo_record.to_bytes()
                framed += 24 + len(undo) + len(redo)
                mgr.append_row_change("t", undo, redo)
                if i % 500 == 499:
                    mgr.flush()
                    if i == 4999:
                        # A read in between is served from the log and
                        # kept only until the next flush.
                        assert mgr.redo_log.num_records == i + 1
            del undo, redo
            mgr.flush()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        # Append-time windows held every framed body: over 4 MB here.
        assert framed > 4_000_000
        assert retained <= 16 * 1024
        for window in (mgr.redo_log, mgr.undo_log):
            assert window.num_records == len(changes)
            state = [getattr(window, name) for name in type(window).__slots__]
            assert not [v for v in state if isinstance(v, (bytes, bytearray, tuple))]
        mgr.close()
