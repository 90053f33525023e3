"""Ring-buffer invariants: circular logs and the obs trace store.

Both families of bounded buffers share the same forensic property: the
*structured* view is bounded, but eviction destroys nothing by itself —
circular logs overwrite only when new bytes arrive, and the trace store
frees heap blocks without zeroing.
"""

import pytest

from repro.errors import LogError, ObsError
from repro.forensics import carve_spans
from repro.memory import SimulatedHeap
from repro.obs import SPAN_MAGIC, TraceStore
from repro.wal.records import RedoRecord, UndoRecord


def _redo(i, table="t", image=b"x" * 10):
    return RedoRecord(txn_id=i, table=table, op="insert", key=i, after_image=image)


def _undo(i, table="t", image=b""):
    return UndoRecord(txn_id=i, table=table, op="insert", key=i, before_image=image)


def _append(wal, i):
    """Log insert ``i``: an empty undo body, then ``_redo(i)``."""
    return wal.append_row_change("t", _undo(i).to_bytes(), _redo(i).to_bytes())


class TestCircularLog:
    """The engine's redo/undo windows: the LogManager's retention streams."""

    def test_capacity_must_be_positive(self, make_wal):
        for capacity in (0, -1):
            with pytest.raises(LogError):
                make_wal(redo_capacity=capacity)
            with pytest.raises(LogError):
                make_wal(undo_capacity=capacity)

    def test_oversized_record_rejected(self, make_wal):
        wal = make_wal(redo_capacity=8)
        with pytest.raises(LogError):
            _append(wal, 1)
        assert wal.lsn.current == 0  # rejected before any LSN is assigned

    def test_wraps_exactly_at_byte_capacity(self, make_wal):
        record = _redo(1)
        size = len(record.to_bytes())
        wal = make_wal(redo_capacity=size * 3)  # room for exactly 3 records
        log = wal.redo_stream
        for i in range(3):
            _append(wal, i)
        assert log.num_records == 3
        assert log.total_evicted == 0
        assert log.used_bytes == size * 3

        _append(wal, 3)  # one byte over -> oldest goes
        assert log.num_records == 3
        assert log.total_evicted == 1
        assert log.used_bytes == size * 3
        assert [r.txn_id for r in log.records()] == [1, 2, 3]

    def test_lsn_strictly_increases_across_eviction(self, make_wal):
        size = len(_undo(1).to_bytes())
        wal = make_wal(undo_capacity=size * 2)
        # Each undo body is stamped right before its redo body.
        lsns = [_append(wal, i) - size for i in range(6)]
        assert lsns == sorted(lsns)
        assert len(set(lsns)) == len(lsns)
        assert wal.undo_stream.oldest_lsn == lsns[-2]
        assert wal.undo_stream.newest_lsn == lsns[-1]

    def test_raw_bytes_covers_only_retained_records(self, make_wal):
        record = _redo(1)
        size = len(record.to_bytes())
        wal = make_wal(redo_capacity=size * 2)
        for i in range(5):
            _append(wal, i)
        log = wal.redo_stream
        raw = log.raw_bytes()
        # lsn(8) + len(4) framing per record
        assert len(raw) == 2 * (8 + 4 + size)
        assert log.total_appended == 5
        assert log.total_evicted == 3


class TestTraceStoreRing:
    def test_capacity_must_be_positive(self):
        for capacity in (0, -3):
            with pytest.raises(ObsError):
                TraceStore(SimulatedHeap(), capacity)

    def test_wraps_exactly_at_slot_capacity(self):
        store = TraceStore(SimulatedHeap(), capacity=3)
        payloads = [SPAN_MAGIC + bytes([i]) * 8 for i in range(3)]
        for payload in payloads:
            store.append(payload)
        assert store.num_records == 3
        assert store.total_evicted == 0
        assert store.raw_records() == payloads

        extra = SPAN_MAGIC + b"\xff" * 8
        store.append(extra)
        assert store.num_records == 3
        assert store.total_evicted == 1
        assert store.raw_records() == payloads[1:] + [extra]

    def test_eviction_leaves_heap_residue(self):
        heap = SimulatedHeap()
        store = TraceStore(heap, capacity=1)
        first = SPAN_MAGIC + b"A" * 20
        second = SPAN_MAGIC + b"B" * 24  # different size: no slot reuse
        store.append(first)
        store.append(second)
        assert store.raw_records() == [second]
        arena = heap.snapshot()
        assert first in arena  # evicted but never zeroed
        assert second in arena

    def test_secure_delete_zeroes_evicted_slots(self):
        heap = SimulatedHeap(secure_delete=True)
        store = TraceStore(heap, capacity=1)
        first = SPAN_MAGIC + b"A" * 20
        store.append(first)
        store.append(SPAN_MAGIC + b"B" * 24)
        assert first not in heap.snapshot()

    def test_clear_empties_view_but_not_memory(self):
        heap = SimulatedHeap()
        store = TraceStore(heap, capacity=4)
        payload = SPAN_MAGIC + b"C" * 16
        store.append(payload)
        store.clear()
        assert store.num_records == 0
        assert store.raw_bytes() == b""
        assert payload in heap.snapshot()

    def test_carver_reads_residue_the_view_lost(self):
        heap = SimulatedHeap()
        store = TraceStore(heap, capacity=1)
        from repro.obs import SpanRecord

        for i in range(4):
            record = SpanRecord(
                trace_id=i + 1,
                span_id=1,
                parent_id=0,
                name="query",
                detail=f"digest-{i}",
            )
            # Vary the size so freed slots are not reused and residue stays.
            store.append(record.to_bytes() + b"\x00" * i)
        carved = carve_spans(heap.snapshot())
        assert {span.detail for span in carved} == {
            "digest-0",
            "digest-1",
            "digest-2",
            "digest-3",
        }
        assert store.num_records == 1
