import pytest

from repro.errors import BufferPoolError
from repro.storage.paged import BufferPoolManager, PagedPageType
from repro.storage.paged.node import LeafNode
from tests.page_files import temp_page_file


def make_file(space_id=1, name="t"):
    return temp_page_file(name, space_id=space_id)


def new_leaf(pool, file, entries=()):
    frame = pool.new_page(
        file, lambda pid: LeafNode(pid, [(k, v) for k, v in entries])
    )
    return frame


class TestFetchAndPin:
    def test_new_page_is_pinned_and_dirty(self):
        pool = BufferPoolManager(capacity=4)
        file = make_file()
        frame = new_leaf(pool, file)
        assert frame.pin_count == 1
        assert frame.dirty
        pool.unpin(frame)
        assert frame.pin_count == 0

    def test_fetch_hit_vs_miss_stats(self):
        pool = BufferPoolManager(capacity=4)
        file = make_file()
        frame = new_leaf(pool, file)
        pid = frame.page_id
        pool.unpin(frame, dirty=True)
        pool.flush_all()

        again = pool.fetch(file, pid)
        pool.unpin(again)
        assert pool.stats["hits"] == 1
        assert pool.stats["misses"] == 0

        pool.clear()
        cold = pool.fetch(file, pid)
        pool.unpin(cold)
        assert pool.stats["misses"] == 1

    def test_unpin_below_zero_rejected(self):
        pool = BufferPoolManager(capacity=4)
        file = make_file()
        frame = new_leaf(pool, file)
        pool.unpin(frame)
        with pytest.raises(BufferPoolError):
            pool.unpin(frame)


class TestEviction:
    def _fill(self, pool, file, count, payload=b"x" * 64):
        pids = []
        for i in range(count):
            frame = new_leaf(pool, file, [(i, payload)])
            pids.append(frame.page_id)
            pool.unpin(frame, dirty=True)
        return pids

    def test_capacity_is_enforced(self):
        pool = BufferPoolManager(capacity=8)
        file = make_file()
        self._fill(pool, file, 50)
        assert pool.stats["resident"] <= 8
        assert pool.stats["evictions"] >= 42

    def test_evicted_dirty_pages_are_written_back(self):
        pool = BufferPoolManager(capacity=4)
        file = make_file()
        pids = self._fill(pool, file, 12)
        # Every evicted page must be readable from disk with its contents.
        for i, pid in enumerate(pids):
            if not pool.contains(file.space_id, pid):
                image = file.read_page(pid)
                assert image.page_type is PagedPageType.INDEX_LEAF
        assert pool.stats["writebacks"] >= 8

    def test_pinned_frames_are_never_evicted(self):
        pool = BufferPoolManager(capacity=4)
        file = make_file()
        pinned = [new_leaf(pool, file, [(i, b"p")]) for i in range(4)]
        with pytest.raises(BufferPoolError, match="pinned"):
            new_leaf(pool, file, [(99, b"q")])
        for frame in pinned:
            pool.unpin(frame, dirty=True)
        extra = new_leaf(pool, file, [(99, b"q")])
        pool.unpin(extra, dirty=True)

    def test_lru_picks_least_recent(self):
        pool = BufferPoolManager(capacity=3)
        file = make_file()
        pids = self._fill(pool, file, 3)
        # Touch the first page so the second becomes the LRU victim.
        frame = pool.fetch(file, pids[0])
        pool.unpin(frame)
        self._fill(pool, file, 1)
        assert pool.contains(file.space_id, pids[0])
        assert not pool.contains(file.space_id, pids[1])

    def test_policies_preserve_contents(self):
        pool = BufferPoolManager(capacity=4)
        file = make_file()
        pids = self._fill(pool, file, 30)
        for i, pid in enumerate(pids):
            frame = pool.fetch(file, pid)
            assert frame.node.entries[0][0] == i
            pool.unpin(frame)


class TestEvictionCornerCases:
    def test_all_frames_pinned_exact_error(self):
        capacity = 4
        pool = BufferPoolManager(capacity=capacity)
        file = make_file()
        pinned = [new_leaf(pool, file, [(i, b"p")]) for i in range(capacity)]
        with pytest.raises(
            BufferPoolError,
            match=f"all {capacity} frames are pinned; cannot evict",
        ):
            new_leaf(pool, file, [(99, b"q")])
        # The failed install must not corrupt the pool: every original
        # frame is still resident and still holds its single pin.
        assert pool.stats["resident"] == capacity
        assert pool.stats["pinned"] == capacity
        for frame in pinned:
            assert frame.pin_count == 1
            pool.unpin(frame, dirty=True)

    def test_wal_rule_log_flushed_before_page_write(self):
        # Regression for the WAL rule: the log_flusher hook must run
        # (and be given a covering LSN) strictly before the dirty page's
        # bytes reach the file — on eviction, flush, and checkpoint alike.
        events = []
        lsn = [100]
        pool = BufferPoolManager(
            capacity=4,
            lsn_source=lambda: lsn[0],
            log_flusher=lambda up_to: events.append(("log_flush", up_to)),
        )
        file = make_file()
        real_write = file.write_page

        def recording_write(page_id, image):
            events.append(("page_write", page_id))
            return real_write(page_id, image)

        file.write_page = recording_write

        frame = new_leaf(pool, file, [(1, b"v")])
        assert frame.rec_lsn == 100  # stamped on the clean->dirty edge
        lsn[0] = 250
        pool.unpin(frame, dirty=True)  # re-dirty: page-LSN advances to 250
        lsn[0] = 999  # the clock moves on, but the page does not
        pool.flush_page(file, frame.page_id)

        assert [kind for kind, _ in events] == ["log_flush", "page_write"]
        # The flush target is the frame's own page-LSN, not the engine's
        # end LSN — flushing to 999 on every write-back would force a full
        # log flush regardless of what the log already covers.
        assert events[0][1] == 250
        assert file.read_page(frame.page_id).page_lsn == 250
        assert not frame.dirty and frame.rec_lsn == 0

        # Checkpoint obeys the same ordering for every dirty frame.
        events.clear()
        pool.mark_dirty(frame)
        pool.checkpoint()
        kinds = [kind for kind, _ in events]
        assert kinds.index("log_flush") < kinds.index("page_write")

    def test_rec_lsn_sticks_to_first_dirtier(self):
        # Re-dirtying an already-dirty frame must not advance rec_lsn:
        # redo has to reach back to the *first* unflushed change.
        lsn = [7]
        pool = BufferPoolManager(capacity=4, lsn_source=lambda: lsn[0])
        file = make_file()
        frame = new_leaf(pool, file, [(1, b"v")])
        assert frame.rec_lsn == 7
        lsn[0] = 90
        pool.mark_dirty(frame)
        assert frame.rec_lsn == 7
        assert frame.page_lsn == 90  # ...while page-LSN tracks the latest
        assert pool.dirty_page_table() == ((file.name, frame.page_id, 7),)
        pool.unpin(frame, dirty=True)


class TestFlushAndCheckpoint:
    def test_flush_all_clears_dirty(self):
        pool = BufferPoolManager(capacity=8)
        file = make_file()
        frame = new_leaf(pool, file, [(1, b"v")])
        pool.unpin(frame, dirty=True)
        pool.flush_all()
        assert all(not f.dirty for f in pool.frames())
        assert file.read_page(frame.page_id).n_entries == 1

    def test_checkpoint_stamps_header_lsn(self):
        lsn = [50]
        pool = BufferPoolManager(capacity=8, lsn_source=lambda: lsn[0])
        file = make_file()
        frame = new_leaf(pool, file, [(1, b"v")])
        pool.unpin(frame, dirty=True)
        lsn[0] = 77
        pool.checkpoint()
        assert file.checkpoint_lsn == 77
        # The page image carries its own last-dirty LSN, not the clock's.
        assert file.read_page(frame.page_id).page_lsn == 50

    def test_free_page_drops_without_writeback(self):
        pool = BufferPoolManager(capacity=8)
        file = make_file()
        frame = new_leaf(pool, file, [(1, b"old-bytes")])
        pid = frame.page_id
        pool.unpin(frame, dirty=True)
        pool.flush_all()
        # Dirty the frame again, then free: the *flushed* image must survive.
        frame = pool.fetch(file, pid)
        frame.node.entries[0] = (1, b"new-bytes")
        pool.unpin(frame, dirty=True)
        pool.free_page(file, pid)
        image = file.read_page(pid)
        assert image.page_type is PagedPageType.FREE
        assert b"old-bytes" in image.payload
        assert b"new-bytes" not in image.payload

    def test_free_pinned_page_rejected(self):
        pool = BufferPoolManager(capacity=8)
        file = make_file()
        frame = new_leaf(pool, file)
        with pytest.raises(BufferPoolError):
            pool.free_page(file, frame.page_id)
        pool.unpin(frame, dirty=True)

    def test_clear_with_pins_rejected(self):
        pool = BufferPoolManager(capacity=8)
        file = make_file()
        frame = new_leaf(pool, file)
        with pytest.raises(BufferPoolError):
            pool.clear()
        pool.unpin(frame, dirty=True)
        pool.clear()
        assert pool.stats["resident"] == 0


class TestDump:
    def test_dump_reflects_resident_frames_mru_first(self):
        pool = BufferPoolManager(capacity=8)
        file = make_file(space_id=5)
        pids = []
        for i in range(3):
            frame = new_leaf(pool, file, [(i, b"v")])
            pids.append(frame.page_id)
            pool.unpin(frame, dirty=True)
        dump = pool.dump()
        assert [ref.page_id for ref in dump.entries] == list(reversed(pids))
        assert all(ref.space_id == 5 for ref in dump.entries)

    def test_read_node_does_not_touch_recency(self):
        pool = BufferPoolManager(capacity=8)
        file = make_file()
        frame = new_leaf(pool, file, [(1, b"v")])
        pid = frame.page_id
        pool.unpin(frame, dirty=True)
        before = [r.page_id for r in pool.lru_order()]
        hits = pool.stats["hits"]
        node = pool.read_node(file, pid)
        assert node.entries[0][0] == 1
        assert [r.page_id for r in pool.lru_order()] == before
        assert pool.stats["hits"] == hits
