import os

import pytest

from repro.errors import PageError, StorageError
from repro.storage.paged import (
    PAGE_CAPACITY,
    PAGE_HEADER_SIZE,
    PAGED_PAGE_SIZE,
    PageFile,
    PagedPageType,
)
from repro.storage.paged import page_file
from repro.storage.paged.format import NO_PAGE, checksum_of, pack_page, unpack_page


class TestPageImage:
    def test_roundtrip(self):
        raw = pack_page(7, PagedPageType.INDEX_LEAF, 0, 42, 3, 9, 2, b"payload")
        assert len(raw) == PAGED_PAGE_SIZE
        image = unpack_page(raw, expected_page_id=7)
        assert image.page_id == 7
        assert image.page_type is PagedPageType.INDEX_LEAF
        assert image.level == 0
        assert image.page_lsn == 42
        assert image.prev_page == 3
        assert image.next_page == 9
        assert image.n_entries == 2
        assert image.payload.startswith(b"payload")
        assert len(image.payload) == PAGE_CAPACITY

    def test_checksum_covers_payload(self):
        raw = pack_page(1, PagedPageType.INDEX_LEAF, 0, 0, 0, 0, 1, b"abc")
        corrupted = raw[:PAGE_HEADER_SIZE] + b"X" + raw[PAGE_HEADER_SIZE + 1 :]
        with pytest.raises(PageError, match="checksum mismatch"):
            unpack_page(corrupted)

    def test_checksum_covers_header_fields(self):
        raw = pack_page(1, PagedPageType.INDEX_LEAF, 0, 0, 0, 0, 1, b"abc")
        # Flip the level field (offset 10) without refreshing the checksum.
        corrupted = raw[:10] + b"\x05\x00" + raw[12:]
        with pytest.raises(PageError, match="checksum mismatch"):
            unpack_page(corrupted)

    def test_wrong_slot_detected(self):
        raw = pack_page(4, PagedPageType.INDEX_LEAF, 0, 0, 0, 0, 0, b"")
        with pytest.raises(PageError, match="claims id 4"):
            unpack_page(raw, expected_page_id=5)

    def test_oversized_payload_rejected(self):
        with pytest.raises(PageError, match="exceeds"):
            pack_page(1, PagedPageType.INDEX_LEAF, 0, 0, 0, 0, 0, b"x" * (PAGE_CAPACITY + 1))

    def test_bad_length_rejected(self):
        with pytest.raises(PageError, match="must be"):
            unpack_page(b"\x00" * 100)

    def test_checksum_of_skips_checksum_field(self):
        raw = pack_page(2, PagedPageType.INDEX_LEAF, 0, 0, 0, 0, 0, b"data")
        # Changing the stored checksum itself must not change the computed one.
        assert checksum_of(b"\xff" * 4 + raw[4:]) == checksum_of(raw)


class TestPageFile:
    def test_allocate_write_read(self, tmp_path):
        file = PageFile(str(tmp_path / "t.ibd"), "t", space_id=3)
        pid = file.allocate()
        assert pid != NO_PAGE
        raw = pack_page(pid, PagedPageType.INDEX_LEAF, 0, 1, 0, 0, 1, b"row")
        file.write_page(pid, raw)
        image = file.read_page(pid)
        assert image.payload.startswith(b"row")
        file.close()

    def test_header_page_zero_reserved(self, tmp_path):
        file = PageFile(str(tmp_path / "t.ibd"), "t", space_id=3)
        first = file.allocate()
        assert first >= 1
        with pytest.raises(PageError):
            file.read_page(0)

    def test_reopen_preserves_header(self, tmp_path):
        path = str(tmp_path / "t.ibd")
        file = PageFile(path, "t", space_id=9)
        pids = [file.allocate() for _ in range(4)]
        for pid in pids:
            file.write_page(
                pid, pack_page(pid, PagedPageType.INDEX_LEAF, 0, 0, 0, 0, 0, b"")
            )
        file.free(pids[1])
        file.clustered_root = pids[0]
        file.clustered_size = 17
        file.mark_header_dirty()
        file.flush_header()
        file.close()

        again = PageFile(path, "t")
        assert again.space_id == 9
        assert again.name == "t"
        assert again.num_pages == file.num_pages
        assert again.clustered_root == pids[0]
        assert again.clustered_size == 17
        assert again.free_list() == [pids[1]]
        again.close()

    def test_free_list_reuse(self, tmp_path):
        file = PageFile(str(tmp_path / "t.ibd"), "t", space_id=1)
        a = file.allocate()
        b = file.allocate()
        file.write_page(a, pack_page(a, PagedPageType.INDEX_LEAF, 0, 0, 0, 0, 0, b""))
        file.write_page(b, pack_page(b, PagedPageType.INDEX_LEAF, 0, 0, 0, 0, 0, b""))
        file.free(a)
        file.free(b)
        assert file.free_list() == [b, a]
        # LIFO reuse off the free-list head.
        assert file.allocate() == b
        assert file.allocate() == a
        assert file.free_list() == []

    def test_free_preserves_payload_residue(self, tmp_path):
        file = PageFile(str(tmp_path / "t.ibd"), "t", space_id=1)
        pid = file.allocate()
        secret = b"PLAINTEXT-SECRET-ROW"
        file.write_page(
            pid, pack_page(pid, PagedPageType.INDEX_LEAF, 0, 5, 0, 0, 1, secret)
        )
        file.free(pid)
        image = file.read_page(pid)
        assert image.page_type is PagedPageType.FREE
        # Only the header was rewritten: the row bytes are still carvable.
        assert secret in image.payload

    def test_to_bytes_page_aligned(self, tmp_path):
        file = PageFile(str(tmp_path / "t.ibd"), "t", space_id=1)
        for _ in range(3):
            pid = file.allocate()
            file.write_page(
                pid, pack_page(pid, PagedPageType.INDEX_LEAF, 0, 0, 0, 0, 0, b"")
            )
        blob = file.to_bytes()
        assert len(blob) % PAGED_PAGE_SIZE == 0
        assert len(blob) == file.num_pages * PAGED_PAGE_SIZE

    def test_verify_all(self, tmp_path):
        file = PageFile(str(tmp_path / "t.ibd"), "t", space_id=1)
        for _ in range(5):
            pid = file.allocate()
            file.write_page(
                pid, pack_page(pid, PagedPageType.INDEX_LEAF, 0, 0, 0, 0, 0, b"v")
            )
        file.verify_all()

    def test_corrupt_header_raises_and_leaves_no_handle(self, tmp_path, monkeypatch):
        path = tmp_path / "t.ibd"
        PageFile(str(path), "t", space_id=1).close()
        data = bytearray(path.read_bytes())
        data[PAGE_HEADER_SIZE] ^= 0xFF  # the header page's CRC no longer matches
        path.write_bytes(bytes(data))
        opened = []

        def recording_open(*args, **kwargs):
            handle = open(*args, **kwargs)
            opened.append(handle)
            return handle

        monkeypatch.setattr(page_file, "open", recording_open, raising=False)
        with pytest.raises(PageError):
            PageFile(str(path), "t")
        assert len(opened) == 1
        assert opened[0].closed

    def test_out_of_range_read(self, tmp_path):
        file = PageFile(str(tmp_path / "t.ibd"), "t", space_id=1)
        with pytest.raises(PageError):
            file.read_page(99)

    def test_pwritten_page_survives_crash_close_and_reopen(self, tmp_path):
        path = tmp_path / "t.ibd"
        file = PageFile(str(path), "t", space_id=4)
        pid = file.allocate()
        raw = pack_page(pid, PagedPageType.INDEX_LEAF, 0, 11, 0, 0, 1, b"durable-row")
        file.write_page(pid, raw)
        file.flush()
        # The file object holds no bytes of its own: the image is the disk.
        assert file.to_bytes() == path.read_bytes()
        file.crash_close()
        assert path.read_bytes()[pid * PAGED_PAGE_SIZE:(pid + 1) * PAGED_PAGE_SIZE] == raw
        again = PageFile(str(path), "t")
        assert again.num_pages == pid + 1
        assert again.to_bytes()[pid * PAGED_PAGE_SIZE:(pid + 1) * PAGED_PAGE_SIZE] == raw
        assert again.read_page(pid).payload.startswith(b"durable-row")
        again.close()

    def test_free_rewrites_only_the_header(self, tmp_path):
        path = tmp_path / "t.ibd"
        file = PageFile(str(path), "t", space_id=1)
        pid = file.allocate()
        secret = b"PLAINTEXT-SECRET-ROW"
        file.write_page(
            pid, pack_page(pid, PagedPageType.INDEX_LEAF, 0, 5, 0, 0, 1, secret)
        )
        before = path.read_bytes()[pid * PAGED_PAGE_SIZE:(pid + 1) * PAGED_PAGE_SIZE]
        file.free(pid)
        after = path.read_bytes()[pid * PAGED_PAGE_SIZE:(pid + 1) * PAGED_PAGE_SIZE]
        assert after[PAGE_HEADER_SIZE:] == before[PAGE_HEADER_SIZE:]
        assert after[:PAGE_HEADER_SIZE] != before[:PAGE_HEADER_SIZE]
        assert file.to_bytes()[pid * PAGED_PAGE_SIZE:(pid + 1) * PAGED_PAGE_SIZE] == after
        file.close()

    def test_short_write_raises(self, tmp_path, monkeypatch):
        file = PageFile(str(tmp_path / "t.ibd"), "t", space_id=1)
        pid = file.allocate()
        raw = pack_page(pid, PagedPageType.INDEX_LEAF, 0, 0, 0, 0, 0, b"")
        monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: len(data) - 1)
        with pytest.raises(StorageError, match="short write of page"):
            file.write_page(pid, raw)
        monkeypatch.undo()
        file.close()
