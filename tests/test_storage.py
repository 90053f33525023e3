"""Unit and property tests for records, page images, tablespace files, and
the buffer pool."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BufferPoolError, PageError, RecordError, StorageError
from repro.storage import BufferPoolManager, PageFile, decode_row, encode_row
from repro.storage.paged import PagedPageType
from repro.storage.paged.format import unpack_page
from repro.storage.paged.node import (
    LEAF_ENTRY_OVERHEAD,
    MAX_LEAF_PAYLOAD,
    InternalNode,
    LeafNode,
    decode_node,
)
from repro.storage.record import row_size
from tests.page_files import temp_page_file

value_strategy = st.one_of(
    st.none(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.text(max_size=50),
    st.binary(max_size=50),
)


class TestRecordCodec:
    def test_roundtrip_mixed(self):
        row = (1, "bob", b"\x00\xff", None)
        decoded, _ = decode_row(encode_row(row))
        assert decoded == row

    def test_empty_row(self):
        decoded, _ = decode_row(encode_row(()))
        assert decoded == ()

    def test_int_bounds(self):
        for value in (-(2**63), 2**63 - 1):
            decoded, _ = decode_row(encode_row((value,)))
            assert decoded == (value,)

    def test_int_overflow_rejected(self):
        with pytest.raises(RecordError):
            encode_row((2**63,))

    def test_bool_rejected(self):
        with pytest.raises(RecordError):
            encode_row((True,))

    def test_unsupported_type_rejected(self):
        with pytest.raises(RecordError):
            encode_row((3.5,))

    def test_truncated_rejected(self):
        blob = encode_row((12345,))
        with pytest.raises(RecordError):
            decode_row(blob[:-2])

    def test_row_size_matches(self):
        row = (7, "hello")
        assert row_size(row) == len(encode_row(row))

    @settings(max_examples=80)
    @given(st.lists(value_strategy, max_size=8))
    def test_roundtrip_property(self, values):
        row = tuple(values)
        decoded, _ = decode_row(encode_row(row))
        assert decoded == row


class TestPage:
    """A leaf page decoded into its frame: sorted ``(key, payload)`` slots."""

    def test_insert_read(self):
        leaf = LeafNode(1)
        leaf.insert_entry(0, 5, b"hello")
        assert leaf.entries == [(5, b"hello")]
        assert decode_node(unpack_page(leaf.serialize())).entries == [(5, b"hello")]

    def test_insert_at_slot(self):
        leaf = LeafNode(1)
        leaf.insert_entry(0, 2, b"b")
        leaf.insert_entry(0, 1, b"a")
        assert leaf.entries == [(1, b"a"), (2, b"b")]

    def test_replace_returns_old(self):
        leaf = LeafNode(1, [(1, b"old")])
        assert leaf.replace_entry(0, 1, b"new") == b"old"
        assert leaf.entries == [(1, b"new")]

    def test_delete_returns_old(self):
        leaf = LeafNode(1, [(1, b"x")])
        assert leaf.pop_entry(0) == (1, b"x")
        assert leaf.entries == []

    def test_overflow_rejected(self):
        leaf = LeafNode(1)
        with pytest.raises(StorageError, match="cannot fit"):
            leaf.insert_entry(0, 1, b"x" * (MAX_LEAF_PAYLOAD + 1))
        assert leaf.entries == []

    def test_free_bytes_accounting(self):
        leaf = LeafNode(1)
        leaf.insert_entry(0, 1, b"abcd")
        assert leaf.used_bytes == LEAF_ENTRY_OVERHEAD + 4
        leaf.pop_entry(0)
        assert leaf.used_bytes == 0

    def test_bad_slot_rejected(self):
        # A header claiming more slots than the page holds.
        raw = LeafNode(1, [(1, b"v")]).serialize()
        image = unpack_page(raw)
        image.n_entries = 400
        with pytest.raises(PageError):
            decode_node(image)

    def test_negative_page_id_rejected(self):
        file = temp_page_file("t", space_id=1)
        with pytest.raises(PageError, match="out of range"):
            file.read_page(-1)

    def test_serialization_roundtrip(self):
        node = InternalNode(3, level=2, entries=[(-5, 7), (10, 8)])
        image = unpack_page(node.serialize(), expected_page_id=3)
        restored = decode_node(image)
        assert restored.page_id == 3
        assert image.page_type is PagedPageType.INDEX_INTERNAL
        assert restored.level == 2
        assert restored.entries == [(-5, 7), (10, 8)]


def write_node(file, make=LeafNode):
    """Allocate a page and write ``make(page_id)`` into it."""
    page_id = file.allocate()
    file.write_page(page_id, make(page_id).serialize())
    return page_id


class TestTablespace:
    def test_allocate_sequential_ids(self):
        file = temp_page_file("t", space_id=1)
        assert file.allocate() == 1  # page 0 is the tablespace header
        assert file.allocate() == 2

    def test_page_lookup(self):
        file = temp_page_file("t", space_id=1)
        page_id = write_node(file, lambda pid: LeafNode(pid, [(1, b"row")]))
        image = file.read_page(page_id)
        assert image.page_id == page_id
        assert decode_node(image).entries == [(1, b"row")]

    def test_unknown_page_rejected(self):
        file = temp_page_file("t", space_id=1)
        with pytest.raises(StorageError):
            file.read_page(99)

    def test_free(self):
        file = temp_page_file("t", space_id=1)
        page_id = write_node(file)
        file.free(page_id)
        assert file.free_list() == [page_id]
        with pytest.raises(StorageError):
            file.free(page_id)

    def test_serialization_roundtrip(self, tmp_path):
        file = temp_page_file("customers", space_id=7)
        page_id = write_node(file, lambda pid: LeafNode(pid, [(1, b"row-bytes")]))
        copy = tmp_path / "copy.ibd"
        copy.write_bytes(file.to_bytes())
        restored = PageFile(str(copy), "?")
        assert restored.space_id == 7
        assert restored.name == "customers"
        assert decode_node(restored.read_page(page_id)).entries == [(1, b"row-bytes")]
        # id allocation continues past restored pages
        assert restored.allocate() == page_id + 1


def pool_and_pages(capacity, pages=4, space_id=1):
    """A pool over a file of ``pages`` leaf pages (ids 1..pages)."""
    file = temp_page_file("t", space_id=space_id)
    for _ in range(pages):
        write_node(file)
    return BufferPoolManager(capacity=capacity), file


def touch(pool, file, page_id):
    pool.unpin(pool.fetch(file, page_id))


class TestBufferPool:
    def test_touch_and_contains(self):
        pool, file = pool_and_pages(capacity=4)
        touch(pool, file, 1)
        assert pool.contains(1, 1)
        assert not pool.contains(1, 2)

    def test_lru_eviction(self):
        pool, file = pool_and_pages(capacity=2)
        touch(pool, file, 1)
        touch(pool, file, 2)
        touch(pool, file, 3)  # evicts page 1
        assert not pool.contains(1, 1)
        assert pool.contains(1, 2)
        assert pool.contains(1, 3)

    def test_touch_refreshes_recency(self):
        pool, file = pool_and_pages(capacity=2)
        touch(pool, file, 1)
        touch(pool, file, 2)
        touch(pool, file, 1)  # page 1 now MRU
        touch(pool, file, 3)  # evicts page 2
        assert pool.contains(1, 1)
        assert not pool.contains(1, 2)

    def test_access_counts(self):
        pool, file = pool_and_pages(capacity=4)
        for _ in range(5):
            touch(pool, file, 3)
        assert pool.access_count(1, 3) == 5
        assert pool.access_count(1, 2) == 0

    def test_stats(self):
        pool, file = pool_and_pages(capacity=2)
        for page_id in (1, 1, 2, 3):
            touch(pool, file, page_id)
        stats = pool.stats
        assert stats["hits"] == 1
        assert stats["misses"] == 3
        assert stats["evictions"] == 1

    def test_dump_mru_first(self):
        file = temp_page_file("t", space_id=1)
        write_node(file, lambda pid: InternalNode(pid, 2))
        write_node(file, lambda pid: InternalNode(pid, 1))
        write_node(file)
        pool = BufferPoolManager(capacity=4)
        for page_id in (1, 2, 3):
            touch(pool, file, page_id)
        dump = pool.dump()
        assert [e.page_id for e in dump.entries] == [3, 2, 1]
        assert [e.level for e in dump.entries] == [0, 1, 2]

    def test_dump_text_format(self):
        pool, file = pool_and_pages(capacity=4, space_id=5)
        touch(pool, file, 2)
        assert "5,2,0,1" in pool.dump().to_text()

    def test_clear(self):
        pool, file = pool_and_pages(capacity=4)
        touch(pool, file, 1)
        pool.clear()
        assert pool.resident_pages == 0

    def test_bad_capacity(self):
        with pytest.raises(BufferPoolError):
            BufferPoolManager(capacity=0)

    @given(st.lists(st.integers(1, 20), min_size=1, max_size=200))
    def test_capacity_never_exceeded(self, accesses):
        pool, file = pool_and_pages(capacity=5, pages=20)
        for page_id in accesses:
            touch(pool, file, page_id)
        assert pool.resident_pages <= 5
