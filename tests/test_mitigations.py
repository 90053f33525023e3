"""Tests for the history-independent index (paper §7 mitigation)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.mitigations import HistoryIndependentIndex
from repro.storage import BufferPoolManager, PagedBTree
from tests.page_files import temp_page_file


class TestBasicOps:
    def test_insert_get(self):
        index = HistoryIndependentIndex()
        index.insert(5, b"five")
        assert index.get(5) == b"five"
        assert index.get(6) is None

    def test_duplicate_rejected(self):
        index = HistoryIndependentIndex()
        index.insert(1, b"a")
        with pytest.raises(StorageError):
            index.insert(1, b"b")

    def test_delete(self):
        index = HistoryIndependentIndex()
        index.insert(1, b"a")
        assert index.delete(1) == b"a"
        assert index.get(1) is None
        with pytest.raises(StorageError):
            index.delete(1)

    def test_range(self):
        index = HistoryIndependentIndex()
        for k in (5, 1, 9, 3):
            index.insert(k, str(k).encode())
        assert [k for k, _ in index.range(2, 6)] == [3, 5]
        assert [k for k, _ in index.range(None, None)] == [1, 3, 5, 9]

    def test_iteration_sorted(self):
        index = HistoryIndependentIndex()
        for k in (7, 2, 4):
            index.insert(k, b"")
        assert [k for k, _ in index] == [2, 4, 7]

    def test_bad_capacity(self):
        with pytest.raises(StorageError):
            HistoryIndependentIndex(page_capacity=0)


class TestUniqueRepresentation:
    """The defining property: representation is a function of contents only."""

    def test_insertion_order_invariance(self):
        keys = list(range(50))
        rng = random.Random(0)
        images = set()
        for _ in range(5):
            order = keys[:]
            rng.shuffle(order)
            index = HistoryIndependentIndex(page_capacity=8)
            for k in order:
                index.insert(k, str(k).encode())
            images.add(index.to_bytes())
        assert len(images) == 1

    def test_deletes_leave_no_residue(self):
        direct = HistoryIndependentIndex(page_capacity=8)
        for k in (1, 2, 3):
            direct.insert(k, str(k).encode())

        churned = HistoryIndependentIndex(page_capacity=8)
        for k in (9, 1, 7, 2, 3, 5):
            churned.insert(k, str(k).encode())
        for k in (9, 7, 5):
            churned.delete(k)
        assert churned.to_bytes() == direct.to_bytes()

    def test_btree_by_contrast_leaks_insertion_history(self):
        """The default structure's images differ by insertion order."""

        def build(order):
            pool = BufferPoolManager(capacity=64)
            file = temp_page_file("t", space_id=1)
            tree = PagedBTree(pool, file)
            for k in order:
                tree.insert(k, str(k).encode().ljust(1000, b"."))
            pool.flush_all()
            return file.to_bytes()

        ascending = build(list(range(40)))
        descending = build(list(reversed(range(40))))
        assert ascending != descending  # page layout encodes history

    def test_serialization_roundtrip(self):
        index = HistoryIndependentIndex(page_capacity=4)
        for k in (3, 1, 4, 1 + 4, 9, 2, 6):
            index.insert(k, bytes([k]))
        restored = HistoryIndependentIndex.from_bytes(index.to_bytes())
        assert list(restored) == list(index)
        assert restored.to_bytes() == index.to_bytes()

    def test_non_canonical_image_rejected(self):
        a = HistoryIndependentIndex(page_capacity=4)
        a.insert(2, b"x")
        b = HistoryIndependentIndex(page_capacity=4)
        b.insert(1, b"y")
        # Splice b's page after a's to fabricate out-of-order keys.
        image_a = a.to_bytes()
        image_b = b.to_bytes()
        forged = image_a[:4] + (2).to_bytes(4, "little") + image_a[8:] + image_b[8:]
        with pytest.raises(StorageError):
            HistoryIndependentIndex.from_bytes(forged)

    @settings(max_examples=25, deadline=None)
    @given(st.permutations(list(range(20))))
    def test_unique_representation_property(self, order):
        canonical = HistoryIndependentIndex(page_capacity=6)
        for k in sorted(order):
            canonical.insert(k, str(k).encode())
        shuffled = HistoryIndependentIndex(page_capacity=6)
        for k in order:
            shuffled.insert(k, str(k).encode())
        assert shuffled.to_bytes() == canonical.to_bytes()

    @settings(max_examples=20, deadline=None)
    @given(
        st.sets(st.integers(0, 100), min_size=1, max_size=30),
        st.sets(st.integers(101, 200), max_size=15),
    )
    def test_insert_delete_churn_property(self, keep, churn):
        direct = HistoryIndependentIndex(page_capacity=5)
        for k in sorted(keep):
            direct.insert(k, b"v")
        noisy = HistoryIndependentIndex(page_capacity=5)
        for k in sorted(keep | churn, reverse=True):
            noisy.insert(k, b"v")
        for k in churn:
            noisy.delete(k)
        assert noisy.to_bytes() == direct.to_bytes()
