"""Unit and property tests for the B+ tree (:class:`PagedBTree`).

Payloads are padded to ~1 KB so four entries fill a 4 KB leaf: small key
sets then split into many leaves and multi-level trees.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage import BufferPoolManager, PagedBTree
from repro.storage.paged.node import InternalNode, LeafNode
from tests.page_files import temp_page_file


def make_tree(capacity=64):
    pool = BufferPoolManager(capacity=capacity)
    file = temp_page_file("t", space_id=1)
    return PagedBTree(pool, file), pool, file


def val(key) -> bytes:
    """A ~1 KB payload naming ``key``: four fit one leaf, five split it."""
    return str(key).encode().ljust(1000, b".")


def live_pages(file) -> int:
    """Pages in use by the tree (header and freed pages excluded)."""
    return file.num_pages - 1 - file.free_count


class TestBasicOps:
    def test_insert_get(self):
        tree, _, _ = make_tree()
        tree.insert(5, b"five")
        payload, _ = tree.get(5)
        assert payload == b"five"

    def test_get_missing(self):
        tree, _, _ = make_tree()
        payload, path = tree.get(42)
        assert payload is None
        assert path.page_ids  # even a miss touches the root

    def test_duplicate_key_rejected(self):
        tree, _, _ = make_tree()
        tree.insert(1, b"a")
        with pytest.raises(StorageError):
            tree.insert(1, b"b")

    def test_update(self):
        tree, _, _ = make_tree()
        tree.insert(1, b"old")
        old, _ = tree.update(1, b"new")
        assert old == b"old"
        assert tree.get(1)[0] == b"new"

    def test_update_missing_rejected(self):
        tree, _, _ = make_tree()
        with pytest.raises(StorageError):
            tree.update(9, b"x")

    def test_delete(self):
        tree, _, _ = make_tree()
        tree.insert(1, b"x")
        old, _ = tree.delete(1)
        assert old == b"x"
        assert tree.get(1)[0] is None
        assert tree.size == 0

    def test_delete_missing_rejected(self):
        tree, _, _ = make_tree()
        with pytest.raises(StorageError):
            tree.delete(1)

    def test_size_tracking(self):
        tree, _, _ = make_tree()
        for i in range(10):
            tree.insert(i, bytes([i]))
        assert tree.size == 10
        tree.delete(3)
        assert tree.size == 9


class TestSplitsAndStructure:
    def test_splits_grow_height(self):
        tree, _, _ = make_tree()
        assert tree.height == 1
        for i in range(50):
            tree.insert(i, val(i))
        assert tree.height >= 2

    def test_all_keys_retrievable_after_splits(self):
        tree, _, _ = make_tree()
        keys = list(range(0, 200, 3))
        for k in keys:
            tree.insert(k, val(k))
        for k in keys:
            assert tree.get(k)[0] == val(k)

    def test_reverse_insertion_order(self):
        tree, _, _ = make_tree()
        for k in reversed(range(100)):
            tree.insert(k, val(k))
        assert [k for k, _ in tree.scan()] == list(range(100))

    def test_scan_sorted(self):
        tree, _, _ = make_tree()
        rng = random.Random(7)
        keys = rng.sample(range(1000), 300)
        for k in keys:
            tree.insert(k, val(k))
        scanned = [k for k, _ in tree.scan()]
        assert scanned == sorted(keys)

    def test_access_path_root_to_leaf(self):
        tree, _, _ = make_tree()
        for i in range(100):
            tree.insert(i, val(i))
        _, path = tree.get(50)
        assert len(path.page_ids) == tree.height
        assert path.page_ids[0] == tree.root_page_id


class TestRange:
    def test_range_inclusive(self):
        tree, _, _ = make_tree()
        for i in range(20):
            tree.insert(i, val(i))
        results, _ = tree.range(5, 9)
        assert [k for k, _ in results] == [5, 6, 7, 8, 9]

    def test_range_open_low(self):
        tree, _, _ = make_tree()
        for i in range(10):
            tree.insert(i, val(i))
        results, _ = tree.range(None, 3)
        assert [k for k, _ in results] == [0, 1, 2, 3]

    def test_range_open_high(self):
        tree, _, _ = make_tree()
        for i in range(10):
            tree.insert(i, val(i))
        results, _ = tree.range(7, None)
        assert [k for k, _ in results] == [7, 8, 9]

    def test_range_empty_tree(self):
        tree, _, _ = make_tree()
        results, path = tree.range(1, 5)
        assert results == []
        assert path.page_ids

    def test_range_no_matches(self):
        tree, _, _ = make_tree()
        tree.insert(1, b"v")
        results, _ = tree.range(100, 200)
        assert results == []

    def test_range_touches_multiple_leaves(self):
        tree, _, _ = make_tree()
        for i in range(100):
            tree.insert(i, val(i))
        _, path = tree.range(10, 60)
        # A 51-key scan over four-entry leaves must touch many pages.
        assert len(set(path.page_ids)) > 5


class TestBufferPoolIntegration:
    def test_touches_reported(self):
        tree, pool, _ = make_tree()
        for i in range(50):
            tree.insert(i, val(i))
        before = pool.stats["hits"] + pool.stats["misses"]
        tree.get(25)
        after = pool.stats["hits"] + pool.stats["misses"]
        assert after - before == tree.height

    def test_scan_does_not_touch_pool(self):
        tree, pool, _ = make_tree()
        for i in range(50):
            tree.insert(i, val(i))
        before = pool.stats["hits"] + pool.stats["misses"]
        list(tree.scan())
        after = pool.stats["hits"] + pool.stats["misses"]
        assert after == before


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.integers(0, 10_000), min_size=1, max_size=150))
    def test_insert_then_get_all(self, keys):
        tree, _, _ = make_tree()
        for k in keys:
            tree.insert(k, val(k))
        for k in keys:
            assert tree.get(k)[0] == val(k)
        assert [k for k, _ in tree.scan()] == sorted(keys)

    @settings(max_examples=20, deadline=None)
    @given(
        st.sets(st.integers(0, 1000), min_size=10, max_size=100),
        st.data(),
    )
    def test_delete_subset(self, keys, data):
        tree, _, _ = make_tree()
        for k in keys:
            tree.insert(k, val(k))
        doomed = data.draw(
            st.sets(st.sampled_from(sorted(keys)), max_size=len(keys))
        )
        for k in doomed:
            tree.delete(k)
        survivors = keys - doomed
        assert [k for k, _ in tree.scan()] == sorted(survivors)
        for k in doomed:
            assert tree.get(k)[0] is None

    @settings(max_examples=20, deadline=None)
    @given(
        st.sets(st.integers(0, 500), min_size=5, max_size=80),
        st.integers(0, 500),
        st.integers(0, 500),
    )
    def test_range_matches_filter(self, keys, a, b):
        low, high = min(a, b), max(a, b)
        tree, _, _ = make_tree()
        for k in keys:
            tree.insert(k, val(k))
        results, _ = tree.range(low, high)
        assert [k for k, _ in results] == sorted(k for k in keys if low <= k <= high)


class TestMinKey:
    def test_min_key_empty(self):
        tree, _, _ = make_tree()
        assert tree.min_key() is None

    def test_min_key_basic(self):
        tree, _, _ = make_tree()
        for k in (9, 3, 7, 5):
            tree.insert(k, val(k))
        assert tree.min_key() == 3

    def test_min_key_after_deleting_leftmost_leaf(self):
        tree, _, _ = make_tree()
        for k in range(20):
            tree.insert(k, val(k))
        for k in range(10):
            tree.delete(k)
        assert tree.min_key() == 10


class TestEmptyNodeReclamation:
    """Emptied leaves are unlinked and freed, not kept as dead pages on
    scan paths."""

    def test_emptied_leaf_is_freed(self):
        tree, _, file = make_tree()
        for k in range(20):
            tree.insert(k, val(k))
        before = live_pages(file)
        for k in range(5, 10):
            tree.delete(k)
        assert live_pages(file) < before
        assert [k for k, _ in tree.scan()] == [
            k for k in range(20) if not (5 <= k < 10)
        ]

    def test_delete_all_collapses_to_single_leaf(self):
        rng = random.Random(11)
        tree, _, file = make_tree()
        keys = list(range(300))
        rng.shuffle(keys)
        for k in keys:
            tree.insert(k, val(k))
        assert tree.height > 1
        rng.shuffle(keys)
        for k in keys:
            tree.delete(k)
        assert tree.size == 0
        assert tree.height == 1
        assert tree.min_key() is None
        # Exactly the (empty) root leaf survives.
        assert live_pages(file) == 1
        # The tree remains fully usable after total reclamation.
        for k in range(50):
            tree.insert(k, val(k))
        assert [k for k, _ in tree.scan()] == list(range(50))

    def test_interleaved_churn_keeps_structure_consistent(self):
        rng = random.Random(23)
        tree, pool, file = make_tree()
        live = {}
        for _ in range(2000):
            if live and rng.random() < 0.5:
                k = rng.choice(list(live))
                old, _ = tree.delete(k)
                assert old == live.pop(k)
            else:
                k = rng.randrange(500)
                if k in live:
                    continue
                tree.insert(k, val(k))
                live[k] = val(k)
        assert sorted(live) == [k for k, _ in tree.scan()]
        # No reachable page is an empty non-root leaf.
        stack = [tree.root_page_id]
        while stack:
            node = pool.read_node(file, stack.pop())
            if isinstance(node, InternalNode):
                stack.extend(child for _, child in node.entries)
            elif node.page_id != tree.root_page_id:
                assert isinstance(node, LeafNode) and node.entries
