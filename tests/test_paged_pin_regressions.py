"""Regression tests: exception paths must release every buffer-pool pin.

These pin down the failure windows the repro-lint protocol pass flagged
in the paged B-tree (a fetch or page allocation failing mid-operation
used to strand pinned frames forever, eventually exhausting the pool)
plus two it cannot see statically: the validate-before-mutate oversized
payload paths and the server-side implicit rollback when a connection
with an open transaction drops.
"""

import pytest

from repro.errors import BufferPoolError, StorageError
from repro.server import MySQLServer
from repro.storage.paged import BufferPoolManager, PagedBTree
from repro.storage.paged.node import MAX_LEAF_PAYLOAD, NEG_INF
from tests.page_files import temp_page_file


class InjectingPool(BufferPoolManager):
    """Buffer pool that fails on command, for exception-path coverage.

    ``fail_fetch_after=N`` makes the (N+1)-th subsequent ``fetch`` raise;
    ``fail_fetch_pages`` fails any fetch of the given page ids;
    ``fail_new_page_after=N`` does the same for page allocation.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fail_fetch_after = None
        self.fail_fetch_pages = set()
        self.fail_new_page_after = None

    def fetch(self, file, page_id):
        if page_id in self.fail_fetch_pages:
            raise BufferPoolError(f"injected fetch failure on page {page_id}")
        if self.fail_fetch_after is not None:
            if self.fail_fetch_after == 0:
                self.fail_fetch_after = None
                raise BufferPoolError("injected fetch failure")
            self.fail_fetch_after -= 1
        return super().fetch(file, page_id)

    def new_page(self, file, builder):
        if self.fail_new_page_after is not None:
            if self.fail_new_page_after == 0:
                self.fail_new_page_after = None
                raise BufferPoolError("injected allocation failure")
            self.fail_new_page_after -= 1
        return super().new_page(file, builder)


def big(value, payload_bytes=200):
    return (str(value) * payload_bytes)[:payload_bytes].encode()


def make_tree():
    pool = InjectingPool(capacity=64)
    file = temp_page_file("t", space_id=1)
    tree = PagedBTree(pool, file)
    return tree, pool, file


def grow_to_height(tree, target=2):
    key = 0
    while tree.height < target:
        tree.insert(key, big(key))
        key += 1
    return key


class TestDescentFailures:
    def test_get_child_fetch_failure_releases_root_pin(self):
        tree, pool, _ = make_tree()
        grow_to_height(tree)
        pool.fail_fetch_after = 1  # root fetch succeeds, child fetch raises
        with pytest.raises(BufferPoolError, match="injected fetch"):
            tree.get(0)
        assert pool.pinned_frames == 0

    def test_insert_descent_fetch_failure_releases_stack(self):
        tree, pool, _ = make_tree()
        next_key = grow_to_height(tree)
        pool.fail_fetch_after = 1
        with pytest.raises(BufferPoolError, match="injected fetch"):
            tree.insert(next_key, big(next_key))
        assert pool.pinned_frames == 0

    def test_tree_still_usable_after_injected_failure(self):
        tree, pool, _ = make_tree()
        next_key = grow_to_height(tree)
        pool.fail_fetch_after = 1
        with pytest.raises(BufferPoolError):
            tree.get(0)
        # The injection is one-shot; with every pin released the same
        # operations must now succeed against an intact tree.
        assert tree.get(0)[0] == big(0)
        tree.insert(next_key, big(next_key))
        assert tree.get(next_key)[0] == big(next_key)
        assert pool.pinned_frames == 0


class TestSplitFailures:
    def test_root_split_allocation_failure_releases_pins(self):
        tree, pool, _ = make_tree()
        # First new_page during a split builds the right sibling; the
        # second promotes a new root. Fail the promotion.
        pool.fail_new_page_after = 1
        with pytest.raises(BufferPoolError, match="injected allocation"):
            for key in range(500):
                tree.insert(key, big(key))
        assert pool.pinned_frames == 0

    def test_leaf_split_successor_fetch_failure_releases_pins(self):
        tree, pool, file = make_tree()
        grow_to_height(tree)
        root = pool.read_node(file, tree.root_page_id)
        (first_sep, _), (second_sep, successor_id) = root.entries[0], root.entries[1]
        assert first_sep == NEG_INF
        # Splitting the leftmost leaf must re-link its successor; fail
        # exactly that fetch. Negative keys all route left of the first
        # real separator, so the descent itself never touches the
        # poisoned page.
        pool.fail_fetch_pages = {successor_id}
        with pytest.raises(BufferPoolError, match="injected fetch"):
            for key in range(-1, -500, -1):
                assert key < second_sep
                tree.insert(key, big(key))
        assert pool.pinned_frames == 0


class TestValidateBeforeMutate:
    def test_oversized_insert_releases_pins_and_leaves_tree_intact(self):
        tree, pool, _ = make_tree()
        tree.insert(1, b"small")
        with pytest.raises(StorageError, match="cannot fit"):
            tree.insert(2, b"x" * (MAX_LEAF_PAYLOAD + 1))
        assert pool.pinned_frames == 0
        assert tree.size == 1
        assert tree.get(2)[0] is None

    def test_oversized_update_releases_pins_and_keeps_old_payload(self):
        tree, pool, _ = make_tree()
        tree.insert(1, b"small")
        with pytest.raises(StorageError, match="cannot fit"):
            tree.update(1, b"x" * (MAX_LEAF_PAYLOAD + 1))
        assert pool.pinned_frames == 0
        assert tree.get(1)[0] == b"small"


class TestDisconnectRollsBackOpenTxn:
    def test_disconnect_aborts_and_releases_the_transaction(self):
        server = MySQLServer()
        session = server.connect("app")
        server.execute(
            session, "CREATE TABLE t (id INT PRIMARY KEY, name TEXT)"
        )
        server.execute(session, "INSERT INTO t (id, name) VALUES (1, 'kept')")
        server.execute(session, "BEGIN")
        server.execute(session, "INSERT INTO t (id, name) VALUES (2, 'doomed')")
        txn_id = session.active_txn.txn_id
        assert txn_id in server.engine.mvcc.active_txn_ids

        server.disconnect(session)
        assert session.active_txn is None
        assert txn_id not in server.engine.mvcc.active_txn_ids

        other = server.connect("app")
        rows = server.execute(other, "SELECT id, name FROM t").rows
        assert rows == ((1, "kept"),)
        # The rolled-back row id is insertable again: nothing lingers.
        server.execute(other, "INSERT INTO t (id, name) VALUES (2, 'fresh')")
        rows = server.execute(other, "SELECT name FROM t WHERE id = 2").rows
        assert rows == (("fresh",),)
