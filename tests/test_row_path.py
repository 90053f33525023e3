"""The per-row half of a multi-row INSERT: the B+-tree insert and the row
change's log bodies.

Both are pure speed-ups, so both tests are equivalences. The tree insert
that entered the split machinery on every row is kept below as
:func:`insert_reference`; random key orders with splits, duplicates and
rejected rows drive it and :meth:`PagedBTree.insert` through twin trees on
evicting pools, and every page, pool counter, LRU position and access path
must agree. The undo and redo bodies built from one shared head must equal
:func:`~repro.wal.records._encode_body` of each image, and the general
serializers' spelling of it, errors included.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DuplicateEntryError, RecordError
from repro.storage.paged import BufferPoolManager, PagedBTree
from repro.storage.paged.btree import AccessPath, _leaf_slot
from repro.storage.paged.node import MAX_LEAF_PAYLOAD
from repro.storage.record import encode_row
from repro.util.serialization import encode_bytes, encode_str, encode_uint
from repro.wal.records import _change_bodies, _encode_body
from tests.page_files import temp_page_file

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1
U64_MAX = (1 << 64) - 1


def outcome(fn, *args):
    """``("ok", result)`` or the error's type and message."""
    try:
        return "ok", fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


# -- the B+-tree insert ------------------------------------------------------------


def insert_reference(self, key, payload):
    """The old ``PagedBTree.insert``: every row went through ``_split_up``."""
    path = AccessPath()
    stack = self._descend_with_stack(key, path)
    leaf = stack[-1].node
    slot = _leaf_slot(leaf.entries, key)
    if slot < len(leaf.entries) and leaf.entries[slot][0] == key:
        self._unpin_all(stack)
        raise DuplicateEntryError(f"duplicate key {key}")
    try:
        leaf.insert_entry(slot, key, payload)
    except BaseException:
        self._unpin_all(stack)
        raise
    self._pool.mark_dirty(stack[-1])
    self._size += 1
    self._split_up(stack)
    self._meta_changed()
    return path


class TwinTree:
    """One tree on its own file and evicting pool, with every hook recorded.

    The pool's LSN is the step number, so each frame's rec- and page-LSN
    show at which step it was dirtied; the log flusher records every
    write-back's flush request, and ``on_meta`` every header update.
    """

    def __init__(self, insert, capacity):
        self.insert = insert
        self.lsn = 0
        self.flushes = []
        self.meta = []
        self.pool = BufferPoolManager(
            capacity,
            lsn_source=lambda: self.lsn,
            log_flusher=self.flushes.append,
        )
        self.file = temp_page_file("t", space_id=1)
        self.tree = PagedBTree(
            self.pool, self.file, on_meta=lambda *meta: self.meta.append(meta)
        )

    def apply(self, step, op, key, payload):
        self.lsn = step
        if op == "insert":
            return outcome(lambda: self.insert(self.tree, key, payload).page_ids)
        if op == "get":
            return outcome(lambda: self.tree.get(key)[1].page_ids)
        return outcome(lambda: self.tree.delete(key)[1].page_ids)

    def state(self, with_disk):
        pool = self.pool
        frames = [
            (
                frame.page_id,
                frame.dirty,
                frame.rec_lsn,
                frame.page_lsn,
                frame.pin_count,
                frame.node.serialize(frame.page_lsn),
            )
            for frame in pool.frames()
        ]
        return (
            pool.stats,
            pool.dump().to_text(),
            frames,
            self.file.to_bytes() if with_disk else None,
            self.tree.root_page_id,
            self.tree.size,
            list(self.meta),
            list(self.flushes),
        )


def run_twins(ops, capacity, disk_every=1):
    """Apply ``ops`` to a reference twin and a current twin; compare the
    outcome and state after every step, and the files once flushed."""
    old = TwinTree(insert_reference, capacity)
    new = TwinTree(PagedBTree.insert, capacity)
    for step, (op, key, payload) in enumerate(ops, start=1):
        assert new.apply(step, op, key, payload) == old.apply(step, op, key, payload)
        with_disk = step % disk_every == 0
        assert new.state(with_disk) == old.state(with_disk), f"step {step}"
        assert new.pool.pinned_frames == 0
    for twin in (old, new):
        twin.pool.flush_all()
    assert new.state(True) == old.state(True)
    return new


_KEY = st.one_of(
    st.integers(0, 60),
    st.sampled_from([I64_MIN, I64_MAX, I64_MAX + 1, I64_MIN - 1]),
)
_PAYLOAD = st.one_of(
    st.integers(0, 1500).map(lambda n: bytes([n % 251]) * n),
    st.just(b"x" * (MAX_LEAF_PAYLOAD + 1)),
)
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert"] * 8 + ["get", "delete"]), _KEY, _PAYLOAD
    ),
    max_size=80,
)


class TestTreeInsert:
    @settings(max_examples=150, deadline=None)
    @given(ops=_OPS, capacity=st.integers(5, 8))
    def test_random_histories_match_the_reference(self, ops, capacity):
        run_twins(ops, capacity)

    @pytest.mark.parametrize("seed", range(3))
    def test_shuffled_batches_with_duplicates_match_the_reference(self, seed):
        # Batches of consecutive keys in shuffled order, the way a bulk of
        # multi-row INSERTs arrives, with every tenth batch sent twice.
        rng = random.Random(seed)
        batches = list(range(60))
        rng.shuffle(batches)
        ops = []
        for batch in batches:
            rows = [
                ("insert", 2 * key, bytes(rng.randrange(40, 300)))
                for key in range(batch * 20, batch * 20 + 20)
            ]
            ops += rows + (rows[:5] if batch % 10 == 0 else [])
            ops.append(("get", 2 * rng.randrange(1200), b""))
        tree = run_twins(ops, capacity=8, disk_every=50).tree
        assert tree.size == 1200
        assert tree.height >= 2


# -- the row change's log bodies ----------------------------------------------------

_TABLES = ["t", "naïve_tbl", "表", "", "x" * 70, "emoji 🙂"]
_KEYS = [0, 1, -1, I64_MIN, I64_MAX, U64_MAX, I64_MAX + 1, -(1 << 70)]
_IMAGES = [b"", b"\x00", bytes(range(256)), encode_row((7, "naïve", None))]


def body_reference(txn_id, table, op, key, image):
    """A redo/undo body as the general-purpose serializers spell it."""
    return b"".join(
        (
            encode_uint(txn_id, 8),
            encode_str(table),
            encode_str(op),
            encode_uint(key & U64_MAX, 8),
            encode_bytes(image),
        )
    )


def bodies_reference(txn_id, table, op, key, before, after):
    bodies = (
        _encode_body(txn_id, table, op, key, before),
        _encode_body(txn_id, table, op, key, after),
    )
    assert bodies == (
        body_reference(txn_id, table, op, key, before),
        body_reference(txn_id, table, op, key, after),
    )
    return bodies


class TestChangeBodies:
    @pytest.mark.parametrize("op", ["insert", "update", "delete"])
    @pytest.mark.parametrize("table", _TABLES)
    def test_edge_values_match_encode_body(self, op, table):
        for txn_id in (0, 1, U64_MAX):
            for key in _KEYS:
                for before in _IMAGES:
                    for after in _IMAGES:
                        args = (txn_id, table, op, key, before, after)
                        assert _change_bodies(*args) == bodies_reference(*args)

    @pytest.mark.parametrize("txn_id", [-1, U64_MAX + 1, -(1 << 80)])
    def test_out_of_range_txn_id_raises_the_same_error(self, txn_id):
        args = (txn_id, "t", "insert", 5, b"", b"row")
        result = outcome(_change_bodies, *args)
        assert result[0] is RecordError
        assert result == outcome(bodies_reference, *args)

    @settings(max_examples=300, deadline=None)
    @given(
        txn_id=st.integers(-5, U64_MAX + 5),
        table=st.text(max_size=12),
        op=st.sampled_from(["insert", "update", "delete"]),
        key=st.integers(),
        before=st.binary(max_size=40),
        after=st.binary(max_size=40),
    )
    def test_random_fields_match_encode_body(self, txn_id, table, op, key, before, after):
        args = (txn_id, table, op, key, before, after)
        assert outcome(_change_bodies, *args) == outcome(bodies_reference, *args)
