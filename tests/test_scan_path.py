"""Rescans of unchanged rows: leaf-slice range scans, MVCC snapshot work only
for tables with version chains, and the per-server row decode memo.

Every piece is a pure speed-up, so every test here is an equivalence: each
routine against the loop it replaced, kept here as the slow reference, and
a server whose memo is cleared before every statement against one whose
memo is warm, compared artifact by artifact.
"""

import random
import tempfile

import pytest

from repro.engine import StorageEngine
from repro.errors import CatalogError, RecordError, ReproError
from repro.memory import MemoryDump
from repro.server import MySQLServer, ServerConfig
from repro.server.server import DECODE_MEMO_ROWS
from repro.snapshot import AttackScenario, capture
from repro.storage.paged import BufferPoolManager, PagedBTree
from repro.storage.paged.btree import AccessPath
from repro.storage.paged.node import NEG_INF, NO_PAGE
from repro.storage.record import decode_row, encode_row
from tests.page_files import temp_page_file

# -- slow references: the loops the scan path used to run ---------------------


def range_reference(tree, low, high):
    """``PagedBTree.range`` as it was: every entry of every leaf tested."""
    path = AccessPath()
    start_key = low if low is not None else NEG_INF + 1
    frame = tree._descend(start_key, path)
    results = []
    while True:
        for entry_key, payload in frame.node.entries:
            if low is not None and entry_key < low:
                continue
            if high is not None and entry_key > high:
                tree._pool.unpin(frame)
                return results, path
            results.append((entry_key, payload))
        next_page = frame.node.next_page
        tree._pool.unpin(frame)
        if next_page == NO_PAGE:
            return results, path
        frame = tree._fetch(next_page, path)


def visible_entries_reference(mvcc, table, low, high, entries, txn):
    """The engine's old ``_snapshot_entries``: ``read_row`` on every entry,
    then the chained keys missing from the tree (``visible_extra_rows``)."""
    out, present = [], set()
    for key, value in entries:
        present.add(key)
        visible = mvcc.read_row(table, key, value, txn)
        if visible is not None:
            out.append((key, visible))
    extras = []
    for key in mvcc._chains.get(table) or {}:
        if key in present:
            continue
        if low is not None and key < low:
            continue
        if high is not None and key > high:
            continue
        value = mvcc.read_row(table, key, None, txn)
        if value is not None:
            extras.append((key, value))
    if extras:
        out.extend(extras)
        out.sort(key=lambda kv: kv[0])
    return out


# -- PagedBTree.range -----------------------------------------------------------


def _random_tree(rng, n_keys, capacity=512):
    """Random keys and payload sizes, inserted shuffled; then scattered
    deletes and one contiguous run long enough to empty whole leaves."""
    pool = BufferPoolManager(capacity=capacity)
    tree = PagedBTree(pool, temp_page_file("t", space_id=1))
    keys = rng.sample(range(-3 * n_keys, 3 * n_keys), n_keys)
    for key in keys:
        tree.insert(key, bytes([key % 251]) * rng.randint(1, 300))
    live = sorted(keys)
    if n_keys > 40:
        start = rng.randrange(len(live) - 40)
        doomed = set(live[start:start + 40]) | set(rng.sample(live, n_keys // 10))
        for key in doomed:
            tree.delete(key)
        live = [k for k in live if k not in doomed]
    return tree, live


def _bounds(rng, live):
    """None, keys, keys plus or minus one, deleted keys' gaps and values
    outside the key range."""
    out = {None}
    if live:
        out |= {live[0] - 10, live[0], live[-1], live[-1] + 10}
        for key in rng.sample(live, min(6, len(live))):
            out |= {key - 1, key, key + 1}
    out |= {rng.randint(-1000, 1000) for _ in range(4)}
    return sorted(out, key=lambda b: (b is not None, b))


def _assert_range_matches(tree, low, high):
    entries, path = tree.range(low, high)
    ref_entries, ref_path = range_reference(tree, low, high)
    assert entries == ref_entries, (low, high)
    assert path.page_ids == ref_path.page_ids, (low, high)


class TestLeafSliceRange:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_trees_every_bound_pair(self, seed):
        rng = random.Random(seed)
        tree, live = _random_tree(rng, rng.choice([1, 5, 60, 400, 900]))
        assert tree.height >= 1
        bounds = _bounds(rng, live)
        for low in bounds:
            for high in bounds:
                _assert_range_matches(tree, low, high)

    def test_tree_spans_many_leaves_and_lost_some(self):
        rng = random.Random(3)
        tree, live = _random_tree(rng, 900)
        assert tree.height >= 2
        assert tree._file.free_list()  # the deletes emptied and freed a leaf
        assert [k for k, _ in tree.range(None, None)[0]] == live
        assert len(tree.range(None, None)[1].page_ids) > 20

    def test_empty_tree(self):
        tree = PagedBTree(BufferPoolManager(capacity=8), temp_page_file("t", space_id=1))
        for low, high in [(None, None), (0, 10), (10, 0), (None, 5), (5, None)]:
            _assert_range_matches(tree, low, high)

    def test_tree_emptied_by_deletes(self):
        tree = PagedBTree(BufferPoolManager(capacity=64), temp_page_file("t", space_id=1))
        for key in range(300):
            tree.insert(key, b"x" * 100)
        for key in range(300):
            tree.delete(key)
        for low, high in [(None, None), (0, 299), (299, 0), (None, 5), (5, None)]:
            _assert_range_matches(tree, low, high)

    def test_evicting_pool_fetches_the_same_pages(self):
        """Two identical trees over pools smaller than them: one scanned by
        leaf slices, one by the old loop. Both fault the same leaves in, in
        the same order, so hits, misses, evictions and write-backs agree."""
        tree, live = _random_tree(random.Random(7), 900, capacity=6)
        twin, _ = _random_tree(random.Random(7), 900, capacity=6)
        assert tree._pool.stats == twin._pool.stats
        for low, high in [(None, None), (live[10], live[500]), (live[700], None)]:
            entries, path = tree.range(low, high)
            ref_entries, ref_path = range_reference(twin, low, high)
            assert entries == ref_entries
            assert path.page_ids == ref_path.page_ids
            assert tree._pool.stats == twin._pool.stats
        assert tree._pool.stats["evictions"] > 100


# -- MVCCManager.visible_entries ---------------------------------------------------


def _check_every_reader(engine, readers, rng):
    """Every reader (autocommit and each open transaction) over a few
    ranges: the new function against the old loop on the tree's raw
    entries."""
    tree = engine.btree("t")
    spans = [(None, None), (None, 30), (20, None), (10, 50), (50, 10)]
    spans += [(rng.randint(-5, 90), rng.randint(-5, 90)) for _ in range(3)]
    for txn in [None, *readers]:
        for low, high in spans:
            entries, _ = tree.range(low, high)
            got = engine.mvcc.visible_entries("t", low, high, list(entries), txn)
            want = visible_entries_reference(
                engine.mvcc, "t", low, high, list(entries), txn
            )
            assert got == want, (txn and txn.txn_id, low, high)


def _committed_engine(rows=60):
    engine = StorageEngine(wal_sync=False)
    engine.register_table("t")
    txn = engine.begin()
    for key in range(0, 2 * rows, 2):
        engine.insert(txn, "t", key, encode_row((key, f"v{key}")))
    engine.commit(txn)
    return engine


class TestVisibleEntries:
    def test_no_chains_returns_the_scan_itself(self):
        engine = _committed_engine()
        try:
            assert engine.mvcc.num_chains == 0
            entries, _ = engine.btree("t").range(None, None)
            assert engine.mvcc.visible_entries("t", None, None, entries) is entries
            _check_every_reader(engine, [], random.Random(0))
        finally:
            engine.close()

    def test_uncommitted_writes_of_a_second_session(self):
        engine = _committed_engine()
        try:
            reader = engine.begin()  # snapshot before the writer's work
            writer = engine.begin()
            engine.insert(writer, "t", 5, encode_row((5, "new")))
            engine.update(writer, "t", 10, encode_row((10, "changed")))
            engine.delete(writer, "t", 20)
            _check_every_reader(engine, [reader, writer], random.Random(1))
            rows = dict(engine.full_scan("t", txn=reader)[0])
            assert 5 not in rows and 20 in rows
            assert decode_row(rows[10])[0] == (10, "v10")
            mine = dict(engine.full_scan("t", txn=writer)[0])
            assert 5 in mine and 20 not in mine
            engine.commit(writer)
            # Committed after the reader's snapshot: still invisible to it.
            _check_every_reader(engine, [reader], random.Random(2))
            assert 20 in dict(engine.full_scan("t", txn=reader)[0])
            engine.commit(reader)
            assert engine.mvcc.num_chains == 0
        finally:
            engine.close()

    @pytest.mark.parametrize("seed", range(20))
    def test_random_interleavings(self, seed):
        rng = random.Random(seed)
        engine = _committed_engine()
        try:
            open_txns = []
            next_key = 1000
            for _ in range(40):
                action = rng.random()
                if action < 0.15 or not open_txns:
                    open_txns.append(engine.begin())
                elif action < 0.3:
                    txn = open_txns.pop(rng.randrange(len(open_txns)))
                    if rng.random() < 0.7:
                        engine.commit(txn)
                    else:
                        engine.rollback(txn)
                else:
                    txn = rng.choice(open_txns)
                    keys = [k for k, _ in engine.scan("t")]
                    op = rng.choice(["insert", "update", "delete"])
                    try:
                        if op == "insert" or not keys:
                            key = rng.choice([rng.randint(-5, 125), next_key])
                            next_key += 1
                            engine.insert(txn, "t", key, encode_row((key, "i")))
                        elif op == "update":
                            key = rng.choice(keys)
                            engine.update(txn, "t", key, encode_row((key, "u")))
                        else:
                            engine.delete(txn, "t", rng.choice(keys))
                    except ReproError:
                        pass  # conflicts and duplicate keys mutate nothing
                _check_every_reader(engine, open_txns, rng)
            for txn in open_txns:
                engine.commit(txn)
            _check_every_reader(engine, [], rng)
        finally:
            engine.close()


# -- the decode memo ----------------------------------------------------------------


@pytest.fixture
def server():
    server = MySQLServer()
    yield server
    server.close()


def _random_row(rng):
    kinds = [
        lambda: None,
        lambda: rng.randint(-(1 << 63), (1 << 63) - 1),
        lambda: "".join(rng.choice("aé€z ") for _ in range(rng.randint(0, 20))),
        lambda: bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 20))),
    ]
    return tuple(rng.choice(kinds)() for _ in range(rng.randint(0, 8)))


class TestDecodeMemo:
    def test_memo_returns_decode_row_rows(self, server):
        rng = random.Random(0)
        memo = server.decode_memo
        payloads = [encode_row(_random_row(rng)) for _ in range(500)]
        for payload in payloads + payloads:
            assert memo(payload) == decode_row(payload)[0]
            assert type(memo(payload)) is tuple
        # Equal bytes from another object hit the same entry.
        assert memo(bytes(bytearray(payloads[0]))) is memo(payloads[0])
        assert memo.cache_info().hits > 0

    def test_corrupt_payload_raises_on_every_call(self, server):
        good = encode_row((1, "abc", b"\x00"))
        for bad in (good[:-1], good[:3], b"\x01\x00\x00\x00?", good[:4] + b"s\xff"):
            with pytest.raises(RecordError) as first:
                decode_row(bad)
            for _ in range(3):
                with pytest.raises(RecordError) as again:
                    server.decode_memo(bad)
                assert str(again.value) == str(first.value)
        assert server.decode_memo.cache_info().currsize == 0

    def test_bound_is_a_constant_above_the_largest_rescanned_table(self, server):
        assert server.decode_memo.cache_info().maxsize == DECODE_MEMO_ROWS == 4096
        other = MySQLServer()
        try:
            assert other.decode_memo is not server.decode_memo
        finally:
            other.close()

    def test_two_scans_of_a_table_larger_than_the_bound(self, server):
        rows = 5000
        session = server.connect("app")
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        for start in range(0, rows, 250):
            values = ", ".join(f"({k}, 'v{k * 7}')" for k in range(start, start + 250))
            server.execute(session, f"INSERT INTO t (id, v) VALUES {values}")
        want = tuple((k, f"v{k * 7}") for k in range(rows))
        for _ in range(2):
            result = server.execute(session, "SELECT * FROM t")
            assert result.rows == want
            assert result.rows_examined == rows
        assert server.decode_memo.cache_info().currsize == DECODE_MEMO_ROWS
        tail = server.execute(session, "SELECT id FROM t WHERE id BETWEEN 4990 AND 5005")
        assert tail.rows == tuple((k,) for k in range(4990, rows))


class TestUpdateAssignments:
    def test_unknown_column_raises_before_any_write(self, server):
        session = server.connect("app")
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, a INT, b TEXT)")
        server.execute(session, "INSERT INTO t (id, a, b) VALUES (1, 1, 'x'), (2, 2, 'y')")
        lsn = server.engine.lsn.current
        with pytest.raises(CatalogError):
            server.execute(session, "UPDATE t SET a = 5, nope = 1 WHERE id = 1")
        with pytest.raises(CatalogError):
            server.execute(session, "UPDATE t SET nope = 1 WHERE id = 99")
        assert server.engine.lsn.current == lsn

    def test_several_assignments_on_matching_rows(self, server):
        session = server.connect("app")
        server.execute(session, "CREATE TABLE t (id INT PRIMARY KEY, a INT, b TEXT)")
        server.execute(
            session, "INSERT INTO t (id, a, b) VALUES (1, 1, 'x'), (2, 2, 'y'), (3, 1, 'z')"
        )
        result = server.execute(session, "UPDATE t SET b = 'w', a = 9 WHERE a = 1")
        assert (result.rows_affected, result.rows_examined) == (2, 3)
        rows = server.execute(session, "SELECT * FROM t").rows
        assert rows == ((1, 9, "w"), (2, 2, "y"), (3, 9, "w"))


# -- out of band: a cold memo leaves the same artifacts as a warm one ---------------


def _statements():
    """Rescans, ranges, PK reads and writes over one table, with an open
    transaction's uncommitted writes seen by a second session."""
    app = [
        "CREATE TABLE docs (id INT PRIMARY KEY, tags TEXT, n INT)",
    ]
    for start in range(0, 300, 50):
        values = ", ".join(
            f"({k}, 'tag{k % 17} tag{k % 5}', {k * 3})" for k in range(start, start + 50)
        )
        app.append(f"INSERT INTO docs (id, tags, n) VALUES {values}")
    for tag in range(17):
        app.append(f"SELECT id FROM docs WHERE MATCH(tags, 'tag{tag}')")
    for i in range(40):
        app.append(f"SELECT * FROM docs WHERE id = {(i * 37) % 310}")
        app.append(f"SELECT id, n FROM docs WHERE id BETWEEN {i * 7} AND {i * 7 + 12}")
    app += [
        "UPDATE docs SET n = 0, tags = 'tag99' WHERE n > 800",
        "DELETE FROM docs WHERE id BETWEEN 100 AND 140",
        "SELECT COUNT(*) FROM docs",
        "SELECT id FROM docs WHERE MATCH(tags, 'tag99')",
    ]
    other = [
        "BEGIN",
        "INSERT INTO docs (id, tags, n) VALUES (1000, 'tag3', 1)",
        "UPDATE docs SET n = 5 WHERE id = 7",
        "DELETE FROM docs WHERE id = 8",
        "SELECT * FROM docs WHERE id BETWEEN 0 AND 20",
    ]
    tail = ["SELECT * FROM docs", "SELECT * FROM docs WHERE id BETWEEN 0 AND 20"]
    return [("app", s) for s in app] + [("other", s) for s in other] + [
        ("app", s) for s in tail
    ]


def _run(clear_memo, config):
    with tempfile.TemporaryDirectory() as tmp:
        server = MySQLServer(ServerConfig(data_dir=tmp, **config))
        try:
            sessions = {"app": server.connect("app"), "other": server.connect("other")}
            results = []
            for who, sql in _statements():
                if clear_memo:
                    server.decode_memo.cache_clear()
                results.append(server.execute(sessions[who], sql))
            hits = server.decode_memo.cache_info().hits
            snap = capture(server, AttackScenario.FULL_COMPROMISE, escalated=True)
            artifacts = {}
            for name, value in snap.artifacts.items():
                data = value.data if isinstance(value, MemoryDump) else repr(value).encode()
                artifacts[name] = data.replace(tmp.encode(), b"<data_dir>")
            return results, artifacts, hits
        finally:
            server.close()


class TestOutOfBand:
    @pytest.mark.parametrize("config", [
        {},
        dict(obs_enabled=True, general_log_enabled=True,
             query_cache_enabled=True, long_query_time=0.0),
    ], ids=["default", "everything_on"])
    def test_cold_memo_leaves_byte_identical_artifacts(self, config):
        warm_results, warm, warm_hits = _run(False, config)
        cold_results, cold, cold_hits = _run(True, config)
        assert warm_hits > 1000 and cold_hits == 0
        assert warm_results == cold_results
        assert "memory_dump" in warm
        assert sorted(warm) == sorted(cold)
        for name in warm:
            assert warm[name] == cold[name], name
